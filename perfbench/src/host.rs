//! Host-noise readings from `/proc`: the host's CPU steal share, this
//! process's CPU time, and its peak resident set.

use std::fs;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_SECOND: f64 = 100.0;

/// The aggregate `cpu` line of `/proc/stat`: steal and total ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the host counters now; zeros when `/proc/stat` is unreadable.
    pub fn now() -> CpuTicks {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| parse_cpu_line(text.lines().next()?))
            .unwrap_or_default()
    }

    /// Share of all host CPU time between `earlier` and `self` that the
    /// hypervisor stole.
    pub fn steal_frac_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses `cpu  user nice system idle iowait irq softirq steal …`; the
/// guest columns are already counted in `user`/`nice`, so the total is
/// the first eight.
fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if values.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        steal: values[7],
        total: values.iter().sum(),
    })
}

/// This process's user plus system CPU time, all threads, in seconds.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            // Fields after the parenthesized command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &text[text.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) as f64 / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// CPU and steal over one measured interval.
pub struct Interval {
    ticks: CpuTicks,
    cpu_s: f64,
}

impl Interval {
    /// Starts measuring.
    pub fn start() -> Interval {
        Interval {
            ticks: CpuTicks::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(process CPU seconds, host steal share)` since [`Interval::start`].
    pub fn finish(&self) -> (f64, f64) {
        (
            process_cpu_s() - self.cpu_s,
            CpuTicks::now().steal_frac_since(&self.ticks),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_read_from_the_eighth_column() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0").expect("parses");
        let b = parse_cpu_line("cpu  200 0 60 900 10 0 5 60 7 0").expect("parses");
        assert_eq!(a.total, 1000);
        assert!((b.steal_frac_since(&a) - 25.0 / 235.0).abs() < 1e-12);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(parse_cpu_line("cpu 1 2 3").is_none());
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(CpuTicks::now().total > 0);
    }
}
