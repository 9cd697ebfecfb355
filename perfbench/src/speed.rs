//! Host-speed scaling of the end-to-end times.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! ±20% between runs minutes apart, in CPU time as well as wall time, while
//! the hypervisor steals almost nothing. To keep that drift out of the
//! end-to-end times, every run interleaves a fixed reference kernel with
//! its timed work — slices of it totalling [`SHARE`] of the timed time,
//! run between set-up passes and between ops, never inside one — and
//! scales each op's time and each set-up pass's by [`REFERENCE_SLICE_MS`]
//! over the median time of the slices run within [`WINDOW`] of it. A time
//! then reads as it would on a host where the kernel runs at its
//! reference speed; the raw wall times are printed next to it.
//!
//! The kernel allocates nothing after its construction, and each batch of
//! slices starts with one untimed warm-up slice, so the timed ones run on
//! warm caches: they measure neither the allocator state nor how much of
//! the cache the preceding op evicted — properties of dprle, not of the
//! host.
//!
//! The kernel is the benchmark's own code and calls nothing in dprle, so a
//! change to dprle moves the scaled times in proportion as it moves the raw
//! ones.
//! It does the kind of work the solver does — subset construction over a
//! fixed pseudo-random NFA, interning state sets in a hash table well
//! beyond the L1 cache — so host slowdowns hit it much as they hit the
//! solver.

use crate::fig12::SplitMix64;
use crate::stats;
use std::time::{Duration, Instant};

/// Reference-kernel time as a share of the timed work it is interleaved
/// with.
pub const SHARE: f64 = 0.05;

/// A typical slice time on the reference host (a 2-vCPU Xeon VM), ms: it
/// sets only the level of the scaled times, not their spread.
pub const REFERENCE_SLICE_MS: f64 = 0.25;

/// NFA states (one bit each of a `u64` state set), alphabet size and
/// successors per state and letter.
const NFA_STATES: usize = 48;
const ALPHABET: usize = 4;
const FAN_OUT: usize = 2;

/// DFA states one slice builds.
const DFA_STATES: usize = 8000;

/// Slots of the open-addressing intern table, a power of two: 2^15 slots
/// of 16 bytes, a 512 KiB table that one slice touches at random, so the
/// kernel depends on the cache hierarchy as the solver's hash-consed
/// automata do. Measured on the reference host (48 KiB L1d, 2 MiB L2),
/// scaling by a run-wide mean, a 128 KiB table tracked the drift of
/// fig12-fast's op times less closely than tables of 0.5–4 MiB.
const TABLE_BITS: u32 = 15;

/// The reference kernel: the first [`DFA_STATES`] states of the subset
/// construction over a fixed pseudo-random NFA, state sets interned in an
/// open-addressing table. Its buffers are allocated once and a slot is
/// free unless it carries the current slice's generation, so a slice
/// neither allocates nor clears the table: its time does not depend on
/// the allocator state dprle left behind.
#[derive(Debug)]
struct Kernel {
    delta: [[u64; ALPHABET]; NFA_STATES],
    /// `[state set, generation]` per slot.
    table: Vec<[u64; 2]>,
    queue: Vec<u64>,
    generation: u64,
}

impl Default for Kernel {
    fn default() -> Kernel {
        let mut rng = SplitMix64(0x5eed_5eed);
        let mut delta = [[0u64; ALPHABET]; NFA_STATES];
        for row in &mut delta {
            for targets in row.iter_mut() {
                for _ in 0..FAN_OUT {
                    *targets |= 1 << rng.below(NFA_STATES);
                }
            }
        }
        Kernel {
            delta,
            table: vec![[0, 0]; 1 << TABLE_BITS],
            queue: Vec::with_capacity(DFA_STATES),
            generation: 0,
        }
    }
}

impl Kernel {
    /// One slice of reference work. Returns a digest of the transitions
    /// built, so the work cannot be optimized away.
    fn run(&mut self) -> u64 {
        self.generation += 1;
        let generation = self.generation;
        self.queue.clear();
        let mask = self.table.len() - 1;
        let mut digest = 0u64;
        let mut head = 0;
        self.queue.push(1);
        while head < self.queue.len() && self.queue.len() < DFA_STATES {
            let set = self.queue[head];
            head += 1;
            for letter in 0..ALPHABET {
                let mut next = 0u64;
                let mut bits = set;
                while bits != 0 {
                    next |= self.delta[bits.trailing_zeros() as usize][letter];
                    bits &= bits - 1;
                }
                let mut slot =
                    (next.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - TABLE_BITS)) as usize;
                loop {
                    let [key, tag] = self.table[slot];
                    if tag != generation {
                        self.table[slot] = [next, generation];
                        if self.queue.len() < DFA_STATES {
                            self.queue.push(next);
                        }
                        break;
                    }
                    if key == next {
                        break;
                    }
                    slot = (slot + 1) & mask;
                }
                digest = digest.rotate_left(5) ^ next;
            }
        }
        digest
    }

    /// Runs one slice; returns its wall time, ms.
    fn slice_ms(&mut self) -> f64 {
        let started = Instant::now();
        std::hint::black_box(self.run());
        started.elapsed().as_secs_f64() * 1000.0
    }
}

/// Slices that start within this long of a unit of timed work measure the
/// host speed that unit ran at. Within one run the host's speed switches
/// between modes about a third apart — every request class's latencies
/// split into two such clusters — so each op is scaled by the slices
/// around it, not by a mean over the run.
pub const WINDOW: Duration = Duration::from_millis(50);

/// The reference slices interleaved with one kind of timed work, and the
/// units of that work.
#[derive(Debug, Default)]
pub struct HostSpeed {
    kernel: Kernel,
    /// Kernel time still owed to the timed work so far, ms (negative when
    /// the last slice overshot).
    owed_ms: f64,
    /// When the first unit started: the origin of the offsets below.
    epoch: Option<Instant>,
    /// Start of every timed slice, µs from the epoch, in time order.
    slice_at_us: Vec<u32>,
    /// Wall time of every timed slice, ms, in the same order.
    slice_ms: Vec<f64>,
    /// Start and end (µs from the epoch) of every unit of timed work, in
    /// time order: 8 bytes a unit, so the benchmark's own memory, which
    /// `peak_rss_mb` includes, hardly grows with the number of ops.
    units: Vec<[u32; 2]>,
}

impl HostSpeed {
    /// Records a unit of timed work, `work` long from `started`, and runs
    /// the slices it is owed: when any is, a warm-up slice and then timed
    /// ones until the debt is paid.
    pub fn pace(&mut self, started: Instant, work: Duration) {
        let epoch = *self.epoch.get_or_insert(started);
        let micros = |at: Instant| at.saturating_duration_since(epoch).as_micros() as u32;
        self.units.push([micros(started), micros(started + work)]);
        self.owed_ms += work.as_secs_f64() * 1000.0 * SHARE;
        if self.owed_ms <= 0.0 {
            return;
        }
        self.owed_ms -= self.kernel.slice_ms();
        loop {
            self.slice_at_us.push(micros(Instant::now()));
            let ms = self.kernel.slice_ms();
            self.slice_ms.push(ms);
            self.owed_ms -= ms;
            if self.owed_ms <= 0.0 {
                return;
            }
        }
    }

    /// Timed slices taken.
    pub fn slices(&self) -> usize {
        self.slice_ms.len()
    }

    /// Mean timed-slice time over the run, ms (the reference time when no
    /// slice ran).
    pub fn mean_slice_ms(&self) -> f64 {
        if self.slice_ms.is_empty() {
            return REFERENCE_SLICE_MS;
        }
        self.slice_ms.iter().sum::<f64>() / self.slice_ms.len() as f64
    }

    /// What each unit's time is multiplied by, in the order the units were
    /// recorded: [`REFERENCE_SLICE_MS`] over the median time of the slices
    /// that started within [`WINDOW`] of the unit (of every slice, when
    /// none did) — a median, so one slice the hypervisor preempted does not
    /// rescale the ops around it. Below 1 where the host ran slower than
    /// the reference.
    pub fn scales(&self) -> Vec<f64> {
        let window = WINDOW.as_micros() as u32;
        self.units
            .iter()
            .map(|&[start, end]| {
                let from = start.saturating_sub(window);
                let lo = self.slice_at_us.partition_point(|&at| at < from);
                let hi = self.slice_at_us.partition_point(|&at| at <= end + window);
                let near = if lo < hi {
                    &self.slice_ms[lo..hi]
                } else {
                    &self.slice_ms[..]
                };
                stats::median(near).map_or(1.0, |ms| REFERENCE_SLICE_MS / ms)
            })
            .collect()
    }

    /// `values`, one per unit, each multiplied by its unit's scale.
    pub fn scale(&self, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .zip(self.scales())
            .map(|(v, s)| v * s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work() {
        let mut kernel = Kernel::default();
        let digest = kernel.run();
        assert_eq!(kernel.queue.len(), DFA_STATES, "the NFA has enough subsets");
        assert_eq!(Kernel::default().run(), digest);
        assert_eq!(kernel.run(), digest);
    }

    #[test]
    fn slices_total_the_share_of_the_timed_work() {
        let mut speed = HostSpeed::default();
        speed.pace(Instant::now(), Duration::ZERO);
        assert_eq!(speed.slices(), 0);
        assert_eq!(speed.scales(), [1.0]);
        // Many short ops: one batch (a warm-up and a timed slice), then
        // credit until the share is due again.
        for _ in 0..20 {
            speed.pace(Instant::now(), Duration::from_micros(100));
        }
        assert_eq!(speed.slices(), 1);
        // 20 ms due: a warm-up slice, then timed ones until it is paid.
        speed.pace(Instant::now(), Duration::from_millis(400));
        let timed_ms: f64 = speed.slice_ms[1..].iter().sum();
        let longest = speed.slice_ms.iter().copied().fold(0.0, f64::max);
        assert!(speed.slices() > 2);
        assert!(timed_ms < 20.0 + longest, "{timed_ms} ms of timed slices");
    }

    #[test]
    fn each_unit_is_scaled_by_the_slices_near_it() {
        let ms = |ms: u32| ms * 1000;
        let reference = |times: f64| REFERENCE_SLICE_MS * times;
        let speed = HostSpeed {
            slice_at_us: vec![ms(10), ms(20), ms(500), ms(800), ms(810), ms(820)],
            slice_ms: [1.0, 3.0, 2.0, 1.0, 1.0, 20.0].map(reference).to_vec(),
            // Near the first two slices; near the third; near the last three,
            // one of them preempted; near none.
            units: vec![
                [0, ms(5)],
                [ms(480), ms(490)],
                [ms(790), ms(830)],
                [ms(2000), ms(2001)],
            ],
            ..HostSpeed::default()
        };
        let scales = speed.scales();
        for (scale, expected) in scales.iter().zip([0.5, 0.5, 1.0, 1.0 / 1.5]) {
            assert!((scale - expected).abs() < 1e-12, "{scales:?}");
        }
        assert_eq!(speed.scale(&[4.0, 6.0, 8.0]), [2.0, 3.0, 8.0]);
        assert!((speed.mean_slice_ms() - reference(28.0 / 6.0)).abs() < 1e-12);
    }
}
