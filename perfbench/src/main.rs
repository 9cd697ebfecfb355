//! End-to-end and per-layer benchmark of dprle.
//!
//! ```text
//! perfbench --workload fig12-secure|fig12-fast|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.sh` builds this package and the `dprle` binary, then runs
//! it with the same arguments. Every workload runs closed loop with one
//! caller and one busy thread; only the traced run's parallel probe uses
//! two. With `--trace 0` the last stdout line carries the end-to-end
//! metrics, with `--trace 1` the per-layer ones (see `README.md` for what
//! each metric should move, and on which workload). Every op's answer is
//! checked against a reference outside the solver's automata; an op whose
//! check fails is counted in `failed`. The end-to-end times are scaled by
//! the host speed each op ran at (see [`speed`]).

mod fig12;
mod host;
mod layers;
mod probes;
mod serve_mix;
mod spans;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Each workload sets itself up at least this many times, and for at
/// least [`SETUP_MIN`], so a ~30 ms set-up is timed across more than a
/// moment of host noise; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// See [`SETUP_REPEATS`].
const SETUP_MIN: Duration = Duration::from_secs(1);

/// The end-to-end metrics every `--trace 0` run prints: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run prints: (name, unit). A
/// layer a workload never calls reads zero there.
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_php.ms", "ms"),
    ("lang.explore.ms", "ms"),
    ("lang.build_system.ms", "ms"),
    ("lang.constraints", "count"),
    ("core.solve.ms", "ms"),
    ("core.solve.self_frac", "ratio"),
    ("core.reduce.self_ms", "ms"),
    ("core.branches_completed", "count"),
    ("core.gci.self_ms", "ms"),
    ("core.enumerate.self_ms", "ms"),
    ("core.states_materialized", "count"),
    ("core.product_states", "count"),
    ("core.group_disjuncts", "count"),
    ("automata.product.builds", "count"),
    ("automata.product.ms", "ms"),
    ("core.minimize.self_ms", "ms"),
    ("automata.determinize.out_states", "count"),
    ("core.verify.self_ms", "ms"),
    ("automata.inclusion.queries", "count"),
    ("automata.inclusion.ms", "ms"),
    ("automata.inclusion.macrostates", "count"),
    ("core.witness.ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.memo_op_hits", "count"),
    ("store.memo_op_misses", "count"),
    ("store.evictions", "count"),
    ("store.memo_bytes.peak", "bytes"),
    ("core.fingerprint_misses", "count"),
    ("serve.parse.p50_us", "us"),
    ("serve.solve.p50_us", "us"),
    ("serve.serialize.p50_us", "us"),
    ("serve.overhead_frac", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.transport.p50_us", "us"),
    ("telemetry.traced_slowdown", "ratio"),
    ("parallel.speedup_j2", "ratio"),
    ("parallel.cpu_ratio_j2", "ratio"),
    ("parallel.steal_frac_j1", "ratio"),
    ("parallel.steal_frac_j2", "ratio"),
    ("host.steal_frac", "ratio"),
    ("host.cpu_s", "s"),
    ("host.wall_s", "s"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (`0` reproduces the corpus exactly).
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Length of each measured leg: the whole window when untraced; half
    /// of it for each of the traced run's untraced and traced legs.
    pub fn leg(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Ops attempted (untraced and traced).
    pub attempted: u64,
    /// Ops whose answer check failed.
    pub failed: u64,
    /// Wall time of each untraced op, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each set-up repeat, s.
    pub setup_s: Vec<f64>,
    /// `VmHWM` when the untraced ops end, MiB: before the benchmark's own
    /// statistics copy the samples, whose number varies with host speed.
    pub peak_rss_mb: f64,
    /// Reference-kernel slices interleaved with the set-up passes: the
    /// host speed `setup_s` is scaled by.
    pub setup_speed: speed::HostSpeed,
    /// Reference-kernel slices interleaved with the untraced ops: the host
    /// speed the op times are scaled by.
    pub op_speed: speed::HostSpeed,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// A run-internal consistency check that failed (for example, two
    /// cycles of identical ops reporting different work counters).
    pub inconsistency: Option<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Run {
    /// Runs `set_up` repeatedly (see [`SETUP_REPEATS`]), timing each
    /// pass into `setup_s`, and returns the last pass's result.
    pub fn set_up<T>(&mut self, mut set_up: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let mut last = None;
        while self.setup_s.len() < SETUP_REPEATS || started.elapsed() < SETUP_MIN {
            let pass = Instant::now();
            last = Some(set_up());
            let wall = pass.elapsed();
            self.setup_s.push(wall.as_secs_f64());
            self.setup_speed.pace(pass, wall);
        }
        last.expect("at least one set-up pass")
    }

    /// Records one untraced op, `wall` long from `started`, and runs the
    /// reference slices it owes; returns its wall time in ms.
    pub fn record_op(&mut self, started: Instant, wall: Duration) -> f64 {
        let ms = wall.as_secs_f64() * 1000.0;
        self.latencies_ms.push(ms);
        self.op_speed.pace(started, wall);
        ms
    }

    /// Completed ops divided by the time those ops took (wall or scaled),
    /// per second.
    pub fn rate(latencies_ms: &[f64]) -> f64 {
        latencies_ms.len() as f64 * 1000.0 / latencies_ms.iter().sum::<f64>()
    }

    /// Records the traced leg — per-layer time and exact counters, the
    /// tracing slowdown against the untraced leg — and runs the probes.
    pub fn record_traced(
        &mut self,
        time: &layers::LayerTime,
        counters: &layers::Counters,
        traced_ms: &[f64],
        seed: u64,
    ) {
        layers::record(&mut self.layers, time, counters);
        self.layers.insert(
            "telemetry.traced_slowdown",
            Run::rate(&self.latencies_ms) / Run::rate(traced_ms) - 1.0,
        );
        probes::run_all(seed, self);
    }

    /// The end-to-end metrics, computed after each op time and set-up
    /// pass is scaled by the host speed it ran at (see [`speed`]); the
    /// unscaled figures go to the notes.
    fn end_to_end(&mut self) -> Vec<(&'static str, f64)> {
        if stats::tail_percentile(&self.latencies_ms, 99).is_none() {
            // Too few ops for a p99 with ten samples beyond it (the
            // ~12 s `secure` solves): the tail is the slowest op.
            self.notes.push(format!(
                "latency_p99_ms: {} ops leave fewer than {} beyond the 99th percentile; reporting the slowest op",
                self.latencies_ms.len(),
                stats::MIN_TAIL_SAMPLES
            ));
        }
        for (what, speed) in [("set-up", &self.setup_speed), ("op", &self.op_speed)] {
            let scales = speed.scales();
            self.notes.push(format!(
                "host speed over {what} work: {} reference slices, mean {:.5} ms against {} ms; scales {:.4}..{:.4}, median {:.4}",
                speed.slices(),
                speed.mean_slice_ms(),
                speed::REFERENCE_SLICE_MS,
                scales.iter().copied().fold(f64::INFINITY, f64::min),
                scales.iter().copied().fold(0.0, f64::max),
                stats::median(&scales).unwrap_or(1.0),
            ));
        }
        let unscaled = end_to_end_of(&self.latencies_ms, &self.setup_s, self.peak_rss_mb);
        self.notes.push(format!(
            "unscaled: {}",
            unscaled
                .iter()
                .map(|(name, value)| format!("{name} {value:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        end_to_end_of(
            &self.op_speed.scale(&self.latencies_ms),
            &self.setup_speed.scale(&self.setup_s),
            self.peak_rss_mb,
        )
    }
}

/// The end-to-end metrics of a run's op times (ms), set-up passes (s) and
/// peak resident set (MiB).
fn end_to_end_of(
    latencies_ms: &[f64],
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let p99 = stats::tail_percentile(latencies_ms, 99)
        .or_else(|| stats::max(latencies_ms))
        .unwrap_or(0.0);
    vec![
        ("throughput_per_s", Run::rate(latencies_ms)),
        ("latency_p50_ms", stats::median(latencies_ms).unwrap_or(0.0)),
        ("latency_p99_ms", p99),
        ("setup_s", stats::median(setup_s).unwrap_or(0.0)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

fn run_workload(args: &Args) -> Result<Run, String> {
    match args.workload.as_str() {
        "fig12-secure" => Ok(fig12::run(fig12::Rows::Secure, args)),
        "fig12-fast" => Ok(fig12::run(fig12::Rows::Fast, args)),
        "serve-mix" => Ok(serve_mix::run(args)),
        other => Err(format!(
            "unknown workload `{other}` (fig12-secure, fig12-fast, serve-mix)"
        )),
    }
}

fn result_json(run: &Run, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.inconsistency.is_none() && run.attempted > 0,
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite values print 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = Instant::now();
    let interval = host::Interval::start();
    let mut run = match run_workload(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (cpu_s, steal_frac) = interval.finish();
    let wall_s = wall.elapsed().as_secs_f64();
    run.notes.push(format!(
        "host: wall_s {wall_s:.3} cpu_s {cpu_s:.3} steal_frac {steal_frac:.4} nproc {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        run.layers.insert("host.steal_frac", steal_frac);
        run.layers.insert("host.cpu_s", cpu_s);
        run.layers.insert("host.wall_s", wall_s);
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, run.layers.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    } else {
        let values = run.end_to_end();
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), (_, value))| (*name, value, *unit))
            .collect()
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    for note in &run.notes {
        println!("  {note}");
    }
    if let Some(problem) = &run.inconsistency {
        println!("  INCONSISTENT: {problem}");
    }
    println!("  ops attempted {} failed {}", run.attempted, run.failed);
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("{}", result_json(&run, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above and `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json = dprle_core::Json::parse(text).expect("BENCHMARK.json parses");
        let obj = json.as_object().expect("object");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = dprle_core::lookup(obj, key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric object");
                    let field = |k| {
                        dprle_core::lookup(m, k)
                            .and_then(dprle_core::Json::as_str)
                            .expect("string field")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv: Vec<String> = "--workload serve-mix --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).expect("parses");
        assert_eq!(args.workload, "serve-mix");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, Duration::from_secs(3));
        assert!(args.trace);
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let run = Run {
            attempted: 3,
            ..Run::default()
        };
        let line = result_json(&run, &[("setup_s", 0.5, "s")]);
        let json = dprle_core::Json::parse(&line).expect("valid JSON");
        let obj = json.as_object().expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
