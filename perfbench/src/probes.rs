//! The traced run's two extra measurements. Neither is gated.
//!
//! * Parallel: `corpus::scaling::multi_group_system` solved at jobs 1 and
//!   at jobs 2 — the data for keeping or deleting branch parallelism. No
//!   fig12 row has more than one branch, so no end-to-end workload runs
//!   above jobs 1; this probe is the only place two threads are busy.
//! * Transport: a short pass of the `serve-mix` stream through the real
//!   `dprle serve` binary over stdio, reporting each client round trip
//!   minus the response's own `wall-us`.

use crate::host::Interval;
use crate::serve_mix::{Stream, STORE_CAP_BYTES};
use crate::{stats, Run};
use dprle_automata::LangStore;
use dprle_core::{lookup, solve_with_store, Json, SolveOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Solves per leg of the parallel probe (≈0.4 s each at jobs 1).
const PARALLEL_SOLVES: usize = 3;

/// Shape of the probe's system: groups × disjuncts per group.
const PARALLEL_SHAPE: (usize, usize) = (4, 3);

/// Requests the transport probe sends.
const TRANSPORT_REQUESTS: usize = 300;

/// Runs both probes and records their metrics.
pub fn run_all(seed: u64, run: &mut Run) {
    let parallel = parallel();
    run.layers.insert("parallel.speedup_j2", parallel.speedup);
    run.layers
        .insert("parallel.cpu_ratio_j2", parallel.cpu_ratio);
    run.layers
        .insert("parallel.steal_frac_j1", parallel.steal_j1);
    run.layers
        .insert("parallel.steal_frac_j2", parallel.steal_j2);
    match transport(seed) {
        Ok(us) => {
            run.layers.insert("serve.transport.p50_us", us);
        }
        Err(e) => run.notes.push(format!("transport probe skipped: {e}")),
    }
}

/// The parallel probe's readings.
#[derive(Debug)]
pub struct Parallel {
    /// Wall time at jobs 1 over wall time at jobs 2.
    pub speedup: f64,
    /// CPU time at jobs 2 over CPU time at jobs 1.
    pub cpu_ratio: f64,
    /// Host steal share during the jobs-1 leg.
    pub steal_j1: f64,
    /// Host steal share during the jobs-2 leg.
    pub steal_j2: f64,
}

/// Solves the multi-group system [`PARALLEL_SOLVES`] times per leg, each
/// time rebuilt with a fresh store so no fingerprint cache carries over.
pub fn parallel() -> Parallel {
    let leg = |jobs: usize| {
        let options = SolveOptions {
            jobs,
            ..SolveOptions::default()
        };
        let interval = Interval::start();
        let started = Instant::now();
        for _ in 0..PARALLEL_SOLVES {
            let system =
                dprle_corpus::scaling::multi_group_system(PARALLEL_SHAPE.0, PARALLEL_SHAPE.1);
            let (solution, _) = solve_with_store(&system, &options, &LangStore::new());
            std::hint::black_box(solution);
        }
        let wall = started.elapsed().as_secs_f64();
        let (cpu, steal) = interval.finish();
        (wall, cpu, steal)
    };
    let (wall1, cpu1, steal_j1) = leg(1);
    let (wall2, cpu2, steal_j2) = leg(2);
    Parallel {
        speedup: wall1 / wall2,
        cpu_ratio: if cpu1 > 0.0 { cpu2 / cpu1 } else { 0.0 },
        steal_j1,
        steal_j2,
    }
}

/// The `dprle` binary built next to this one.
fn dprle_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    // Next to the bench binary, or one level up from a test binary in
    // `deps/`.
    [dir.join("dprle"), dir.join("../dprle")]
        .into_iter()
        .find(|p| p.is_file())
        .ok_or_else(|| format!("no dprle binary next to {}", exe.display()))
}

/// Median client round trip minus the response's `wall-us`, µs.
pub fn transport(seed: u64) -> Result<f64, String> {
    let mut child = Command::new(dprle_binary()?)
        .args([
            "serve",
            "--sessions",
            "1",
            "--jobs",
            "1",
            "--store-max-bytes",
        ])
        .arg(STORE_CAP_BYTES.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn dprle serve: {e}"))?;
    let mut stdin = child.stdin.take().ok_or("no stdin pipe")?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("no stdout pipe")?);
    let mut stream = Stream::new(seed);
    let mut overhead_us = Vec::with_capacity(TRANSPORT_REQUESTS);
    let mut failure = None;
    for _ in 0..TRANSPORT_REQUESTS {
        let request = stream.next_request();
        let mut response = String::new();
        let started = Instant::now();
        let sent = writeln!(stdin, "{}", request.line).and_then(|()| stdin.flush());
        let read = sent.and_then(|()| stdout.read_line(&mut response));
        let rtt_us = started.elapsed().as_secs_f64() * 1e6;
        match (read, wall_us(&response)) {
            (Ok(n), Some(wall)) if n > 0 => overhead_us.push(rtt_us - wall as f64),
            (Err(e), _) => {
                failure = Some(format!("pipe: {e}"));
                break;
            }
            _ => {
                failure = Some(format!("unreadable response `{}`", response.trim()));
                break;
            }
        }
    }
    // Closing stdin is the service's drain signal; wait for it to exit.
    drop(stdin);
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if let Some(failure) = failure {
        return Err(failure);
    }
    if !status.success() {
        return Err(format!("dprle serve exited with {status}"));
    }
    stats::median(&overhead_us).ok_or_else(|| "no responses".to_owned())
}

fn wall_us(response: &str) -> Option<u64> {
    let json = Json::parse(response.trim()).ok()?;
    let breakdown = lookup(json.as_object()?, "breakdown")?.as_object()?;
    lookup(breakdown, "wall-us")?.as_u64()
}
