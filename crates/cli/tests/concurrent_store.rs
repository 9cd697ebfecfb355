//! Multi-tenant guarantees of the shared [`LangStore`] behind
//! `dprle serve`:
//!
//! 1. Concurrent sessions sharing one store produce **byte-identical**
//!    solutions to solo runs — memoization and cross-session reuse
//!    change costs, never answers (PR 1's contract, now under real
//!    thread interleaving).
//! 2. An LRU byte cap (`--store-max-bytes`) only changes hit rates and
//!    eviction counters, never outcomes — even a cap small enough to
//!    evict on every insert.
//! 3. Under a cap, a corpus sweep's **peak** memo footprint (the
//!    `core.store.memo_bytes` gauge's tracked peak, published after
//!    every eviction settles) stays under the cap — the acceptance
//!    criterion for the bounded store.
//! 4. Per-response `stats` are **request-scoped**: a session's counters
//!    cover exactly its own store work, even while another session is
//!    mutating the same store — a request's stats equal those of a solo
//!    twin on a private store (minus wall time).
//! 5. So do a request's embedded ledger and its journal events: each
//!    session's records and `MemoHit`/`MemoMiss` events are its own,
//!    however many sessions share the store.

use dprle_cli::serve::{ServeConfig, SolverService};
use dprle_core::{json_string, lookup, CollectSink, Json, MetricValue, Metrics, TraceEventKind};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

/// A deterministic corpus of distinct programs: sat and unsat, single-
/// and multi-variable, regex- and literal-heavy — enough shape variety
/// that the shared store sees interning, intersection, inclusion, and
/// minimization traffic.
fn corpus() -> Vec<String> {
    let mut programs = Vec::new();
    for i in 0..6 {
        programs.push(format!(
            "var v1; c1 := match(/[\\d]+$/); c2 := \"nid{i}_\"; c3 := match(/'/); \
             v1 <= c1; c2 . v1 <= c3;"
        ));
        programs.push(format!(
            "var v; a := \"x{i}\"; b := \"y{i}\"; v <= a; v <= b;"
        ));
        programs.push(format!(
            "var v w; c := /[a-m]*q{i}/; pre := \"ab\"; pre . v . w <= c;"
        ));
    }
    programs
}

fn service(store_max_bytes: Option<u64>, metrics: Metrics) -> Arc<SolverService> {
    Arc::new(SolverService::new(
        ServeConfig {
            store_max_bytes,
            ..ServeConfig::default()
        },
        metrics,
    ))
}

fn request(id: &str, program: &str) -> String {
    format!(
        "{{\"id\":{},\"input\":{},\"witness\":true}}",
        json_string(id),
        json_string(program)
    )
}

/// The deterministic part of a response, structurally: everything except
/// the fields that legitimately vary run to run — `stats` (hit rates and
/// wall time differ between solo and shared-store runs; that is the
/// point of sharing), the service-assigned `request_id`, the lifecycle
/// `breakdown` timings, and an embedded `ledger` (whose records carry wall
/// times; see [`ledger_without_timing`]). Kind, id, assignment count,
/// solutions, and witnesses must be identical.
fn answer(response: &str) -> Json {
    let Json::Obj(fields) = Json::parse(response).expect("response parses as JSON") else {
        panic!("response is not an object: {response}");
    };
    Json::Obj(
        fields
            .into_iter()
            .filter(|(key, _)| {
                !matches!(
                    key.as_str(),
                    "stats" | "request_id" | "breakdown" | "ledger"
                )
            })
            .collect(),
    )
}

/// A response's `stats` object minus its `wall-us` timing — the
/// deterministic, request-scoped counter set.
fn stats_without_wall(response: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = Json::parse(response).expect("response parses as JSON") else {
        panic!("response is not an object: {response}");
    };
    let Some(Json::Obj(stats)) = lookup(&fields, "stats").cloned() else {
        panic!("response carries no stats object: {response}");
    };
    stats
        .into_iter()
        .filter(|(key, _)| key != "wall-us")
        .collect()
}

/// The service-assigned `request_id` echoed in a response.
fn request_id(response: &str) -> String {
    let Json::Obj(fields) = Json::parse(response).expect("response parses as JSON") else {
        panic!("response is not an object: {response}");
    };
    match lookup(&fields, "request_id") {
        Some(Json::Str(id)) => id.clone(),
        other => panic!("response carries no request_id: {other:?}"),
    }
}

#[test]
fn concurrent_sessions_are_byte_identical_to_solo_runs() {
    let programs = corpus();
    // Solo: each program against its own cold private store.
    let solo: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| service(None, Metrics::disabled()).handle_line(&request(&format!("q{i}"), p)))
        .collect();

    // Shared: every program, twice (the second round hits the warm
    // memo), from 6 threads against one service.
    let shared = service(None, Metrics::disabled());
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let shared = Arc::clone(&shared);
            let programs = programs.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..2 {
                    for (i, p) in programs.iter().enumerate() {
                        // Same thread-count stride the serve queue would
                        // produce: each thread owns a slice, all slices
                        // cover everything across threads.
                        if (i + round) % 3 == t % 3 {
                            out.push((i, shared.handle_line(&request(&format!("q{i}"), p))));
                        }
                    }
                }
                out
            })
        })
        .collect();
    let mut answered = vec![0usize; programs.len()];
    for handle in handles {
        for (i, response) in handle.join().expect("session thread") {
            assert_eq!(
                answer(&response),
                answer(&solo[i]),
                "program {i} diverged under concurrent sharing"
            );
            answered[i] += 1;
        }
    }
    assert!(
        answered.iter().all(|n| *n >= 2),
        "every program was answered at least twice (warm and cold): {answered:?}"
    );
}

#[test]
fn concurrent_sessions_report_disjoint_request_scoped_stats() {
    let programs = corpus();
    // Two programs sharing no literals or regexes: their store keys are
    // disjoint, so neither can warm the other's memo. A request-scoped
    // stats capture must therefore report, for each, exactly the
    // counters of a solo run on a private cold store — under the old
    // global before/after diff, the concurrent neighbor's store traffic
    // bled into both.
    let (a, b) = (&programs[0], &programs[1]);
    let solo_a = service(None, Metrics::disabled()).handle_line(&request("a", a));
    let solo_b = service(None, Metrics::disabled()).handle_line(&request("b", b));

    for round in 0..8 {
        let shared = service(None, Metrics::disabled());
        let barrier = Arc::new(Barrier::new(2));
        let neighbor = {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            let b = b.clone();
            std::thread::spawn(move || {
                barrier.wait();
                (0..4)
                    .map(|_| shared.handle_line(&request("b", &b)))
                    .collect::<Vec<_>>()
            })
        };
        barrier.wait();
        let got_a = shared.handle_line(&request("a", a));
        let got_b = neighbor.join().expect("neighbor session");

        assert_eq!(
            answer(&got_a),
            answer(&solo_a),
            "round {round}: answer diverged"
        );
        assert_eq!(
            stats_without_wall(&got_a),
            stats_without_wall(&solo_a),
            "round {round}: session A's counters absorbed its neighbor's store work"
        );
        // The neighbor's first run is also cold (A never touches B's
        // keys), so its counters match B's solo twin too.
        assert_eq!(
            stats_without_wall(&got_b[0]),
            stats_without_wall(&solo_b),
            "round {round}: session B's cold run diverged from its solo twin"
        );
        // One service, five requests: five distinct request ids.
        let mut ids: Vec<String> = got_b.iter().map(|r| request_id(r)).collect();
        ids.push(request_id(&got_a));
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 5, "round {round}: request ids collided: {ids:?}");
    }
}

/// `n` programs of the motivating example's shape that share no literal
/// and no regex, so no request can warm another's memo slots: each one's
/// store work is the same alone or next to the others.
fn disjoint_programs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "var v1; c1 := match(/[\\d]+x{i}$/); c2 := \"nid{i}_\"; c3 := match(/'z{i}/); \
                 v1 <= c1; c2 . v1 <= c3;"
            )
        })
        .collect()
}

/// A response's embedded `ledger` records with the fields that
/// legitimately differ from a solo twin removed: the `ts_us` wall time and
/// the service-assigned `request_id`.
fn ledger_without_timing(response: &str) -> Vec<Json> {
    let Json::Obj(fields) = Json::parse(response).expect("response parses as JSON") else {
        panic!("response is not an object: {response}");
    };
    let Some(Json::Arr(records)) = lookup(&fields, "ledger").cloned() else {
        panic!("response embeds no ledger: {response}");
    };
    records
        .into_iter()
        .map(|record| match record {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(key, _)| key != "ts_us" && key != "request_id")
                    .collect(),
            ),
            other => panic!("ledger record is not an object: {other:?}"),
        })
        .collect()
}

/// Memo lookups a response's `stats` count: fingerprint and memo-op hits
/// and misses, each of which the journal records as one `MemoHit` or
/// `MemoMiss` event.
fn memo_lookups(response: &str) -> u64 {
    stats_without_wall(response)
        .iter()
        .filter(|(key, _)| {
            matches!(
                key.as_str(),
                "fingerprint-hits" | "fingerprint-misses" | "memo-op-hits" | "memo-op-misses"
            )
        })
        .map(|(_, value)| value.as_u64().expect("counter"))
        .sum()
}

#[test]
fn concurrent_sessions_keep_their_own_ledger_and_journal() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 4;
    let programs = disjoint_programs(THREADS * PER_THREAD);
    let ledgered = |id: &str, program: &str| {
        format!(
            "{{\"id\":{},\"input\":{},\"ledger\":true}}",
            json_string(id),
            json_string(program)
        )
    };
    let solo: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            service(None, Metrics::disabled()).handle_line(&ledgered(&format!("q{i}"), p))
        })
        .collect();
    for (i, response) in solo.iter().enumerate() {
        assert!(
            !ledger_without_timing(response).is_empty() && memo_lookups(response) > 0,
            "program {i} must reach the ledger and the memo: {response}"
        );
    }

    for round in 0..4 {
        let shared = service(None, Metrics::disabled());
        let journal = Arc::new(CollectSink::new());
        shared.set_trace_sink(journal.clone());
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                let programs = programs.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    (t * PER_THREAD..(t + 1) * PER_THREAD)
                        .map(|i| {
                            (
                                i,
                                shared.handle_line(&ledgered(&format!("q{i}"), &programs[i])),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let responses: Vec<(usize, String)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread"))
            .collect();
        let mut memo_events: HashMap<String, u64> = HashMap::new();
        for event in journal.take() {
            if let TraceEventKind::MemoHit { .. } | TraceEventKind::MemoMiss { .. } = event.kind {
                let id = event.request_id.expect("serve journals stamp every event");
                *memo_events.entry(id.to_string()).or_default() += 1;
            }
        }
        for (i, response) in &responses {
            assert_eq!(
                answer(response),
                answer(&solo[*i]),
                "round {round}: program {i}'s answer diverged"
            );
            assert_eq!(
                ledger_without_timing(response),
                ledger_without_timing(&solo[*i]),
                "round {round}: program {i}'s ledger lost records or absorbed a neighbor's"
            );
            let id = request_id(response);
            assert_eq!(
                memo_events.get(&id).copied().unwrap_or(0),
                memo_lookups(response),
                "round {round}: program {i} ({id}) has journal memo events that disagree with its stats"
            );
        }
    }
}

#[test]
fn tiny_cap_eviction_changes_hit_rates_never_outcomes() {
    let programs = corpus();
    let unbounded = service(None, Metrics::disabled());
    // A cap of 1 byte can never retain a memo entry: every insert is
    // immediately evicted, the harshest possible cache pressure.
    let capped = service(Some(1), Metrics::disabled());
    for (i, p) in programs.iter().enumerate() {
        let line = request(&format!("q{i}"), p);
        let free = unbounded.handle_line(&line);
        let tight = capped.handle_line(&line);
        assert_eq!(
            answer(&free),
            answer(&tight),
            "program {i} diverged under eviction"
        );
    }
    let stats = capped.store().stats();
    assert!(stats.evictions > 0, "a 1-byte cap must evict: {stats:?}");
    assert!(
        stats.memo_bytes <= 1,
        "retained bytes over cap: {}",
        stats.memo_bytes
    );
    // The unbounded twin saw the same traffic but kept everything.
    assert_eq!(unbounded.store().stats().evictions, 0);
}

#[test]
fn corpus_sweep_peak_memo_bytes_stays_under_the_cap() {
    let programs = corpus();
    const CAP: u64 = 4 * 1024;

    // Unbounded reference sweep for the answers (and to prove the cap
    // actually binds on this corpus: the free footprint exceeds it).
    let unbounded = service(None, Metrics::disabled());
    let reference: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| unbounded.handle_line(&request(&format!("q{i}"), p)))
        .collect();
    assert!(
        unbounded.store().stats().memo_bytes > CAP,
        "corpus too small to exercise the cap: unbounded footprint {} <= {CAP}",
        unbounded.store().stats().memo_bytes
    );

    // Capped sweep, concurrent, with the metrics registry watching the
    // continuously-published memo-bytes gauge.
    let metrics = Metrics::enabled();
    let capped = service(Some(CAP), metrics.clone());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let capped = Arc::clone(&capped);
            let programs = programs.clone();
            std::thread::spawn(move || {
                programs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 == t)
                    .map(|(i, p)| (i, capped.handle_line(&request(&format!("q{i}"), p))))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for (i, response) in handle.join().expect("sweep thread") {
            assert_eq!(
                answer(&response),
                answer(&reference[i]),
                "program {i}: capped sweep diverged from unbounded"
            );
        }
    }

    let stats = capped.store().stats();
    assert!(
        stats.memo_bytes <= CAP,
        "retained {} > cap {CAP}",
        stats.memo_bytes
    );
    assert!(stats.evictions > 0, "cap never bound");
    let snapshot = metrics.snapshot().expect("metrics enabled");
    let gauge = snapshot
        .entries
        .iter()
        .find(|e| e.name == "core.store.memo_bytes")
        .expect("memo-bytes gauge present");
    match gauge.value {
        MetricValue::Gauge { value, peak } => {
            assert!(
                peak <= CAP,
                "peak memo bytes {peak} exceeded the cap {CAP} mid-sweep"
            );
            assert!(value <= peak, "gauge value {value} above its peak {peak}");
        }
        ref other => panic!("memo-bytes is not a gauge: {other:?}"),
    }
}
