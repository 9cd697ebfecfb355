//! Soak test: hammer the solver with random constraint systems and check
//! soundness (every returned assignment satisfies its system) plus
//! agreement between solver modes.
//!
//! ```text
//! solver-fuzz [N_SYSTEMS] [SEED_OFFSET]     (defaults: 200, 0)
//! ```
//!
//! Exits nonzero on the first discrepancy, printing the offending system
//! so it can be minimized into a regression test.

use dprle_core::{satisfies_system, solve, Solution, SolveOptions};
use dprle_corpus::scaling::{random_system, RandomSystemConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let offset: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);

    let configs = [
        RandomSystemConfig {
            vars: 2,
            subset_constraints: 2,
            concat_constraints: 1,
            machine_states: 4,
        },
        RandomSystemConfig {
            vars: 3,
            subset_constraints: 3,
            concat_constraints: 2,
            machine_states: 4,
        },
        RandomSystemConfig {
            vars: 3,
            subset_constraints: 1,
            concat_constraints: 3,
            machine_states: 3,
        },
    ];

    let mut sat = 0usize;
    let mut unsat = 0usize;
    let mut assignments = 0usize;
    for i in 0..n {
        let seed = offset + i;
        let config = &configs[(i % configs.len() as u64) as usize];
        let sys = random_system(seed, config);

        // Mode 1: defaults with verification off, so that the external
        // `satisfies_system` check below, not the filter, catches an
        // unsound answer.
        let options = SolveOptions {
            verify: false,
            ..Default::default()
        };
        let solution = solve(&sys, &options);
        for a in solution.assignments() {
            if !satisfies_system(&sys, a) {
                eprintln!("UNSOUND assignment for seed {seed}:\n{sys}");
                std::process::exit(1);
            }
        }

        // Mode 2: quotient stripping must agree on satisfiability.
        let stripped = SolveOptions {
            strip_constant_operands: true,
            ..Default::default()
        };
        let agree = solve(&sys, &stripped);
        // Enumerate mode may be incomplete for multi-string constants, so
        // the only hard requirement is: if default says sat, stripped must
        // too (stripping is strictly more complete on these systems).
        if matches!(solution, Solution::Assignments(_)) && !agree.is_sat() {
            eprintln!("MODE DISAGREEMENT for seed {seed} (default sat, stripped unsat):\n{sys}");
            std::process::exit(1);
        }

        match solution {
            Solution::Assignments(list) => {
                sat += 1;
                assignments += list.len();
            }
            Solution::Unsat => unsat += 1,
        }
    }
    println!(
        "fuzzed {n} systems: {sat} sat ({assignments} assignments), {unsat} unsat — all sound"
    );
}
