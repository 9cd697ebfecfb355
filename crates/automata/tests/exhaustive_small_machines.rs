//! Exhaustive testing over *all* small machines: every two-state NFA over
//! a one-letter (plus epsilon) alphabet. Property tests sample; these
//! enumerate — any systematic defect in determinization, minimization,
//! complementation, or the language predicates on small machines is caught
//! unconditionally.

use dprle_automata::generate::two_state_unary_machines;
use dprle_automata::{
    canonical_key, complement, determinize, equivalent, is_subset, minimize, ops, Nfa, StateId,
};

const A: &[u8] = b"a";
const DEPTH: usize = 6;

#[test]
fn determinize_minimize_complement_agree_on_all_small_machines() {
    for (i, m) in two_state_unary_machines().iter().enumerate() {
        let reference = m.enumerate_upto(A, DEPTH);
        // Determinization preserves the language.
        let d = determinize(m).to_nfa();
        assert_eq!(d.enumerate_upto(A, DEPTH), reference, "determinize #{i}");
        // Minimization preserves the language.
        let min = minimize(m);
        assert_eq!(min.enumerate_upto(A, DEPTH), reference, "minimize #{i}");
        // Complement flips membership for each word.
        let c = complement(m);
        for n in 0..=DEPTH {
            let w = vec![b'a'; n];
            assert_eq!(m.contains(&w), !c.contains(&w), "complement #{i} on a^{n}");
        }
        // Emptiness agrees with enumeration.
        assert_eq!(
            m.is_empty_language(),
            reference.is_empty() && deep_empty(m),
            "#{i}"
        );
    }
}

/// For a unary 2-state machine, any nonempty language has a word of length
/// ≤ 2 (pumping at machine size), so the bounded enumeration is decisive.
fn deep_empty(m: &Nfa) -> bool {
    m.enumerate_upto(A, 2).is_empty()
}

#[test]
fn canonical_keys_partition_all_small_machines() {
    let machines = two_state_unary_machines();
    // Group by canonical key; within a group all must be equivalent, and
    // spot-check across groups for inequivalence.
    use std::collections::HashMap;
    let mut groups: HashMap<_, Vec<usize>> = HashMap::new();
    for (i, m) in machines.iter().enumerate() {
        groups.entry(canonical_key(m)).or_default().push(i);
    }
    // Unary languages recognized by 2-state NFAs are few; the partition
    // must be drastically coarser than the machine count.
    assert!(
        groups.len() < 40,
        "only {} distinct languages",
        groups.len()
    );
    for members in groups.values() {
        let first = &machines[members[0]];
        for &j in &members[1..] {
            assert!(
                equivalent(first, &machines[j]),
                "same key must mean same language ({} vs {j})",
                members[0]
            );
        }
    }
    // Distinct keys disagree on some short word (pumping bound).
    let keys: Vec<_> = groups.iter().take(8).collect();
    for (i, (_, a)) in keys.iter().enumerate() {
        for (_, b) in keys.iter().skip(i + 1) {
            let (ma, mb) = (&machines[a[0]], &machines[b[0]]);
            assert!(!equivalent(ma, mb), "distinct keys, same language");
        }
    }
}

#[test]
fn union_and_intersection_algebra_on_sampled_pairs() {
    let machines = two_state_unary_machines();
    // Sample a deterministic spread of pairs (full cross product is 1M).
    for i in (0..machines.len()).step_by(97) {
        for j in (0..machines.len()).step_by(131) {
            let (a, b) = (&machines[i], &machines[j]);
            let u = ops::union(a, b);
            let n = ops::intersect(a, b).nfa;
            for len in 0..=4usize {
                let w = vec![b'a'; len];
                assert_eq!(
                    u.contains(&w),
                    a.contains(&w) || b.contains(&w),
                    "{i},{j} union a^{len}"
                );
                assert_eq!(
                    n.contains(&w),
                    a.contains(&w) && b.contains(&w),
                    "{i},{j} inter a^{len}"
                );
            }
            // De Morgan on machines: ¬(A ∪ B) ≡ ¬A ∩ ¬B.
            if i % 485 == 0 && j % 655 == 0 {
                let lhs = complement(&u);
                let rhs = ops::intersect(&complement(a), &complement(b)).nfa;
                assert!(equivalent(&lhs, &rhs), "{i},{j} De Morgan");
            }
        }
    }
}

#[test]
fn inclusion_is_a_partial_order_on_sampled_machines() {
    let machines = two_state_unary_machines();
    let sample: Vec<&Nfa> = machines.iter().step_by(53).collect();
    for a in &sample {
        assert!(is_subset(a, a), "reflexive");
    }
    for a in &sample {
        for b in &sample {
            if is_subset(a, b) && is_subset(b, a) {
                assert!(equivalent(a, b), "antisymmetric");
            }
        }
    }
    // Transitivity on a deterministic triple sample.
    for (x, a) in sample.iter().enumerate().step_by(3) {
        for (y, b) in sample.iter().enumerate().step_by(4) {
            for (z, c) in sample.iter().enumerate().step_by(5) {
                if is_subset(a, b) && is_subset(b, c) {
                    assert!(is_subset(a, c), "transitive {x},{y},{z}");
                }
            }
        }
    }
}

#[test]
fn trim_never_changes_language_on_all_small_machines() {
    for (i, m) in two_state_unary_machines().iter().enumerate() {
        let (t, _) = m.trim();
        assert_eq!(
            t.enumerate_upto(A, DEPTH),
            m.enumerate_upto(A, DEPTH),
            "trim #{i}"
        );
        assert!(t.num_states() <= m.num_states());
    }
}

#[test]
fn induce_slices_relate_to_paths() {
    // For every machine and every state q: induce_from_final(q) ·
    // induce_from_start(q) ⊆ L whenever q is reachable and co-reachable —
    // the waypoint property the CI proof leans on (any accepted word
    // passing through q splits there).
    for (i, m) in two_state_unary_machines().iter().enumerate().step_by(7) {
        for q in [StateId(0), StateId(1)] {
            let to_q = m.induce_from_final(q);
            let from_q = m.induce_from_start(q);
            if to_q.is_empty_language() || from_q.is_empty_language() {
                continue;
            }
            let through = ops::concat(&to_q, &from_q).nfa;
            assert!(
                is_subset(&through, m),
                "machine #{i}, waypoint {q}: split words must be accepted"
            );
        }
    }
}
