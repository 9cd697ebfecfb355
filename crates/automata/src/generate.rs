//! Random machine generation for property testing and scaling studies.
//!
//! The benchmark harness sweeps machine size `Q` to validate the paper's
//! §3.5 state-space complexity bounds, and the property-test suites exercise
//! the algebra of machine operations on random instances; both need
//! reproducible random automata, produced here from explicit seeds.

use crate::byteclass::ByteClass;
use crate::nfa::Nfa;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random NFA generation.
#[derive(Clone, Debug)]
pub struct RandomNfaConfig {
    /// Number of states (≥ 1).
    pub states: usize,
    /// Expected number of byte-class edges per state.
    pub edges_per_state: f64,
    /// Expected number of epsilon edges per state.
    pub eps_per_state: f64,
    /// Bytes the generated transition classes draw from.
    pub alphabet: Vec<u8>,
    /// Probability that a non-start state is final.
    pub final_probability: f64,
}

impl Default for RandomNfaConfig {
    fn default() -> Self {
        RandomNfaConfig {
            states: 8,
            edges_per_state: 2.0,
            eps_per_state: 0.3,
            alphabet: vec![b'a', b'b', b'c'],
            final_probability: 0.2,
        }
    }
}

/// Generates a random NFA from `seed`. Deterministic per seed/config pair.
///
/// At least one state is made final, so generated languages are nonempty
/// *as machines*; the language itself may still be empty if finals are
/// unreachable — callers that need a nonempty language should use
/// [`random_nonempty_nfa`].
pub fn random_nfa(seed: u64, config: &RandomNfaConfig) -> Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.states.max(1);
    let mut m = Nfa::new();
    let mut ids = vec![m.start()];
    for _ in 1..n {
        ids.push(m.add_state());
    }
    for &from in &ids {
        let n_edges = poissonish(&mut rng, config.edges_per_state);
        for _ in 0..n_edges {
            let to = ids[rng.gen_range(0..n)];
            let class = random_class(&mut rng, &config.alphabet);
            if !class.is_empty() {
                m.add_edge(from, class, to);
            }
        }
        let n_eps = poissonish(&mut rng, config.eps_per_state);
        for _ in 0..n_eps {
            let to = ids[rng.gen_range(0..n)];
            m.add_eps(from, to);
        }
    }
    let mut any_final = false;
    for &q in &ids {
        if rng.gen_bool(config.final_probability) {
            m.add_final(q);
            any_final = true;
        }
    }
    if !any_final {
        m.add_final(ids[rng.gen_range(0..n)]);
    }
    m
}

/// Generates a random NFA whose language is guaranteed nonempty, by retrying
/// seeds derived from `seed` until one has a reachable final state.
pub fn random_nonempty_nfa(seed: u64, config: &RandomNfaConfig) -> Nfa {
    for attempt in 0..u64::MAX {
        let m = random_nfa(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(attempt),
            config,
        );
        if !m.is_empty_language() {
            return m;
        }
    }
    unreachable!("some random machine has a nonempty language")
}

/// A "string-constant-like" machine: a long literal with optional loops,
/// mimicking the large constants the paper's prototype tracked through its
/// transformations (the source of the `secure` outlier in Figure 12).
pub fn random_literal_chain(seed: u64, len: usize, alphabet: &[u8]) -> Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    let word: Vec<u8> = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len().max(1))])
        .collect();
    Nfa::literal(&word)
}

/// Every 2-state machine over the one-letter alphabet {a}: each of the 4
/// ordered state pairs may carry an `a`-edge and/or an ε-edge, and each
/// state may be final. Start is state 0. That is 2^8 × 4 = 1024 machines,
/// small enough to test exhaustively rather than by sampling.
pub fn two_state_unary_machines() -> Vec<Nfa> {
    let mut out = Vec::new();
    let pairs = [(0usize, 0usize), (0, 1), (1, 0), (1, 1)];
    for edge_mask in 0u32..16 {
        for eps_mask in 0u32..16 {
            for final_mask in 0u32..4 {
                let mut m = Nfa::new();
                let s1 = m.add_state();
                let ids = [m.start(), s1];
                for (i, &(f, t)) in pairs.iter().enumerate() {
                    if edge_mask & (1 << i) != 0 {
                        m.add_edge(ids[f], ByteClass::singleton(b'a'), ids[t]);
                    }
                    if eps_mask & (1 << i) != 0 {
                        m.add_eps(ids[f], ids[t]);
                    }
                }
                for (i, &id) in ids.iter().enumerate() {
                    if final_mask & (1 << i) != 0 {
                        m.add_final(id);
                    }
                }
                out.push(m);
            }
        }
    }
    out
}

fn poissonish(rng: &mut StdRng, mean: f64) -> usize {
    // Cheap discrete approximation: floor(mean) plus a Bernoulli for the
    // fractional part; adequate for test-input shaping.
    let base = mean.floor() as usize;
    let frac = mean - mean.floor();
    base + usize::from(rng.gen_bool(frac.clamp(0.0, 1.0)))
}

fn random_class(rng: &mut StdRng, alphabet: &[u8]) -> ByteClass {
    let mut c = ByteClass::EMPTY;
    if alphabet.is_empty() {
        return c;
    }
    // Mostly singletons; occasionally multi-byte classes.
    let k = if rng.gen_bool(0.8) {
        1
    } else {
        rng.gen_range(1..=alphabet.len())
    };
    for _ in 0..k {
        c.insert(alphabet[rng.gen_range(0..alphabet.len())]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomNfaConfig::default();
        let a = random_nfa(42, &cfg);
        let b = random_nfa(42, &cfg);
        assert_eq!(a, b);
        let c = random_nfa(43, &cfg);
        assert!(a != c || a.num_states() == c.num_states());
    }

    #[test]
    fn respects_state_count() {
        let cfg = RandomNfaConfig {
            states: 17,
            ..Default::default()
        };
        assert_eq!(random_nfa(1, &cfg).num_states(), 17);
        let tiny = RandomNfaConfig {
            states: 0,
            ..Default::default()
        };
        assert_eq!(random_nfa(1, &tiny).num_states(), 1);
    }

    #[test]
    fn nonempty_generator_is_nonempty() {
        let cfg = RandomNfaConfig {
            final_probability: 0.05,
            ..Default::default()
        };
        for seed in 0..20 {
            assert!(!random_nonempty_nfa(seed, &cfg).is_empty_language());
        }
    }

    #[test]
    fn alphabet_is_respected() {
        let cfg = RandomNfaConfig {
            alphabet: vec![b'x'],
            ..Default::default()
        };
        let m = random_nfa(7, &cfg);
        for (_, class, _) in m.edges() {
            for b in class.iter() {
                assert_eq!(b, b'x');
            }
        }
    }

    #[test]
    fn literal_chain_is_single_word() {
        let m = random_literal_chain(3, 10, b"ab");
        assert_eq!(m.num_states(), 11);
        let w = m.shortest_member().expect("literal chain nonempty");
        assert_eq!(w.len(), 10);
        assert!(m.contains(&w));
    }
}
