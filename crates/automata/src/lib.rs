//! # dprle-automata
//!
//! The finite-automata substrate for the DPRLE decision procedure
//! (Hooimeijer & Weimer, *A Decision Procedure for Subset Constraints over
//! Regular Languages*, PLDI 2009).
//!
//! Everything the decision procedure manipulates is an epsilon-NFA over the
//! byte alphabet with [`ByteClass`] (set-of-bytes) transition labels:
//!
//! * [`Nfa`] — the machine representation, with simulation, trimming,
//!   witness extraction, and the paper's `induce_from_final` /
//!   `induce_from_start` slicing primitives.
//! * [`ops`] — concatenation (reporting the epsilon *bridge* the CI
//!   algorithm slices at), union, Kleene closures, and the cross-product
//!   intersection (reporting operand-state provenance for every product
//!   state).
//! * [`dfa`] — subset construction, complement, language inclusion and
//!   equivalence (the `⊆` judgments of the constraint language).
//! * [`inclusion`] — the antichain-based lazy subset construction behind
//!   every `⊆` judgment whose right-hand side has no canonical key, and
//!   the product walk against a key's complement for one that has, both
//!   with budget hooks inside their loops.
//! * [`minimize`](mod@minimize) — DFA minimization (the optimization the
//!   paper suggests for its Figure 12 `secure` outlier), and canonical
//!   keys that decode back into the minimal DFA and its complement.
//! * [`lang`] — cheap-to-clone interned language handles ([`Lang`]) with
//!   cached canonical fingerprints, and the memoizing [`LangStore`] the
//!   solver shares across worklist branches.
//! * [`quotient`] — existential and universal left/right quotients, used by
//!   the solver when concatenation operands are constants.
//! * [`metrics`] — the sharded, zero-cost-when-disabled metrics registry
//!   ([`Metrics`]) the solver layers resource budgets on top of.
//! * [`dot`] — Graphviz export for regenerating paper-style machine figures.
//! * [`generate`] — seeded random machines for property tests and the
//!   complexity benchmarks.
//!
//! ## Example
//!
//! Build `(c1 · c2) ∩ c3` — the intermediate machine `M₅` of the paper's
//! Figure 4 — and extract a witness:
//!
//! ```
//! use dprle_automata::{Nfa, ops};
//!
//! let c1 = Nfa::literal(b"nid_");                       // string constant
//! let c2 = ops::concat(&Nfa::sigma_star(),
//!                      &Nfa::class((b'0'..=b'9').collect())).nfa; // Σ*[0-9]
//! let quote = ops::concat(&ops::concat(&Nfa::sigma_star(),
//!                                      &Nfa::literal(b"'")).nfa,
//!                         &Nfa::sigma_star()).nfa;      // Σ*'Σ*
//! let m4 = ops::concat(&c1, &c2).nfa;
//! let m5 = ops::intersect(&m4, &quote).nfa.trim().0;
//! let exploit = m5.shortest_member().expect("vulnerable");
//! assert!(exploit.starts_with(b"nid_"));
//! assert!(exploit.contains(&b'\''));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod byteclass;
pub mod dfa;
pub mod dot;
pub mod generate;
pub mod homomorphism;
pub mod inclusion;
pub mod lang;
pub mod metrics;
pub mod minimize;
pub mod nfa;
pub mod ops;
pub mod quotient;
mod subset;

pub use analysis::{is_finite, language_size, members, LanguageSize};
pub use byteclass::ByteClass;
pub use dfa::{
    complement, determinize, determinize_counted, equivalent, inclusion_counterexample, is_subset,
    try_complement, DeterminizeCost, Dfa,
};
pub use homomorphism::ByteMap;
pub use inclusion::{InclusionAbort, InclusionCost, InclusionLimits};
pub use lang::{
    FingerprintCost, InclusionQuery, Lang, LangStore, StoreObserver, StoreOp, StoreScope,
    StoreScopeGuard, StoreStats,
};
pub use metrics::{MetricEntry, MetricValue, Metrics, MetricsSnapshot};
pub use minimize::{
    canonical_key, canonical_key_counted, minimize, minimize_counted, minimize_dfa, CanonicalKey,
};
pub use nfa::{Nfa, State, StateId};
