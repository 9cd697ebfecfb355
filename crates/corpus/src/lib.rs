//! # dprle-corpus
//!
//! Synthetic evaluation corpus mirroring the PLDI 2009 data set.
//!
//! The paper evaluates on three PHP applications (Figure 11) with 17
//! SQL-injection defect reports (Figure 12). Those applications are not
//! redistributable, so this crate synthesizes IR programs whose *measured*
//! statistics — basic-block count `|FG|`, constraint count `|C|`, file and
//! LOC counts, and the presence of one pathological large-constant case —
//! match the published rows. See `DESIGN.md` ("substitutions") at the
//! repository root for the full rationale.
//!
//! * [`spec`] — the published Figure 11/12 numbers as data.
//! * [`generate`] — deterministic program synthesis for each row.
//! * [`scaling`] — parametric workloads for the §3.5 complexity benches
//!   and random systems for solver fuzzing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod scaling;
pub mod spec;

pub use generate::{
    fig12_programs, generate_app, generate_corpus, random_program, safe_program,
    vulnerable_program, GeneratedApp, RandomProgramConfig,
};
pub use spec::{rows_for_app, AppSpec, VulnSpec, FIG11_APPS, FIG12_ROWS};

/// The front end the generated programs are built with, so a caller can
/// name their types and print them with the same `dprle_lang` build.
pub use dprle_lang;
