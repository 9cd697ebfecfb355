//! # dprle-lang
//!
//! The program-analysis front end of the DPRLE reproduction: a PHP-like
//! string IR, control-flow graphs, path-sensitive symbolic execution, and a
//! SQL-injection analysis that phrases each query sink as a DPRLE
//! constraint system and solves it for concrete exploit inputs — the role
//! the paper's Wassermann–Su-based prototype plays in its §4 evaluation.
//!
//! ## Pipeline
//!
//! ```text
//! Program (ast) ──► Cfg (|FG| metric)
//!        │
//!        └──► symex::explore ──► SinkReach* ──► analysis::to_system (|C|)
//!                                                    │
//!                                              dprle_core::solve
//!                                                    │
//!                                       Finding { exploit witnesses }
//! ```
//!
//! ## Example
//!
//! ```
//! use dprle_lang::{analyze, Policy, Program};
//! use dprle_lang::symex::SymexOptions;
//! use dprle_core::SolveOptions;
//!
//! let report = analyze(
//!     &Program::figure1(),                // the paper's vulnerable fragment
//!     &Policy::sql_quote(),
//!     &SymexOptions::default(),
//!     &SolveOptions::default(),
//! )?;
//! let exploit = &report.findings[0].witnesses["posted_newsid"];
//! assert!(exploit.contains(&b'\''));
//! # Ok::<(), dprle_lang::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod cfg;
pub mod interp;
pub mod php;
pub mod slice;
pub mod symex;

pub use analysis::{
    analyze, analyze_reach, analyze_sinks, build_system, to_system, try_analyze_reach,
    AnalysisError, AnalysisReport, Finding, GeneratedSystem, InputBinding, Policy,
};
pub use ast::{Cond, Program, Stmt, StringExpr};
pub use cfg::{BlockId, Cfg};
pub use interp::{run, run_with_oracle, InterpError, RunResult};
pub use php::{parse_php, print_php, ParsePhpError};
pub use slice::{slice_for_sink, Slice, SliceLine};
pub use symex::{explore, SinkKind, SinkReach, SymValue, SymexError, SymexOptions};

/// The solver crate whose [`System`](dprle_core::System) the front end
/// builds, re-exported so that a crate holding this front end's systems
/// under another build of `dprle-core` (its own unit tests) can name
/// their types.
pub use dprle_core;
