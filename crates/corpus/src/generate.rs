//! Synthetic program generation matching the published shape statistics.
//!
//! The original PHP applications are not redistributable, so each Figure 12
//! row is synthesized as an IR program whose *measured* statistics match
//! the published ones:
//!
//! * `|FG|` — padded to the published basic-block count with concretely
//!   pruned guard blocks (they shape the CFG but cost the solver nothing,
//!   like the bulk of a real PHP file that is irrelevant to one defect);
//! * `|C|` — the vulnerable path carries exactly `|C| − 1` symbolic
//!   conditions (the policy constraint is the final one), spread over the
//!   defect input and auxiliary request parameters;
//! * the `secure` row embeds multi-kilobyte string literals in the query,
//!   reproducing the paper's explanation of its 577 s outlier ("large
//!   string constants are explicitly represented and tracked through state
//!   machine transformations").
//!
//! Every vulnerable program follows the paper's Figure 1 idiom: the defect
//! input passes the *faulty* `/[\d]+$/` filter (missing `^`), is prefixed
//! with a literal, and reaches a `query()` sink.

use crate::spec::{AppSpec, VulnSpec, FIG11_APPS, FIG12_ROWS};
use dprle_lang::{Cfg, Cond, Program, Stmt, StringExpr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic seed salt so corpus generation is reproducible.
const SEED_SALT: u64 = 0x5eed_0001;

/// Generates the vulnerable program for one Figure 12 row.
pub fn vulnerable_program(spec: &VulnSpec) -> Program {
    let mut p = unpadded_program(spec);
    pad_to_blocks(&mut p, spec.fg);
    p
}

/// The vulnerable program for one row before padding: the defect, the
/// auxiliary guards and the query sink.
fn unpadded_program(spec: &VulnSpec) -> Program {
    let mut rng = StdRng::seed_from_u64(SEED_SALT ^ hash_name(spec.name));
    let mut p = Program::new(spec.name);
    let main_input = format!("posted_{}", spec.name);

    // The defect input and its faulty filter (Figure 1 lines 1–5).
    p.stmts.push(Stmt::Assign {
        var: "id".to_owned(),
        value: StringExpr::Input(main_input.clone()),
    });
    p.stmts.push(Stmt::If {
        cond: Cond::PregMatch {
            pattern: "[\\d]+$".to_owned(),
            subject: StringExpr::var("id"),
        }
        .negate(),
        then: vec![
            Stmt::Echo {
                expr: StringExpr::lit("Invalid ID."),
            },
            Stmt::Exit,
        ],
        els: vec![],
    });

    // Auxiliary request parameters carrying the remaining |C| − 2 symbolic
    // conditions (filter + policy account for the other two).
    let aux_conditions = spec.c.saturating_sub(2);
    let num_aux = aux_conditions.clamp(1, 8).min(aux_conditions.max(1));
    for j in 0..aux_conditions {
        let aux = format!("aux_{}", j % num_aux.max(1));
        p.stmts.push(aux_guard(j, &aux));
    }

    // The query sink (Figure 1 lines 6–8). The `secure` row drags large
    // string constants through the constraint system.
    let template_len = if spec.heavy {
        1600
    } else {
        16 + rng.gen_range(0..32)
    };
    let template = sql_template(spec.name, template_len, &mut rng);
    let mut query = StringExpr::Literal(template)
        .concat(StringExpr::lit("nid_"))
        .concat(StringExpr::var("id"));
    if spec.heavy {
        // A second large constant after the tainted value, so the product
        // machines stay large on both sides of the bridge.
        query = query
            .concat(StringExpr::Literal(sql_template("tail", 1200, &mut rng)))
            .concat(StringExpr::lit(" ORDER BY 1"));
    }
    p.stmts.push(Stmt::Query { expr: query });
    p
}

/// One auxiliary condition: alternates between filters that *held* and
/// guards that *failed* (yielding complement constraints), all jointly
/// satisfiable (the single byte `a` passes every combination).
fn aux_guard(index: usize, input: &str) -> Stmt {
    match index % 3 {
        0 => Stmt::If {
            // Held filter: input ends with a lowercase letter.
            cond: Cond::PregMatch {
                pattern: "[a-z]+$".to_owned(),
                subject: StringExpr::input(input),
            }
            .negate(),
            then: vec![Stmt::Exit],
            els: vec![],
        },
        1 => Stmt::If {
            // Failed guard: input must not start with "zz".
            cond: Cond::PregMatch {
                pattern: "^zz".to_owned(),
                subject: StringExpr::input(input),
            },
            then: vec![
                Stmt::Echo {
                    expr: StringExpr::lit("blocked"),
                },
                Stmt::Exit,
            ],
            els: vec![],
        },
        _ => Stmt::If {
            // Held filter: input contains `a` or `c`.
            cond: Cond::PregMatch {
                pattern: "[ac]".to_owned(),
                subject: StringExpr::input(input),
            }
            .negate(),
            then: vec![Stmt::Exit],
            els: vec![],
        },
    }
}

/// A deterministic pseudo-SQL template literal of roughly `len` bytes,
/// free of quotes (the exploit must be the only quote source).
fn sql_template(name: &str, len: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = format!("SELECT * FROM {name} WHERE ").into_bytes();
    let words: [&[u8]; 6] = [b"col", b"val", b"AND ", b"x=", b"1 ", b"key_"];
    while out.len() < len {
        out.extend_from_slice(words[rng.gen_range(0..words.len())]);
    }
    out.push(b'=');
    out
}

/// Inserts concretely pruned guards before the sink until the CFG reaches
/// at least `target` basic blocks.
///
/// The block count never falls as guards are added, so the fewest guards
/// that reach `target` are found by doubling, then bisection: O(log n) CFG
/// builds rather than one per guard.
fn pad_to_blocks(p: &mut Program, target: usize) {
    let sink = p.stmts.pop().expect("program has a sink statement");
    let unpadded = p.stmts.len();
    // Pads `p` with `guards` guards and returns its block count.
    let mut pad = |guards: usize| {
        p.stmts.truncate(unpadded);
        p.stmts.extend((0..guards).flat_map(pad_guard));
        p.stmts.push(sink.clone());
        Cfg::build(p).num_blocks()
    };
    if pad(0) >= target {
        return;
    }
    // Invariant: `short` guards fall short of `target`, `enough` reach it.
    let (mut short, mut enough) = (0, 1);
    while pad(enough) < target {
        short = enough;
        enough *= 2;
    }
    while enough - short > 1 {
        let mid = short + (enough - short) / 2;
        if pad(mid) < target {
            short = mid;
        } else {
            enough = mid;
        }
    }
    pad(enough);
}

/// The `i`th padding guard: it brands a constant, tests it with an
/// always-true concrete match, and exits on the (infeasible) failure arm,
/// adding CFG blocks without adding symbolic paths.
fn pad_guard(i: usize) -> [Stmt; 2] {
    let var = format!("__pad{i}");
    [
        Stmt::Assign {
            var: var.clone(),
            value: StringExpr::lit("ok"),
        },
        Stmt::If {
            cond: Cond::PregMatch {
                pattern: "^ok$".to_owned(),
                subject: StringExpr::Var(var),
            }
            .negate(),
            then: vec![
                Stmt::Echo {
                    expr: StringExpr::lit("unreachable"),
                },
                Stmt::Exit,
            ],
            els: vec![],
        },
    ]
}

/// A benign filler file: correctly anchored filtering before its query, so
/// the analysis reports no finding.
pub fn safe_program(name: &str, statements: usize) -> Program {
    let mut p = Program::new(name);
    p.stmts.push(Stmt::Assign {
        var: "id".to_owned(),
        value: StringExpr::input("page_id"),
    });
    p.stmts.push(Stmt::If {
        cond: Cond::PregMatch {
            pattern: "^[\\d]+$".to_owned(), // properly anchored
            subject: StringExpr::var("id"),
        }
        .negate(),
        then: vec![Stmt::Exit],
        els: vec![],
    });
    for i in 0..statements.saturating_sub(4) {
        p.stmts.push(Stmt::Echo {
            expr: StringExpr::Literal(format!("line {i}").into_bytes()),
        });
    }
    p.stmts.push(Stmt::Query {
        expr: StringExpr::lit("SELECT * FROM pages WHERE id=").concat(StringExpr::var("id")),
    });
    p
}

/// One generated application: the Figure 11 spec plus its synthesized
/// files.
#[derive(Clone, Debug)]
pub struct GeneratedApp {
    /// The published Figure 11 row this app mirrors.
    pub spec: AppSpec,
    /// The synthesized files: vulnerable ones first, then safe fillers.
    pub files: Vec<Program>,
}

impl GeneratedApp {
    /// Total statement count across files (the LOC analog reported by the
    /// Figure 11 table binary).
    pub fn total_statements(&self) -> usize {
        self.files.iter().map(Program::num_statements).sum()
    }

    /// Writes every file as PHP-like source under `dir` (one `.php` file
    /// per program), returning the written paths. The emitted sources
    /// parse back to the same programs (`dprle_lang::parse_php`), so the
    /// corpus can be consumed by the source-level `dprle-analyze` tool.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_sources(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::with_capacity(self.files.len());
        for file in &self.files {
            let path = dir.join(format!("{}.php", file.name));
            std::fs::write(&path, dprle_lang::print_php(file))?;
            out.push(path);
        }
        Ok(out)
    }
}

/// Generates one application from its Figure 11 spec: one vulnerable file
/// per Figure 12 row of that app, plus safe filler files sized so the
/// statement total approximates the published LOC.
pub fn generate_app(spec: &AppSpec) -> GeneratedApp {
    let mut files: Vec<Program> = crate::spec::rows_for_app(spec.name)
        .into_iter()
        .map(vulnerable_program)
        .collect();
    let vulnerable_statements: usize = files.iter().map(Program::num_statements).sum();
    let fillers = spec.files.saturating_sub(files.len());
    if fillers > 0 {
        let remaining = spec.loc.saturating_sub(vulnerable_statements);
        let per_file = remaining.checked_div(fillers).unwrap_or(0).max(5);
        for i in 0..fillers {
            files.push(safe_program(&format!("{}_page{}", spec.name, i), per_file));
        }
    }
    GeneratedApp { spec: *spec, files }
}

/// Generates the full three-application corpus.
pub fn generate_corpus() -> Vec<GeneratedApp> {
    FIG11_APPS.iter().map(generate_app).collect()
}

/// All 17 vulnerable programs in Figure 12 order.
pub fn fig12_programs() -> Vec<(&'static VulnSpec, Program)> {
    FIG12_ROWS
        .iter()
        .map(|spec| (spec, vulnerable_program(spec)))
        .collect()
}

/// Parameters for random program generation (fuzzing the front end).
#[derive(Clone, Debug)]
pub struct RandomProgramConfig {
    /// Maximum statements per block.
    pub max_block_len: usize,
    /// Maximum branch/loop nesting depth.
    pub max_depth: usize,
    /// Number of distinct input parameters to draw from.
    pub num_inputs: usize,
}

impl Default for RandomProgramConfig {
    fn default() -> Self {
        RandomProgramConfig {
            max_block_len: 6,
            max_depth: 3,
            num_inputs: 3,
        }
    }
}

/// Generates a random (but always well-formed) program, deterministic per
/// seed. Used to fuzz the printer/parser round-trip, symbolic execution,
/// and the interpreter.
pub fn random_program(seed: u64, config: &RandomProgramConfig) -> Program {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf022);
    let stmts = random_block(&mut rng, config, config.max_depth);
    Program {
        name: format!("fuzz_{seed}"),
        stmts,
    }
}

fn random_block(rng: &mut StdRng, config: &RandomProgramConfig, depth: usize) -> Vec<Stmt> {
    let n = rng.gen_range(1..=config.max_block_len);
    (0..n).map(|_| random_stmt(rng, config, depth)).collect()
}

fn random_stmt(rng: &mut StdRng, config: &RandomProgramConfig, depth: usize) -> Stmt {
    let choice = if depth == 0 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..6)
    };
    match choice {
        0 => Stmt::Assign {
            var: format!("v{}", rng.gen_range(0..4)),
            value: random_expr(rng, config, 2),
        },
        1 => Stmt::Echo {
            expr: random_expr(rng, config, 2),
        },
        2 => Stmt::Query {
            expr: random_expr(rng, config, 2),
        },
        3 => Stmt::Exit,
        4 => Stmt::If {
            cond: random_cond(rng, config),
            then: random_block(rng, config, depth - 1),
            els: if rng.gen_bool(0.5) {
                Vec::new()
            } else {
                random_block(rng, config, depth - 1)
            },
        },
        _ => Stmt::While {
            cond: random_cond(rng, config),
            body: random_block(rng, config, depth - 1),
        },
    }
}

fn random_expr(rng: &mut StdRng, config: &RandomProgramConfig, depth: usize) -> StringExpr {
    let choice = if depth == 0 {
        rng.gen_range(0..3)
    } else {
        rng.gen_range(0..6)
    };
    match choice {
        0 => StringExpr::Literal(random_literal(rng)),
        1 => StringExpr::Input(format!("in{}", rng.gen_range(0..config.num_inputs))),
        2 => StringExpr::Var(format!("v{}", rng.gen_range(0..4))),
        3 => random_expr(rng, config, depth - 1).concat(random_expr(rng, config, depth - 1)),
        4 => StringExpr::Lower(Box::new(random_expr(rng, config, depth - 1))),
        _ => StringExpr::Upper(Box::new(random_expr(rng, config, depth - 1))),
    }
}

fn random_cond(rng: &mut StdRng, config: &RandomProgramConfig) -> Cond {
    let base = match rng.gen_range(0..3) {
        0 => Cond::PregMatch {
            pattern: ["^[a-z]+$", "[0-9]", "x|y", "a{1,3}b"][rng.gen_range(0..4)].to_owned(),
            subject: random_expr(rng, config, 1),
        },
        1 => Cond::EqualsLiteral {
            subject: random_expr(rng, config, 1),
            literal: random_literal(rng),
        },
        _ => Cond::Opaque(format!("p{}", rng.gen_range(0..3))),
    };
    if rng.gen_bool(0.4) {
        base.negate()
    } else {
        base
    }
}

fn random_literal(rng: &mut StdRng) -> Vec<u8> {
    // A spread of byte shapes: printable, quotes, escapes, high bytes.
    let pool: [&[u8]; 7] = [
        b"abc",
        b"'",
        b"\\",
        b"\"q\"",
        b"\n\t",
        b"\x00\xff",
        b"SELECT *",
    ];
    pool[rng.gen_range(0..pool.len())].to_vec()
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, good enough for seeding.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprle_core::SolveOptions;
    use dprle_lang::symex::SymexOptions;
    use dprle_lang::{analyze, Policy};
    use std::collections::HashMap;

    /// The padding loop `pad_to_blocks` replaced, kept to hold it to the
    /// same programs: it appends one guard at a time and rebuilds the CFG
    /// after each.
    fn pad_one_guard_at_a_time(p: &mut Program, target: usize) {
        let mut i = 0usize;
        while Cfg::build(p).num_blocks() < target {
            let var = format!("__pad{i}");
            let sink = p.stmts.pop().expect("program has a sink statement");
            p.stmts.push(Stmt::Assign {
                var: var.clone(),
                value: StringExpr::lit("ok"),
            });
            p.stmts.push(Stmt::If {
                cond: Cond::PregMatch {
                    pattern: "^ok$".to_owned(),
                    subject: StringExpr::Var(var),
                }
                .negate(),
                then: vec![
                    Stmt::Echo {
                        expr: StringExpr::lit("unreachable"),
                    },
                    Stmt::Exit,
                ],
                els: vec![],
            });
            p.stmts.push(sink);
            i += 1;
        }
    }

    #[test]
    fn padding_matches_the_one_guard_at_a_time_loop() {
        let reference: HashMap<&str, Program> = FIG12_ROWS
            .iter()
            .map(|spec| {
                let mut p = unpadded_program(spec);
                pad_one_guard_at_a_time(&mut p, spec.fg);
                (spec.name, p)
            })
            .collect();
        for spec in FIG12_ROWS.iter() {
            assert_eq!(
                vulnerable_program(spec),
                reference[spec.name],
                "{}",
                spec.name
            );
        }
        // The Figure 11 apps hold the same programs, and size their filler
        // files from them.
        let mut vulnerable = 0;
        for app in generate_corpus() {
            for file in &app.files {
                if let Some(want) = reference.get(file.name.as_str()) {
                    assert_eq!(file, want, "{}", file.name);
                    vulnerable += 1;
                }
            }
        }
        assert_eq!(vulnerable, FIG12_ROWS.len());
    }

    #[test]
    fn fg_targets_are_met() {
        for spec in FIG12_ROWS.iter().filter(|s| !s.heavy).take(3) {
            let p = vulnerable_program(spec);
            let blocks = Cfg::build(&p).num_blocks();
            assert!(
                blocks >= spec.fg && blocks <= spec.fg + 2,
                "{}: |FG| {} vs target {}",
                spec.name,
                blocks,
                spec.fg
            );
        }
    }

    #[test]
    fn constraint_counts_are_met() {
        let spec = &FIG12_ROWS[1]; // utopia/login, |C| = 16
        let p = vulnerable_program(spec);
        let reaches = dprle_lang::explore(&p, &SymexOptions::default()).expect("explores");
        assert_eq!(reaches.len(), 1, "one vulnerable path");
        let (sys, _) = dprle_lang::to_system(&reaches[0], &Policy::sql_quote());
        assert_eq!(sys.num_constraints(), spec.c, "{}", spec.name);
    }

    #[test]
    fn generated_vulnerability_is_exploitable() {
        let spec = &FIG12_ROWS[6]; // warp/ax_help, smallest |C|
        let p = vulnerable_program(spec);
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 1);
        let main = format!("posted_{}", spec.name);
        let exploit = report.findings[0].witnesses.get(&main).expect("witness");
        assert!(exploit.contains(&b'\''));
        assert!(exploit.last().expect("nonempty").is_ascii_digit());
    }

    #[test]
    fn safe_program_has_no_findings() {
        let p = safe_program("filler", 20);
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert!(report.findings.is_empty());
        assert_eq!(report.safe_sinks, 1);
    }

    #[test]
    fn apps_match_fig11_shape() {
        let eve = generate_app(&FIG11_APPS[0]);
        assert_eq!(eve.files.len(), 8);
        // LOC analog within 25% of the published figure.
        let loc = eve.total_statements() as f64;
        assert!(
            (loc - 905.0).abs() / 905.0 < 0.25,
            "eve statement count {loc} vs published 905"
        );
    }

    #[test]
    fn emitted_sources_reparse_to_the_same_programs() {
        for spec in [&FIG12_ROWS[0], &FIG12_ROWS[6]] {
            let p = vulnerable_program(spec);
            let source = dprle_lang::print_php(&p);
            let reparsed = dprle_lang::parse_php(&p.name, &source).expect("emitted source parses");
            assert_eq!(p, reparsed, "{}", spec.name);
        }
        let safe = safe_program("filler", 12);
        let reparsed =
            dprle_lang::parse_php("filler", &dprle_lang::print_php(&safe)).expect("parses");
        assert_eq!(safe, reparsed);
    }

    #[test]
    fn write_sources_creates_php_files() {
        let dir = std::env::temp_dir().join("dprle_corpus_test_eve");
        let _ = std::fs::remove_dir_all(&dir);
        let app = generate_app(&FIG11_APPS[0]);
        let paths = app.write_sources(&dir).expect("writes");
        assert_eq!(paths.len(), app.files.len());
        let text = std::fs::read_to_string(&paths[0]).expect("readable");
        assert!(text.starts_with("<?php"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = vulnerable_program(&FIG12_ROWS[0]);
        let b = vulnerable_program(&FIG12_ROWS[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_row_carries_large_constants() {
        let spec = FIG12_ROWS.iter().find(|s| s.heavy).expect("secure row");
        let p = vulnerable_program(spec);
        // Find the query literal size.
        fn max_literal(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Query { expr } | Stmt::Echo { expr } => expr_max_literal(expr),
                    Stmt::Assign { value, .. } => expr_max_literal(value),
                    Stmt::If { then, els, .. } => max_literal(then).max(max_literal(els)),
                    Stmt::While { body, .. } => max_literal(body),
                    Stmt::Exit => 0,
                })
                .max()
                .unwrap_or(0)
        }
        fn expr_max_literal(e: &StringExpr) -> usize {
            match e {
                StringExpr::Literal(bytes) => bytes.len(),
                StringExpr::Concat(parts) => parts.iter().map(expr_max_literal).max().unwrap_or(0),
                _ => 0,
            }
        }
        assert!(max_literal(&p.stmts) >= 1500);
    }
}
