//! Install-time static analysis for AAScript handlers (`aalint`).
//!
//! RBAY admits untrusted handler scripts onto every federated node; a
//! typo'd handler name, an undefined global, or a handler that always
//! exhausts its budget is otherwise discovered only at invocation time,
//! where a runtime error silently *denies* the request. This module family
//! verifies scripts at install time instead:
//!
//! * [`mod@cfg`] — basic-block CFGs recovered from compiled bytecode;
//! * [`dataflow`] — forward definite-initialization analyses for register
//!   slots and globals;
//! * [`cost`] — abstract-interpretation worst-case instruction-cost
//!   bounds, compared against the host's budget;
//! * [`lints`] — AST-level lints (handler-name typos, stdlib misuse,
//!   global hygiene);
//! * [`diag`] — the structured, spanned diagnostics everything emits.
//!
//! Entry point: [`analyze`] (or [`crate::Script::analyze`]). The analyzer
//! never rejects anything itself — hosts enforce policy over the returned
//! diagnostics, keeping admission checks O(script), not O(network).
//!
//! The lint catalog (`AA001`–`AA009`) is documented in DESIGN.md §11.

pub mod cfg;
pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod lints;

pub use diag::{has_errors, Diagnostic, LintId, Severity};

use crate::ast::Block;
use crate::compile::{Chunk, Op};
use crate::error::Pos;
use std::collections::{HashMap, HashSet};

/// Configuration for one analysis run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// The instruction budget handlers will run under. When set, handlers
    /// whose worst-case cost provably exceeds it get the `AA007` error;
    /// "possibly unbounded" (`AA008`) warnings are emitted either way.
    pub budget: Option<u64>,
    /// Globals the host environment defines before handlers run (e.g.
    /// `now_ms`, `attrs`, `sha1hex`, or anything injected via
    /// `set_global`). Reads of these are never flagged.
    pub externs: Vec<String>,
}

impl LintOptions {
    /// Options with a budget and no host externs.
    pub fn with_budget(budget: u64) -> Self {
        LintOptions {
            budget: Some(budget),
            externs: Vec::new(),
        }
    }
}

/// Ops the compiler emits as scaffolding (implicit returns, arm-exit
/// jumps): an unreachable group made only of these is not user code.
fn is_artifact(op: &Op) -> bool {
    matches!(
        op,
        Op::Jump(_)
            | Op::Nil
            | Op::True
            | Op::False
            | Op::Const(_)
            | Op::Pop
            | Op::Return
            | Op::IterEnd
    )
}

/// AA006: statements no execution path reaches (e.g. code after an
/// `if`/`else` where both arms return).
fn unreachable_code(proto: &crate::compile::Proto, g: &cfg::Cfg) -> Vec<Diagnostic> {
    let reach = g.reachable();
    // Group op indices by source position; a position is reported when it
    // has unreachable ops, none reachable, and at least one real
    // (non-scaffolding) op.
    let mut reachable_pos: HashSet<(u32, u32)> = HashSet::new();
    let mut dead: HashMap<(u32, u32), (Pos, bool)> = HashMap::new();
    for (bi, b) in g.blocks.iter().enumerate() {
        for i in b.lo..b.hi {
            let pos = proto.lines[i];
            if pos.line == 0 {
                continue; // no statement attribution (implicit code)
            }
            let key = (pos.line, pos.col);
            if reach[bi] {
                reachable_pos.insert(key);
            } else {
                let e = dead.entry(key).or_insert((pos, false));
                e.1 |= !is_artifact(&proto.code[i]);
            }
        }
    }
    let mut diags: Vec<Diagnostic> = dead
        .into_iter()
        .filter(|(key, (_, real))| *real && !reachable_pos.contains(key))
        .map(|(_, (pos, _))| {
            Diagnostic::warning(
                LintId::UnreachableCode,
                pos,
                "unreachable code: every path before this statement returns".to_string(),
            )
        })
        .collect();
    diags.sort_by_key(|d| (d.pos.line, d.pos.col));
    diags
}

/// Maps a name list onto [`Chunk::names`] indices (names the script never
/// mentions have no index and need no seeding).
fn name_indices<'a>(chunk: &Chunk, names: impl Iterator<Item = &'a str>) -> HashSet<u32> {
    let by_name: HashMap<&str, u32> = chunk
        .names
        .iter()
        .enumerate()
        .map(|(i, n)| (&**n, i as u32))
        .collect();
    names.filter_map(|n| by_name.get(n).copied()).collect()
}

/// Runs every lint over a parsed-and-compiled script and returns the
/// findings sorted by source position.
///
/// The defined-globals analysis is seeded with the sandbox stdlib, the
/// `AA` namespace, and `opts.externs`; handler protos additionally inherit
/// every global top-level code definitely defines.
pub fn analyze(block: &Block, chunk: &Chunk, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut diags = lints::ast_lints(block);

    // Bytecode-level lints, per proto.
    let cfgs: Vec<cfg::Cfg> = chunk.protos.iter().map(cfg::build).collect();
    for (proto, g) in chunk.protos.iter().zip(&cfgs) {
        diags.extend(dataflow::uninit_register_reads(proto, g));
        diags.extend(unreachable_code(proto, g));
    }

    // Defined-globals: main first (seeded from stdlib + host externs),
    // then every other proto seeded with what main established.
    let ever_stored: HashSet<u32> = chunk
        .protos
        .iter()
        .flat_map(dataflow::stored_globals)
        .collect();
    let seed = name_indices(
        chunk,
        crate::stdlib::stdlib_global_names()
            .chain(std::iter::once("AA"))
            .chain(opts.externs.iter().map(|s| s.as_str())),
    );
    let main = &chunk.protos[chunk.main];
    let (main_diags, main_exit) =
        dataflow::undefined_global_reads(main, &cfgs[chunk.main], chunk, &seed, &ever_stored);
    diags.extend(main_diags);
    let mut handler_init = main_exit;
    handler_init.extend(seed.iter().copied());
    for (pi, (proto, g)) in chunk.protos.iter().zip(&cfgs).enumerate() {
        if pi == chunk.main {
            continue;
        }
        let (d, _) = dataflow::undefined_global_reads(proto, g, chunk, &handler_init, &ever_stored);
        diags.extend(d);
    }

    // Cost bounds: top-level code and every installed handler.
    let mut model = cost::CostModel::new(chunk).with_externs(&opts.externs);
    let main_pos = main
        .lines
        .first()
        .copied()
        .unwrap_or(Pos { line: 1, col: 1 });
    let mut targets = vec![("top-level code".to_string(), chunk.main, main_pos)];
    targets.extend(cost::installed_handlers(chunk));
    for (label, pi, pos) in targets {
        match model.proto_cost(pi) {
            cost::Bound::Finite(c) => {
                if let Some(budget) = opts.budget {
                    if c > budget {
                        diags.push(Diagnostic::error(
                            LintId::CostExceedsBudget,
                            pos,
                            format!(
                                "worst-case cost of {label} is {c} instructions, \
                                 exceeding the budget of {budget}: every invocation \
                                 would be killed (and silently denied)"
                            ),
                        ));
                    }
                }
            }
            cost::Bound::Unbounded(why) => {
                diags.push(Diagnostic::warning(
                    LintId::CostUnbounded,
                    pos,
                    format!("worst-case cost of {label} is not statically bounded ({why})"),
                ));
            }
        }
    }

    diags.sort_by_key(|d| (d.pos.line, d.pos.col, d.id));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str, opts: &LintOptions) -> Vec<Diagnostic> {
        let block = parse(src).unwrap();
        let chunk = crate::compile::compile(&block).unwrap();
        analyze(&block, &chunk, opts)
    }

    fn ids(src: &str) -> Vec<LintId> {
        run(src, &LintOptions::default())
            .into_iter()
            .map(|d| d.id)
            .collect()
    }

    #[test]
    fn fig5_password_handler_is_clean_and_bounded() {
        let src = r#"
            AA = {NodeId = 27,
                  IP = "131.94.130.118",
                  Password = "3053482032"}
            function onGet(caller, password)
                if (password == AA.Password) then
                    return AA.NodeId
                end
                return nil
            end
        "#;
        let diags = run(src, &LintOptions::with_budget(10_000));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn over_budget_handler_is_an_error_with_a_span() {
        let src = "function onGet()
                 local s = 0
                 for i = 1, 100000 do s = s + i end
                 return s
             end";
        let diags = run(src, &LintOptions::with_budget(10_000));
        let d = diags
            .iter()
            .find(|d| d.id == LintId::CostExceedsBudget)
            .expect("AA007 must fire");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.pos.line, 1, "anchored at the handler definition");
        // The same loop fits a large budget.
        let ok = run(src, &LintOptions::with_budget(10_000_000));
        assert!(!ok.iter().any(|d| d.id == LintId::CostExceedsBudget));
    }

    #[test]
    fn unbounded_handler_is_a_warning_not_an_error() {
        let diags = run(
            "function onTimer() while AA do AA.n = 1 end end",
            &LintOptions::with_budget(10_000),
        );
        let d = diags
            .iter()
            .find(|d| d.id == LintId::CostUnbounded)
            .expect("AA008 must fire");
        assert_eq!(d.severity, Severity::Warning);
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn undefined_global_read_is_spanned() {
        let diags = run(
            "AA = {}\nfunction onGet() return utilzation end",
            &LintOptions::default(),
        );
        let d = diags
            .iter()
            .find(|d| d.id == LintId::UndefinedGlobal)
            .expect("AA002 must fire");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.pos.line, 2, "{d:?}");
        assert!(d.message.contains("utilzation"));
    }

    #[test]
    fn externs_suppress_host_injected_globals() {
        let src = "function onTimer() return now_ms() end";
        assert!(run(src, &LintOptions::default())
            .iter()
            .any(|d| d.id == LintId::UndefinedGlobal));
        let opts = LintOptions {
            budget: None,
            externs: vec!["now_ms".into()],
        };
        assert!(!run(src, &opts)
            .iter()
            .any(|d| d.id == LintId::UndefinedGlobal));
    }

    #[test]
    fn unreachable_code_after_exhaustive_return_warns() {
        let src = "function onGet(x)
                 if x then return 1 else return 2 end
                 AA.dead = 1
             end";
        let diags = run(src, &LintOptions::default());
        let d = diags
            .iter()
            .find(|d| d.id == LintId::UnreachableCode)
            .expect("AA006 must fire: {diags:?}");
        assert_eq!(d.pos.line, 3, "{d:?}");
    }

    #[test]
    fn ordinary_returns_do_not_trip_the_unreachable_lint() {
        for src in [
            "function onGet() return 1 end",
            "function onGet(x) if x then return 1 end return 2 end",
            "function onGet() for i = 1, 3 do if i > 1 then break end end return 1 end",
            "x = 1",
        ] {
            assert!(
                !ids(src).contains(&LintId::UnreachableCode),
                "false positive in: {src}"
            );
        }
    }

    #[test]
    fn handler_reading_main_defined_global_is_clean() {
        let src = "count = 0
             function onGet() count = count + 1 return count end";
        let diags = run(src, &LintOptions::default());
        assert!(
            !diags.iter().any(|d| d.id == LintId::UndefinedGlobal),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_come_out_sorted_by_position() {
        let src = "function onGte() return 1 end
             function onGet() return utilzation end";
        let diags = run(src, &LintOptions::default());
        let lines: Vec<u32> = diags.iter().map(|d| d.pos.line).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "{diags:?}");
    }
}
