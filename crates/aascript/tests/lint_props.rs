//! Property tests tying the `aalint` static analysis to runtime behavior,
//! plus integration-level coverage of each lint at the public
//! [`Script::analyze`] API.
//!
//! The headline guarantee (the one the Host's `LintPolicy::Deny` relies
//! on): a script the linter passes as free of undefined-global reads
//! never raises a nil-arithmetic runtime error from such a read — on
//! either engine. The generator builds handlers whose only failure mode
//! is exactly that, so the runtime outcome isolates the property.

use aascript::analysis::{has_errors, LintId, LintOptions, Severity};
use aascript::{oracle, RuntimeError, Script, SharedSandbox, Value};
use proptest::prelude::*;

const BUDGET: u64 = 100_000;

/// `g0..g3` are maybe-defined at the top level; `u0`/`u1` never are.
fn global_name(i: usize) -> String {
    if i < 4 {
        format!("g{i}")
    } else {
        format!("u{}", i - 4)
    }
}

/// A top-level prologue defining the chosen globals as numbers, then an
/// `onGet` handler that folds the chosen reads through arithmetic — the
/// one operation where an undefined (nil) global turns into a runtime
/// type error.
fn program(defined: &[bool], reads: &[usize]) -> String {
    let mut src = String::new();
    for (i, d) in defined.iter().enumerate() {
        if *d {
            src.push_str(&format!("g{i} = {}\n", i + 1));
        }
    }
    src.push_str("function onGet(q)\n  local acc = 0\n");
    for r in reads {
        src.push_str(&format!("  acc = acc + {}\n", global_name(*r)));
    }
    src.push_str("  return acc\nend\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Lint-clean scripts never raise undefined-global runtime errors in
    /// either engine; conversely (for this generator's shape, where every
    /// read is unconditional) a dirty script always does.
    #[test]
    fn lint_clean_scripts_never_hit_undefined_globals(
        defined in proptest::collection::vec(any::<bool>(), 4..5),
        reads in proptest::collection::vec(0usize..6, 0..6),
    ) {
        let src = program(&defined, &reads);
        let script = Script::compile(&src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let diags = script.analyze(&LintOptions::with_budget(BUDGET));
        let clean = !diags.iter().any(|d| d.id == LintId::UndefinedGlobal);

        // The linter must agree with ground truth on this shape.
        let truly_clean = reads.iter().all(|&r| r < 4 && defined[r]);
        prop_assert!(
            clean == truly_clean,
            "lint verdict disagrees with ground truth on:\n{}\n{:?}",
            &src, &diags
        );

        let sandbox = SharedSandbox::new();
        let vm = script
            .instantiate(&sandbox, BUDGET)
            .unwrap_or_else(|e| panic!("top level must run: {e}\n{src}"))
            .invoke("onGet", &[Value::Nil], BUDGET);
        let walker = oracle::instantiate(&script, &sandbox, BUDGET)
            .unwrap_or_else(|e| panic!("top level must run: {e}\n{src}"))
            .invoke("onGet", &[Value::Nil], BUDGET);
        for (engine, res) in [("vm", vm), ("oracle", walker)] {
            if clean {
                prop_assert!(
                    res.is_ok(),
                    "lint-clean script raised {:?} on {:?}:\n{}",
                    &res, engine, &src
                );
            } else {
                prop_assert!(
                    matches!(res, Err(RuntimeError::TypeError(_))),
                    "dirty script should raise a type error, got {:?} on {:?}:\n{}",
                    &res, engine, &src
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One integration test per lint, at the public API.
// ---------------------------------------------------------------------------

fn lint(src: &str) -> Vec<aascript::analysis::Diagnostic> {
    Script::compile(src)
        .expect("lint fixtures compile")
        .analyze(&LintOptions::with_budget(10_000))
}

#[test]
fn aa001_unknown_handler_is_an_error_with_suggestion() {
    let diags = lint("AA = { onGte = function(q) return true end }");
    let d = diags
        .iter()
        .find(|d| d.id == LintId::UnknownHandler)
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("onGet"), "did-you-mean: {}", d.message);
    assert!(d.pos.line >= 1, "diagnostic must carry a source span");
}

#[test]
fn aa002_undefined_global_read_is_an_error() {
    let diags = lint("function onGet(q) return missing_flag end");
    let d = diags
        .iter()
        .find(|d| d.id == LintId::UndefinedGlobal)
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("missing_flag"));
}

#[test]
fn aa002_conditionally_defined_global_is_a_warning() {
    // `flag` is stored somewhere but not on every path to the read (the
    // condition must not involve a call: calls conservatively credit all
    // chunk-stored globals, by design).
    let src = "cond = 1\n\
               if cond then flag = 1 end\n\
               function onGet(q) return flag end";
    let diags = lint(src);
    let d = diags
        .iter()
        .find(|d| d.id == LintId::UndefinedGlobal)
        .unwrap();
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn aa003_unknown_stdlib_member_is_an_error() {
    let diags = lint("function onGet(q) return math.flor(1.5) end");
    let d = diags
        .iter()
        .find(|d| d.id == LintId::UnknownStdlibMember)
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("floor"), "did-you-mean: {}", d.message);
}

#[test]
fn aa004_stdlib_arity_mismatch_is_an_error() {
    let diags = lint("function onGet(q) return math.floor(1.5, 2, 3) end");
    let d = diags.iter().find(|d| d.id == LintId::StdlibMisuse).unwrap();
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn aa005_global_write_in_handler_is_a_warning() {
    let diags = lint("function onGet(q) leak = q return true end");
    let d = diags
        .iter()
        .find(|d| d.id == LintId::GlobalWriteOutsideAa)
        .unwrap();
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn aa006_unreachable_code_after_return_is_a_warning() {
    let src = "function onGet(q)\n  if q then return 1 else return 2 end\n  leak = q\nend";
    let diags = lint(src);
    let d = diags
        .iter()
        .find(|d| d.id == LintId::UnreachableCode)
        .unwrap();
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.pos.line, 3, "span points at the dead statement");
}

#[test]
fn aa007_over_budget_handler_is_an_error() {
    let src = "function onGet(q)\n\
               local s = 0\n\
               for i = 1, 100000 do s = s + i end\n\
               return s\nend";
    let diags = lint(src);
    let d = diags
        .iter()
        .find(|d| d.id == LintId::CostExceedsBudget)
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn aa008_data_dependent_loop_is_a_warning_not_an_error() {
    let src = "function onGet(q)\n\
               local i = 0\n\
               while i < q do i = i + 1 end\n\
               return i\nend";
    let diags = lint(src);
    assert!(diags.iter().any(|d| d.id == LintId::CostUnbounded));
    assert!(!has_errors(&diags), "unbounded is a warning, not an error");
}

// ---------------------------------------------------------------------------
// The paper's Fig. 5 handler: lint-clean and statically bounded.
// ---------------------------------------------------------------------------

/// Verbatim from the paper (Fig. 5), as in `examples/password_policy.rs`.
const FIG5: &str = r#"
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

#[test]
fn fig5_password_handler_is_lint_clean_and_bounded() {
    let script = Script::compile(FIG5).unwrap();
    let diags = script.analyze(&LintOptions::with_budget(10_000));
    assert!(
        diags.is_empty(),
        "Fig. 5 must pass a default-budget lint: {diags:?}"
    );
    // Even a tiny budget admits it: the handler is a handful of opcodes,
    // so the cost analysis proves a finite bound far below 100.
    let tight = script.analyze(&LintOptions::with_budget(100));
    assert!(
        !tight.iter().any(|d| d.id == LintId::CostExceedsBudget),
        "Fig. 5 worst-case cost must bound below 100 opcodes: {tight:?}"
    );
    // And the bound is honest: invoking with that budget succeeds.
    let sandbox = SharedSandbox::new();
    let aa = script.instantiate(&sandbox, 10_000).unwrap();
    let granted = aa
        .invoke("onGet", &[Value::str("joe"), Value::str("3053482032")], 100)
        .unwrap();
    assert!(granted.truthy());
}
