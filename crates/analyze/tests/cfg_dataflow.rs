//! Structural properties of the per-function CFG builder under
//! SimRng-generated bodies, plus end-to-end negative fixtures for the
//! intraprocedural panic-freedom pass.
//!
//! The property tests feed the builder randomly nested `if`/`while`/
//! `for`/`match` bodies with early exits and assert the invariants the
//! fixpoint engine depends on: a single entry at block 0, a terminal
//! exit, edges that stay inside the block table, statement ranges that
//! stay inside the body span, no unreachable block surviving GC, and a
//! reverse postorder that covers exactly the reachable blocks once.
//! The fixture tests prove the new rules actually fire — and that the
//! sanctioned discharges (dataflow proof, site contract, fn contract)
//! actually work — through the same `analyze_model` pipeline CI runs.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use csim_analyze::cfg::Cfg;
use csim_analyze::model::{Section, Workspace};
use csim_analyze::{analyze_model, AnalysisReport};
use csim_trace::SimRng;

/// Reads a fixture from `tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Emits a random statement sequence; always token-balanced.
fn gen_body(rng: &mut SimRng, depth: usize, in_loop: bool, out: &mut String) {
    let n = rng.gen_range_usize(1..5);
    for _ in 0..n {
        match rng.gen_range(0..9) {
            0 => out.push_str("let x = a + b;\n"),
            1 => out.push_str("f(x);\n"),
            2 if depth < 3 => {
                out.push_str("if x < y {\n");
                gen_body(rng, depth + 1, in_loop, out);
                if rng.gen_bool(0.5) {
                    out.push_str("} else {\n");
                    gen_body(rng, depth + 1, in_loop, out);
                }
                out.push_str("}\n");
            }
            3 if depth < 3 => {
                out.push_str("while x < y {\n");
                gen_body(rng, depth + 1, true, out);
                out.push_str("}\n");
            }
            4 if depth < 3 => {
                out.push_str("for i in 0..n {\n");
                gen_body(rng, depth + 1, true, out);
                out.push_str("}\n");
            }
            5 if depth < 3 => {
                out.push_str("match x {\n");
                for arm in 0..rng.gen_range_usize(1..4) {
                    out.push_str(&format!("{arm} => {{\n"));
                    gen_body(rng, depth + 1, in_loop, out);
                    out.push_str("}\n");
                }
                out.push_str("_ => {}\n}\n");
            }
            6 if in_loop => {
                out.push_str(if rng.gen_bool(0.5) { "break;\n" } else { "continue;\n" });
            }
            7 => out.push_str(if rng.gen_bool(0.4) { "return;\n" } else { "let v = g()?;\n" }),
            _ => out.push_str("y = y * 2;\n"),
        }
    }
}

#[test]
fn generated_cfgs_are_single_entry_gc_clean_and_rpo_complete() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0x0cf0_0000 ^ seed);
        let mut body = String::new();
        gen_body(&mut rng, 0, false, &mut body);
        let src = format!("fn gen(a: usize, b: usize) {{\n{body}}}\n");
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.add_file("crates/core/src/gen.rs".into(), "core".into(), Section::Src, src.clone());
        let f = ws
            .fns
            .iter()
            .find(|f| f.name == "gen")
            .unwrap_or_else(|| panic!("fn not parsed for seed {seed}:\n{src}"));
        let file = &ws.files[f.file];
        let span = f.body.expect("body span");
        let cfg = Cfg::build(file, span);

        // Block table sanity: a real exit that terminates, edges that
        // resolve, statement ranges inside the body span.
        assert!(!cfg.blocks.is_empty(), "seed {seed}");
        assert!(cfg.exit < cfg.blocks.len(), "seed {seed}");
        assert!(cfg.blocks[cfg.exit].succs.is_empty(), "exit must be terminal (seed {seed})");
        for blk in &cfg.blocks {
            for &(t, _) in &blk.succs {
                assert!(t < cfg.blocks.len(), "dangling edge (seed {seed})");
            }
            for &(s, e) in &blk.stmts {
                assert!(
                    s <= e && span.0 <= s && e <= span.1,
                    "stmt range outside body (seed {seed})"
                );
            }
        }

        // GC property: every surviving block except possibly the exit
        // is reachable from the entry.
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            for &(t, _) in &cfg.blocks[b].succs {
                stack.push(t);
            }
        }
        for (i, s) in seen.iter().enumerate() {
            assert!(*s || i == cfg.exit, "unreachable block {i} survived GC (seed {seed})");
        }

        // RPO starts at the entry and covers exactly the reachable
        // blocks, each once — the fixpoint engine iterates this order.
        let rpo = cfg.rpo();
        assert_eq!(rpo.first().copied(), Some(0), "seed {seed}");
        let uniq: BTreeSet<usize> = rpo.iter().copied().collect();
        assert_eq!(uniq.len(), rpo.len(), "rpo repeats a block (seed {seed})");
        assert_eq!(
            rpo.len(),
            seen.iter().filter(|s| **s).count(),
            "rpo must cover exactly the reachable blocks (seed {seed})"
        );
    }
}

/// Mounts a lib fixture in the `core` crate beside a `src/bin/csim.rs`
/// entry point, then runs every pass.
fn analyze_with_entry(lib_src: &str) -> AnalysisReport {
    analyze_mounted(&[("crates/core/src/lib.rs", "core", lib_src)])
}

/// Mounts `(path, crate, source)` library files beside a
/// `src/bin/csim.rs` entry point, then runs every pass.
fn analyze_mounted(libs: &[(&str, &str, &str)]) -> AnalysisReport {
    let mut ws = Workspace::default();
    let mut crates: BTreeSet<String> = libs.iter().map(|(_, c, _)| c.to_string()).collect();
    crates.insert("(root)".into());
    ws.crates = crates.into_iter().collect();
    ws.add_file(
        "src/bin/csim.rs".into(),
        "(root)".into(),
        Section::Bin,
        "#![forbid(unsafe_code)]\nuse csim_core::entry;\nfn main() { entry(); }\n".into(),
    );
    for (rel, c, src) in libs {
        ws.add_file((*rel).into(), (*c).into(), Section::Src, (*src).into());
    }
    analyze_model(&ws)
}

#[test]
fn panic_freedom_fires_on_every_shipped_site_and_honors_contracts() {
    let src = fixture("panic_reachable.rs");
    // The analyzer's own crate is tooling: an unchecked index there
    // runs in no simulation and stays silent.
    let tool = "fn tool(v: &[u64]) -> u64 { v[5] }\n";
    let rep = analyze_mounted(&[
        ("crates/core/src/lib.rs", "core", &src),
        ("crates/analyze/src/lib.rs", "analyze", tool),
    ]);
    let found: Vec<(&str, &str, usize)> =
        rep.findings.iter().map(|f| (f.file.as_str(), f.rule.as_str(), f.line)).collect();
    let line_of = |needle: &str| {
        src.lines().position(|l| l.contains(needle)).expect("marker line present") + 1
    };
    // One finding per unguarded site, however `main` reaches its fn:
    // by name, by path (never a call site), or not at all.
    let site = |needle: &str| ("crates/core/src/lib.rs", "unchecked-index", line_of(needle));
    assert_eq!(
        found,
        [
            site("expected finding: called by name"),
            site("expected finding: passed by path"),
            site("expected finding: called by nobody"),
        ],
        "exactly the unguarded simulator sites fire"
    );
    // Both totality contracts landed as reasoned suppressions, not
    // silence.
    let totals = rep
        .suppressions
        .iter()
        .filter(|s| s.rule == "unchecked-index" && s.reason.contains("fixture"))
        .count();
    assert_eq!(totals, 2, "site- and fn-level contracts must both be recorded");
}

/// Scope is by exclusion: a crate named in no list is a simulator crate
/// from its first line, and only the tooling crates stay silent.
#[test]
fn a_new_crate_is_in_panic_freedom_scope_and_tooling_is_not() {
    let src = "fn f(v: &[u64]) -> u64 { v[3] }\n";
    let rep = analyze_mounted(&[("crates/gpu/src/lib.rs", "gpu", src)]);
    let found: Vec<(&str, &str, usize)> =
        rep.findings.iter().map(|f| (f.file.as_str(), f.rule.as_str(), f.line)).collect();
    assert_eq!(found, [("crates/gpu/src/lib.rs", "unchecked-index", 1)]);
    let rep = analyze_mounted(&[("crates/bench/src/lib.rs", "bench", src)]);
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn totality_contracts_that_discharge_nothing_are_stale() {
    let src = fixture("stale_total.rs");
    let rep = analyze_with_entry(&src);
    let line_of = |needle: &str| {
        src.lines().position(|l| l.contains(needle)).expect("marker line present") + 1
    };
    let lines_of = |rule: &str| -> Vec<usize> {
        rep.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
    };
    assert_eq!(
        lines_of("stale-total"),
        [
            line_of("— over a site the dataflow"),
            line_of("— four lines"),
            line_of("— above a fn with nothing"),
        ],
        "{:?}",
        rep.findings
    );
    // The live contracts discharged their sites, the fn-level ones from
    // beyond a site contract's reach; the site out of reach still fires.
    for live in ["the live site contract", "the live fn contract", "the uncalled fn contract"] {
        assert!(rep.suppressions.iter().any(|s| s.reason.contains(live)), "{live}");
    }
    assert_eq!(lines_of("unchecked-index"), [line_of("— four lines") + 4]);
}
