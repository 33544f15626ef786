//! Whole-workspace static-analysis gate.
//!
//! ```text
//! csim-analyze [workspace-root] [--json [PATH]] [--baseline PATH [--update-baseline]]
//! ```
//!
//! Runs the nine `csim-analyze` passes (layering gate, hot-path lints,
//! determinism taint, dead-pub audit, concurrency discipline, unwind
//! safety, panic-freedom, f64 exactness, token-level source rules) over
//! the workspace and prints the human report. With
//! `--json` the byte-stable `csim-analyze-report/v1` document is
//! written to PATH (or stdout when PATH is omitted) — two runs over the
//! same tree produce byte-identical output, and CI asserts that.
//!
//! `--baseline PATH` diffs the findings against a committed
//! `csim-analyze-baseline/v1` file by stable fingerprint: only findings
//! *not* in the baseline fail the gate, so strict new rules land
//! without a big-bang sweep while the deferred count can only ratchet
//! down. `--update-baseline` rewrites PATH byte-stably from the current
//! findings instead of diffing.
//!
//! Exit status 0 when clean (or ratchet-clean under `--baseline`), 1
//! when new findings remain, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use csim_analyze::{analyze_workspace, Baseline};

const USAGE: &str =
    "usage: csim-analyze [workspace-root] [--json [PATH]] [--baseline PATH [--update-baseline]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut json: Option<Option<PathBuf>> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let path = args
                    .get(i + 1)
                    .filter(|a| !a.starts_with("--"))
                    .map(PathBuf::from);
                if path.is_some() {
                    i += 1;
                }
                json = Some(path);
            }
            "--baseline" => match args.get(i + 1).filter(|a| !a.starts_with("--")) {
                Some(p) => {
                    baseline = Some(PathBuf::from(p));
                    i += 1;
                }
                None => {
                    eprintln!("csim-analyze: --baseline requires a PATH\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--update-baseline" => update_baseline = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with("--") => root = PathBuf::from(other),
            other => {
                eprintln!("csim-analyze: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if update_baseline && baseline.is_none() {
        eprintln!("csim-analyze: --update-baseline requires --baseline PATH\n{USAGE}");
        return ExitCode::from(2);
    }

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("csim-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_human());

    // Capture mode: rewrite the baseline from the current findings and
    // succeed — the debt is now on the books, not hidden.
    if let (true, Some(path)) = (update_baseline, &baseline) {
        let captured = Baseline::from_findings(&report.findings);
        if let Err(e) = std::fs::write(path, captured.to_bytes()) {
            eprintln!("csim-analyze: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "baseline: captured {} entries to {}",
            captured.entries.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    // Ratchet mode: diff against the committed baseline; only findings
    // outside it fail the gate.
    let diff = match &baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("csim-analyze: reading {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&text) {
                Ok(b) => Some(b.diff(&report.findings)),
                Err(e) => {
                    eprintln!("csim-analyze: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    if let Some(d) = &diff {
        print!("{}", d.render_human());
    }

    if let Some(dest) = json {
        let mut doc = report.to_json();
        if let Some(d) = &diff {
            doc.push("baseline", d.to_json());
        }
        let doc = doc.to_string();
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
                    eprintln!("csim-analyze: writing {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            None => println!("{doc}"),
        }
    }

    let clean = match &diff {
        Some(d) => d.is_ratchet_clean(),
        None => report.is_clean(),
    };
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
