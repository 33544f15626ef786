//! Whole-workspace static-analysis gate.
//!
//! ```text
//! csim-analyze [workspace-root] [--json [PATH]]
//! ```
//!
//! Runs the two `csim-analyze` passes (dead-pub audit and unknown
//! directives) over the workspace and prints the human report. With
//! `--json` the byte-stable `csim-analyze-report/v2` document is
//! written to PATH (or stdout when PATH is omitted) — two runs over the
//! same tree produce byte-identical output, and CI asserts that.
//!
//! Exit status 0 when clean, 1 on any finding, 2 on usage or I/O
//! errors.

#![forbid(unsafe_code)]
#![allow(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "tooling: the analyzer never runs inside a simulation process"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use csim_analyze::analyze_workspace;

const USAGE: &str = "usage: csim-analyze [workspace-root] [--json [PATH]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut json: Option<Option<PathBuf>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let path = args.get(i + 1).filter(|a| !a.starts_with("--")).map(PathBuf::from);
                if path.is_some() {
                    i += 1;
                }
                json = Some(path);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with("--") => root = PathBuf::from(other),
            other => {
                eprintln!("csim-analyze: unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("csim-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_human());

    if let Some(dest) = json {
        let doc = report.to_json().to_string();
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

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
