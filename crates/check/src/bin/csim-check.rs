//! Explicit-state model checker for the directory protocol.
//!
//! ```text
//! csim-check                        # verify the small and medium presets
//! csim-check --nodes 3 --lines 2   # verify one bounded configuration
//! csim-check --replay <seed> ...   # re-execute a counterexample trace
//! ```
//!
//! Exit status: 0 when every requested configuration verifies clean,
//! 1 on a violation or truncated search, 2 on usage errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use csim_check::model::CheckConfig;
use csim_check::{explore, replay};

struct Args {
    config: Option<CheckConfig>,
    replay_seed: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut config: Option<CheckConfig> = None;
    let mut replay_seed = None;
    let mut it = argv.iter();
    let touch = |config: &mut Option<CheckConfig>| {
        if config.is_none() {
            *config = Some(CheckConfig::small());
        }
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--nodes" => {
                touch(&mut config);
                if let Some(c) = config.as_mut() {
                    c.nodes = parse_u8(&value("--nodes")?)?;
                }
            }
            "--lines" => {
                touch(&mut config);
                if let Some(c) = config.as_mut() {
                    c.lines = parse_u8(&value("--lines")?)?;
                }
            }
            "--max-nacks" => {
                touch(&mut config);
                if let Some(c) = config.as_mut() {
                    c.max_nacks = parse_u8(&value("--max-nacks")?)?;
                }
            }
            "--max-states" => {
                touch(&mut config);
                if let Some(c) = config.as_mut() {
                    let raw = value("--max-states")?;
                    c.max_states = raw
                        .parse::<usize>()
                        .map_err(|_| format!("not a state count: {raw:?}"))?;
                }
            }
            "--no-rac" => {
                touch(&mut config);
                if let Some(c) = config.as_mut() {
                    c.rac = false;
                }
            }
            "--preset" => {
                config = Some(match value("--preset")?.as_str() {
                    "small" => CheckConfig::small(),
                    "medium" => CheckConfig::medium(),
                    other => return Err(format!("unknown preset {other:?} (small|medium)")),
                });
            }
            "--replay" => replay_seed = Some(value("--replay")?),
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { config, replay_seed })
}

fn parse_u8(s: &str) -> Result<u8, String> {
    s.parse::<u8>().map_err(|_| format!("not a small integer: {s:?}"))
}

fn usage() -> &'static str {
    "usage: csim-check [--preset small|medium] [--nodes N] [--lines L] \
     [--max-nacks K] [--no-rac] [--replay SEED]\n\
     With no arguments, verifies the small (2 nodes / 1 line) and medium\n\
     (3 nodes / 2 lines) presets used by CI."
}

fn run_one(config: &CheckConfig) -> bool {
    match explore(config) {
        Ok(report) => {
            println!("{report}");
            report.verified()
        }
        Err(e) => {
            eprintln!("csim-check: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("csim-check: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if let Some(seed) = args.replay_seed {
        let config = args.config.unwrap_or_else(CheckConfig::small);
        return match replay(&config, &seed) {
            Ok(trace) => {
                println!("{trace}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("csim-check: replay failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let configs = match args.config {
        Some(c) => vec![c],
        None => vec![CheckConfig::small(), CheckConfig::medium()],
    };
    let mut ok = true;
    for config in &configs {
        ok &= run_one(config);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
