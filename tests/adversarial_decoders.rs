//! Adversarial driver for the decoders of outside input: sweep plans and
//! fault plans (the TOML reader), JSON documents (`json::parse`, the
//! reader behind `--validate-json`), JSONL event traces
//! (`json::validate_jsonl`, behind `--validate-jsonl`) and sweep
//! checkpoint logs, which are also shard results (`merge_logs`, behind
//! `--sweep-merge`).
//!
//! One mutator turns well-formed seed documents into hostile ones by
//! flipping bits, truncating, splicing in a slice of another seed and
//! inserting runs of `[`/`{` nesting. Every mutated case must decode to
//! a value or an error; a panic fails the test and names the case. A
//! JSON document that parses must also serialise back to the same tree.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oltp_chip_integration::obs::json::{self, Json};
use oltp_chip_integration::obs::TraceConfig;
use oltp_chip_integration::prelude::*;
use oltp_chip_integration::sweep::{merge_logs, run_sweep_cfg, SweepConfig};
use oltp_chip_integration::trace::SimRng;

/// Longest run of nesting openers a random case inserts. Both parsers
/// stop well before it (the JSON reader at depth 128, the TOML reader is
/// line-based), and it keeps each debug-build case cheap.
/// `deep_nesting_is_an_error_not_a_crash` covers a 200,000-deep run once.
const MAX_NESTING_RUN: usize = 2_048;

/// The openers a nesting run repeats: bare arrays, bare tables, and
/// an object-in-array form that stays valid JSON down to the depth cap.
const OPENERS: [&[u8]; 4] = [b"[", b"{", b"[{", b"{\"k\":["];

/// Applies one to four random edits to `doc`, drawing spliced bytes from
/// `seeds`.
fn mutate(rng: &mut SimRng, doc: &mut Vec<u8>, seeds: &[&[u8]]) {
    let pick = |rng: &mut SimRng, n: usize| rng.gen_range_usize(0..n.max(1));
    for _ in 0..1 + rng.gen_range(0..4) {
        match rng.gen_range(0..4) {
            0 => {
                if !doc.is_empty() {
                    let at = pick(rng, doc.len());
                    doc[at] ^= 1 << rng.gen_range(0..8);
                }
            }
            1 => doc.truncate(pick(rng, doc.len() + 1)),
            2 => {
                let other = seeds[pick(rng, seeds.len())];
                let from = pick(rng, other.len());
                let to = from + pick(rng, other.len() - from + 1);
                let at = pick(rng, doc.len() + 1);
                let end = at + pick(rng, doc.len() - at + 1);
                doc.splice(at..end, other[from..to].iter().copied());
            }
            _ => {
                let opener = OPENERS[pick(rng, OPENERS.len())];
                let run = opener.repeat(1 + pick(rng, MAX_NESTING_RUN / opener.len()));
                let at = pick(rng, doc.len() + 1);
                doc.splice(at..at, run);
            }
        }
    }
}

/// Feeds `cases` mutations of `seeds` to `decode` and returns how many
/// it accepted and rejected. Each seed must decode, and a case that
/// panics fails the test with its number and its first bytes.
fn drive<T, E: std::fmt::Debug>(
    rng_seed: u64,
    seeds: &[&str],
    cases: usize,
    decode: impl Fn(&str) -> Result<T, E>,
) -> (usize, usize) {
    for seed in seeds {
        if let Err(e) = decode(seed) {
            panic!("seed document must decode: {e:?}\n{seed}");
        }
    }
    let bytes: Vec<&[u8]> = seeds.iter().map(|s| s.as_bytes()).collect();
    let mut rng = SimRng::seed_from_u64(rng_seed);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..cases {
        let mut doc = bytes[rng.gen_range_usize(0..bytes.len())].to_vec();
        mutate(&mut rng, &mut doc, &bytes);
        let text = String::from_utf8_lossy(&doc);
        match catch_unwind(AssertUnwindSafe(|| decode(&text).is_ok())) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => {
                let head: String = text.chars().take(200).collect();
                panic!("case {case} ({} bytes) panicked; it begins:\n{head}", text.len());
            }
        }
    }
    (accepted, rejected)
}

/// A small observed run's report: nested objects, arrays of epochs and
/// histogram buckets, floats, strings.
fn sample_report() -> String {
    let cfg = SystemConfig::paper_fully_integrated(1);
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid config");
    sim.set_observer(Observer::new(ObsConfig {
        histograms: true,
        epoch: Some(5_000),
        trace: None,
    }));
    sim.warm_up(2_000);
    let report = sim.run(20_000);
    let manifest = RunManifest {
        tool: "csim".into(),
        version: version_string("0.0.0"),
        config_summary: cfg.summary(),
        config: vec![("nodes".into(), "1".into())],
        seeds: vec![("workload".into(), OltpParams::default().seed)],
    };
    run_report_json(&report, sim.observer(), &manifest, None).to_string()
}

/// `json::parse` accepts `text`, and what it accepts serialises back to
/// a document that parses to the same tree.
fn parse_and_round_trip(text: &str) -> Result<Json, json::JsonError> {
    let doc = json::parse(text)?;
    assert_eq!(json::parse(&doc.to_string()).as_ref(), Ok(&doc), "round trip of {text}");
    Ok(doc)
}

#[test]
fn mutated_sweep_plans_parse_or_fail_without_panicking() {
    let seeds = [
        include_str!("../examples/fig09_sweep.toml"),
        include_str!("../examples/sweep_smoke.toml"),
    ];
    let (accepted, rejected) = drive(0x5EE9_0001, &seeds, 6_000, SweepPlan::from_toml_str);
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn mutated_fault_plans_parse_or_fail_without_panicking() {
    let seeds = [include_str!("../examples/fault_storm.toml")];
    let (accepted, rejected) = drive(0xFA17_0001, &seeds, 6_000, FaultPlan::from_toml_str);
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn mutated_reports_parse_or_fail_without_panicking() {
    let report = sample_report();
    // The writer's output is canonical: it parses back to the same bytes.
    assert_eq!(json::parse(&report).map(|doc| doc.to_string()).as_ref(), Ok(&report));
    let seeds = [report.as_str(), "[]", "{\"a\":[1,-2,0.5,\"s\\n\",true,null,{}]}"];
    let (accepted, rejected) = drive(0x7503_0001, &seeds, 1_500, parse_and_round_trip);
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn mutated_event_traces_validate_or_fail_without_panicking() {
    // A small run's `--trace-out` document: one JSON object per line.
    let cfg = SystemConfig::paper_fully_integrated(2);
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid config");
    sim.set_observer(Observer::new(ObsConfig {
        trace: Some(TraceConfig { capacity: 256, ..TraceConfig::default() }),
        ..ObsConfig::default()
    }));
    sim.run(20_000);
    let trace = sim.observer().trace_jsonl();
    assert!(trace.lines().count() > 100, "the run must trace events:\n{trace}");
    let seeds = [trace.as_str(), "{}\n[1]\n"];
    let (accepted, rejected) = drive(0x75AC_0001, &seeds, 3_000, json::validate_jsonl);
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn mutated_checkpoint_logs_merge_or_fail_without_panicking() {
    let plan = SweepPlan::from_toml_str(
        "[sweep]\nname = \"tiny\"\nwarm = 1_000\nmeas = 3_000\n\n\
         [grid]\nintegration = [\"base\", \"all\"]\nnodes = [1, 2]\nbase_seed = 5\n",
    )
    .expect("valid plan");
    let dir = std::env::temp_dir();
    let file = |name: &str| {
        let path = dir.join(format!("csim-adversarial-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    };
    let log = file("seed.log");
    let _ = std::fs::remove_file(&log);
    let cfg = SweepConfig { checkpoint: Some(log.clone()), ..SweepConfig::default() };
    run_sweep_cfg(&plan, &cfg).expect("the sweep runs");
    let seed = std::fs::read_to_string(&log).expect("the sweep wrote its log");
    let case = file("case.log");
    let merge = |text: &str| {
        std::fs::write(&case, text).expect("temp dir is writable");
        merge_logs(&plan, std::slice::from_ref(&case))
    };
    let (accepted, rejected) = drive(0xC4EC_0001, &[seed.as_str()], 1_500, merge);
    for path in [&log, &case] {
        let _ = std::fs::remove_file(path);
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    const DEPTH: usize = 200_000;
    for opener in OPENERS {
        let text = String::from_utf8(opener.repeat(DEPTH)).expect("ASCII");
        assert!(json::parse(&text).is_err());
        for toml in [format!("{text}\n"), format!("[sweep]\nname = {text}\n")] {
            assert!(SweepPlan::from_toml_str(&toml).is_err());
            assert!(FaultPlan::from_toml_str(&toml).is_err());
        }
    }
}
