//! End-to-end guarantees of the observability layer, exercised through
//! the public facade:
//!
//! * the zero-overhead contract — a run's `SimReport` is identical
//!   whether an observer is absent, disabled, or fully enabled;
//! * determinism — same seeds export byte-identical JSON run reports
//!   and JSONL traces;
//! * trace filtering and epoch accounting behave as documented.

use oltp_chip_integration::obs::json::{validate, validate_jsonl};
use oltp_chip_integration::prelude::*;
use oltp_chip_integration::sim::RUN_REPORT_SCHEMA;

const WARM: u64 = 10_000;
const MEAS: u64 = 20_000;

fn full_obs() -> ObsConfig {
    ObsConfig { histograms: true, epoch: Some(1_000), trace: Some(TraceConfig::default()) }
}

/// One measured run of the 8-node fully-integrated system, with the
/// given observer configuration (`None` = no observer wired at all).
fn run_with(obs: Option<ObsConfig>) -> (SimReport, Simulation) {
    let cfg = SystemConfig::paper_fully_integrated(8);
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid config");
    if let Some(cfg) = obs {
        sim.set_observer(Observer::new(cfg));
    }
    sim.warm_up(WARM);
    let report = sim.run(MEAS);
    (report, sim)
}

#[test]
fn disabled_observer_run_is_identical_to_observer_free_run() {
    let (bare, _) = run_with(None);
    let (off, _) = run_with(Some(ObsConfig::off()));
    assert_eq!(bare, off, "ObsConfig::off() must not perturb the simulation");
}

#[test]
fn fully_enabled_observer_leaves_the_report_unchanged() {
    let (bare, _) = run_with(None);
    let (observed, sim) = run_with(Some(full_obs()));
    assert_eq!(bare, observed, "observation must be read-only");
    // ... while actually having observed something.
    let o = sim.observer();
    assert!(o.histogram(MissClass::L2Hit).unwrap().count() > 0);
    assert!(!o.epoch_samples().is_empty());
    assert!(!o.events().unwrap().is_empty());
}

#[test]
fn same_seed_runs_export_byte_identical_json_and_jsonl() {
    let manifest = RunManifest {
        tool: "obs-test".into(),
        version: version_string("0.0.0"),
        config_summary: "8p all".into(),
        config: vec![("nodes".into(), "8".into())],
        seeds: vec![("workload".into(), OltpParams::default().seed)],
    };
    let (report_a, sim_a) = run_with(Some(full_obs()));
    let (report_b, sim_b) = run_with(Some(full_obs()));

    let json_a = run_report_json(&report_a, sim_a.observer(), &manifest, None).to_string();
    let json_b = run_report_json(&report_b, sim_b.observer(), &manifest, None).to_string();
    assert_eq!(json_a, json_b, "same seeds must export byte-identical JSON");
    validate(&json_a).expect("report is well-formed JSON");
    // Pin the schema tag: consumers key on this string, so renaming it
    // is a breaking change that must show up in a test diff.
    assert_eq!(RUN_REPORT_SCHEMA, "csim-run-report/v1");
    assert!(
        json_a.contains("\"schema\":\"csim-run-report/v1\""),
        "run report must carry the schema tag"
    );

    let trace_a = sim_a.observer().trace_jsonl();
    let trace_b = sim_b.observer().trace_jsonl();
    assert_eq!(trace_a, trace_b, "same seeds must export byte-identical JSONL");
    assert!(!trace_a.is_empty());
    validate_jsonl(&trace_a).expect("trace is well-formed JSONL");
}

#[test]
fn different_seeds_diverge() {
    let cfg = SystemConfig::paper_fully_integrated(8);
    let run = |seed: u64| {
        let params = OltpParams { seed, ..OltpParams::default() };
        let mut sim = Simulation::with_oltp(&cfg, params).unwrap();
        sim.warm_up(WARM);
        sim.run(MEAS)
    };
    assert_ne!(run(1), run(2), "seed must actually steer the workload");
}

#[test]
fn class_filter_keeps_only_matching_events() {
    let cfg = SystemConfig::paper_fully_integrated(8);
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
    sim.set_observer(Observer::new(ObsConfig {
        histograms: false,
        epoch: None,
        trace: Some(TraceConfig {
            capacity: 4_096,
            filter: TraceFilter::parse_classes("remote-clean,remote-dirty").unwrap(),
        }),
    }));
    sim.warm_up(WARM);
    sim.run(MEAS);
    let ring = sim.observer().events().unwrap();
    assert!(!ring.is_empty(), "an 8-node run must produce remote misses");
    for event in ring.iter() {
        let class = event.kind.class().expect("class-less events are filtered out");
        assert!(
            matches!(class, MissClass::RemoteClean | MissClass::RemoteDirty),
            "unexpected class {class} in filtered trace"
        );
    }
}

#[test]
fn epoch_count_matches_measured_references() {
    let (_, sim) = run_with(Some(ObsConfig { epoch: Some(1_000), ..ObsConfig::off() }));
    let samples = sim.observer().epoch_samples();
    assert_eq!(samples.len() as u64, MEAS / 1_000, "one sample per closed epoch");
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.index, i as u64);
        assert_eq!(s.end_ref, (i as u64 + 1) * 1_000);
        assert!(s.ipc > 0.0);
    }
}

#[test]
fn reset_stats_also_resets_the_observer() {
    let cfg = SystemConfig::paper_fully_integrated(8);
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
    sim.set_observer(Observer::new(full_obs()));
    // warm_up resets stats afterwards, so warmed-up state must start
    // from a clean observer too.
    sim.warm_up(WARM);
    assert_eq!(sim.observer().histogram(MissClass::L2Hit).unwrap().count(), 0);
    assert!(sim.observer().epoch_samples().is_empty());
    sim.run(MEAS);
    assert!(sim.observer().histogram(MissClass::L2Hit).unwrap().count() > 0);
}
