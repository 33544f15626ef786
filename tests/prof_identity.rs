//! End-to-end guarantees of the profiling subsystem, exercised through
//! the public facade:
//!
//! * the zero-overhead contract — a run's `SimReport` is identical
//!   whether attribution is absent or enabled (the profiler observes,
//!   it never perturbs);
//! * reconciliation — per-miss-class attribution totals and counts
//!   equal the observer histograms', cycle for cycle, with and without
//!   fault injection;
//! * determinism — same seeds export byte-identical
//!   `csim-prof-report/v1` documents, and the nondeterministic host
//!   side stays quarantined in the run report's `host_profile` section;
//! * trace-event export — the phase timeline validates against the
//!   nesting/ordering invariants viewers rely on.

use oltp_chip_integration::obs::json::validate;
use oltp_chip_integration::prelude::*;
use oltp_chip_integration::prof::chrome::{validate_trace, TraceDoc};
use oltp_chip_integration::prof::PROF_REPORT_SCHEMA;

const WARM: u64 = 10_000;
const MEAS: u64 = 20_000;

/// One measured run of the 8-node fully-integrated system with
/// histograms on, optionally attributing, optionally under a fault
/// storm.
fn run_with(attribution: bool, faults: bool) -> (SimReport, Simulation) {
    let cfg = SystemConfig::paper_fully_integrated(8);
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid config");
    sim.set_observer(Observer::new(ObsConfig { histograms: true, epoch: None, trace: None }));
    sim.set_attribution(attribution);
    if faults {
        let plan = FaultPlan::from_toml_str(
            r#"
            [nack]
            prob = 0.05
            max_retries = 6
            backoff_base = 16
            backoff_cap = 4096
            exponential = true

            [[mc_fault]]
            start = 2000
            duration = 8000
            extra_cycles = 40
            "#,
        )
        .expect("valid fault plan");
        sim.set_fault_injector(FaultInjector::new(plan, 7).expect("valid injector"));
    }
    sim.warm_up(WARM);
    let report = sim.run(MEAS);
    (report, sim)
}

#[test]
fn attribution_does_not_perturb_the_simulation() {
    let (plain, _) = run_with(false, false);
    let (attributed, sim) = run_with(true, false);
    assert_eq!(plain, attributed, "attribution must be read-only");
    // ... while actually having attributed something.
    let attr = sim.attribution().expect("attribution was enabled");
    assert!(attr.total_cycles() > 0);
}

#[test]
fn attribution_reconciles_exactly_with_the_histograms() {
    for faults in [false, true] {
        let (_, sim) = run_with(true, faults);
        let attr = sim.attribution().expect("attribution was enabled");
        let mut nonzero_classes = 0;
        for class in MissClass::ALL {
            let h = sim.observer().histogram(class).expect("histograms were enabled");
            assert_eq!(
                attr.class_count(class),
                h.count(),
                "faults={faults} class {class}: count must reconcile"
            );
            assert_eq!(
                attr.class_cycles(class),
                h.total(),
                "faults={faults} class {class}: component cycles must sum to the histogram total"
            );
            if h.count() > 0 {
                nonzero_classes += 1;
            }
        }
        assert!(nonzero_classes >= 3, "faults={faults}: the 8-node run must hit several classes");
        if faults {
            assert!(
                attr.class_count(MissClass::NackRetry) > 0,
                "the storm must produce NACK retries"
            );
            assert!(attr.component_cycles(Component::FaultExtra) > 0);
        }
    }
}

#[test]
fn same_seed_runs_export_byte_identical_prof_reports() {
    let manifest = RunManifest {
        tool: "prof-test".into(),
        version: version_string("0.0.0"),
        config_summary: "8p all".into(),
        config: vec![("nodes".into(), "8".into())],
        seeds: vec![("workload".into(), OltpParams::default().seed)],
    };
    let (_, sim_a) = run_with(true, false);
    let (_, sim_b) = run_with(true, false);
    let a = prof_report_json(sim_a.attribution().unwrap(), &manifest).to_string();
    let b = prof_report_json(sim_b.attribution().unwrap(), &manifest).to_string();
    assert_eq!(a, b, "same seeds must export byte-identical prof reports");
    validate(&a).expect("prof report is well-formed JSON");
    // Pin the schema tag: consumers key on this string.
    assert_eq!(PROF_REPORT_SCHEMA, "csim-prof-report/v1");
    assert!(a.contains("\"schema\":\"csim-prof-report/v1\""));
    assert!(a.contains("\"component_totals\""));
}

#[test]
fn host_profile_stays_out_of_deterministic_reports() {
    let manifest = RunManifest::default();
    let (report, sim) = run_with(true, false);
    let plain = run_report_json(&report, sim.observer(), &manifest, None).to_string();
    assert!(plain.contains("\"host_profile\":null"));

    let mut phases = PhaseProfile::new();
    phases.push("warmup", 3.0);
    phases.push("measure", 9.0);
    let sampler = HostSampler::start(5_000);
    let host = HostProfile { phases, regions: Some(sampler.stop()) };
    let with_host = run_report_json(&report, sim.observer(), &manifest, Some(&host)).to_string();
    validate(&with_host).expect("report with host profile is well-formed");
    assert!(with_host.contains("\"host_profile\":{"));
    assert!(with_host.contains("\"regions\":{"));
    // The deterministic sections are bytewise unaffected by the host
    // side: strip the host_profile tail and both reports agree.
    let cut = |s: &str| s[..s.find("\"host_profile\"").unwrap()].to_string();
    assert_eq!(cut(&plain), cut(&with_host));
}

#[test]
fn phase_timeline_exports_a_valid_trace_event_document() {
    let mut phases = PhaseProfile::new();
    phases.push("build", 1.2);
    phases.push("warmup", 20.7);
    phases.push("measure", 41.3);
    let doc = TraceDoc::from_phases(&phases, "csim");
    let text = doc.to_json().to_string();
    validate(&text).expect("trace is well-formed JSON");
    validate_trace(&text).expect("trace satisfies ordering and nesting");
    assert!(text.contains("\"displayTimeUnit\":\"ms\""));
}
