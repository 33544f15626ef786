//! Machine-readable run reports.
//!
//! A run report bundles everything a single run produced into one JSON
//! document: the reproduction manifest, the [`SimReport`] counters, the
//! observer's histograms/epochs/trace summary, and (optionally) the
//! host profile. Everything except the host profile is deterministic:
//! the same run exports the same bytes.

use csim_obs::json::Json;
use csim_obs::{Observer, RunManifest};
use csim_prof::HostProfile;

use crate::report::SimReport;

/// Schema tag written into every run report, bumped on breaking layout
/// changes so downstream readers can dispatch.
pub const RUN_REPORT_SCHEMA: &str = "csim-run-report/v1";

/// Assembles the full run-report document.
///
/// The `host_profile` section is the only nondeterministic part
/// (wall-clock phase timings and, when sampling ran, the host region
/// profile); pass `None` to get a report that is byte-identical across
/// reruns of the same seeds. Determinism gates therefore compare
/// reports produced without a host profile.
pub fn run_report_json(
    report: &SimReport,
    observer: &Observer,
    manifest: &RunManifest,
    host_profile: Option<&HostProfile>,
) -> Json {
    Json::obj([
        ("schema", Json::str(RUN_REPORT_SCHEMA)),
        ("manifest", manifest.to_json()),
        ("report", report.to_json()),
        ("observations", observer.to_json()),
        ("host_profile", host_profile.map(HostProfile::to_json).unwrap_or(Json::Null)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_config::SystemConfig;
    use csim_obs::json::validate;
    use csim_obs::{ObsConfig, PhaseProfile, TraceConfig};
    use csim_workload::OltpParams;

    use crate::Simulation;

    fn observed_run() -> (SimReport, Observer) {
        let cfg = SystemConfig::paper_base_uni();
        let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
        sim.set_observer(csim_obs::Observer::new(ObsConfig {
            histograms: true,
            epoch: Some(1_000),
            trace: Some(TraceConfig::default()),
        }));
        let report = sim.run(5_000);
        let observer = sim.observer().clone();
        (report, observer)
    }

    #[test]
    fn run_report_validates_and_carries_every_section() {
        let (report, observer) = observed_run();
        let manifest = RunManifest {
            tool: "csim".into(),
            version: "0.0.0+test".into(),
            config_summary: report.config_summary.clone(),
            config: vec![("nodes".into(), "1".into())],
            seeds: vec![("workload".into(), 42)],
        };
        let mut phases = PhaseProfile::new();
        phases.push("measure", 12.5);
        let host = HostProfile::from_phases(phases);
        let s = run_report_json(&report, &observer, &manifest, Some(&host)).to_string();
        validate(&s).unwrap();
        for section in [
            "\"schema\":\"csim-run-report/v1\"",
            "\"manifest\"",
            "\"report\"",
            "\"observations\"",
            "\"host_profile\"",
        ] {
            assert!(s.contains(section), "missing {section}");
        }
        assert!(s.contains("\"epoch_len\":1000"));
        assert!(s.contains("\"regions\":null"), "no sampler ran");
    }

    #[test]
    fn deterministic_without_a_host_profile() {
        let (report_a, obs_a) = observed_run();
        let (report_b, obs_b) = observed_run();
        let manifest = RunManifest::default();
        let a = run_report_json(&report_a, &obs_a, &manifest, None).to_string();
        let b = run_report_json(&report_b, &obs_b, &manifest, None).to_string();
        assert_eq!(a, b, "same seeds must export the same bytes");
        assert!(a.contains("\"host_profile\":null"));
    }
}
