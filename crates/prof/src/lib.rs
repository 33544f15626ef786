//! Two-sided profiling for the chip-level-integration simulator.
//!
//! The paper's analytical backbone is the breakdown figure — *where do
//! the cycles go?* — and this crate answers it on both clocks:
//!
//! * **Simulated time** — [`Attribution`] splits every charged latency
//!   into per-component contributions ([`Component`]: L1 probe, L2
//!   array, directory, NoC hops, MC queue, fault extra) per
//!   [`csim_obs::MissClass`], with a conservation invariant (components
//!   sum to the charged cycles) that makes the breakdown reconcile
//!   cycle-for-cycle with the observer's histograms.
//!   [`prof_report_json`] exports it as byte-stable
//!   `csim-prof-report/v1` JSON, and [`Attribution::to_bar`] feeds the
//!   paper-style stacked charts.
//! * **Host time** — [`HostSampler`] is a hand-rolled, `unsafe`-free
//!   sampling profiler over the region markers in
//!   `csim_trace::hostprof`, yielding a per-thread samples-by-region
//!   [`RegionReport`]; [`chrome::TraceDoc`] exports run/sweep phase
//!   timelines as Chrome trace-event JSON for `chrome://tracing` and
//!   Perfetto.
//!
//! The two sides obey different determinism contracts, and the type
//! structure keeps them apart: everything derived from simulation state
//! is byte-stable; everything wall-clock rides in [`HostProfile`], the
//! explicitly nondeterministic `host_profile` section of the run
//! report.

#![forbid(unsafe_code)]

mod attr;
pub mod chrome;
mod report;
mod sampler;

pub use attr::{Attribution, Component};
pub use report::{prof_report_json, PROF_REPORT_SCHEMA};
pub use sampler::{HostSampler, RegionReport};

use csim_obs::json::Json;
use csim_obs::PhaseProfile;

/// Everything a run measured about the *host*: wall-clock phase
/// timings, and (when sampling was enabled) the region profile. This is
/// the payload of the run report's `host_profile` section — explicitly
/// nondeterministic, excluded from every byte-identity comparison.
#[derive(Clone, Debug, Default)]
pub struct HostProfile {
    /// Wall-clock phase timings (build, warmup, measure, ...).
    pub phases: PhaseProfile,
    /// The sampling profiler's tally, when `--prof-sample-hz` ran one.
    pub regions: Option<RegionReport>,
}

impl HostProfile {
    /// A host profile carrying only phase timings.
    pub fn from_phases(phases: PhaseProfile) -> HostProfile {
        HostProfile { phases, regions: None }
    }

    /// The section as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("phases", self.phases.to_json()),
            ("regions", self.regions.as_ref().map(RegionReport::to_json).unwrap_or(Json::Null)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_profile_serializes_with_and_without_regions() {
        let mut phases = PhaseProfile::new();
        phases.push("measure", 12.0);
        let bare = HostProfile::from_phases(phases.clone());
        let s = bare.to_json().to_string();
        csim_obs::json::validate(&s).unwrap();
        assert!(s.contains("\"regions\":null"));

        let sampler = HostSampler::start(5000);
        let with_regions = HostProfile { phases, regions: Some(sampler.stop()) };
        let s = with_regions.to_json().to_string();
        csim_obs::json::validate(&s).unwrap();
        assert!(s.contains("\"regions\":{"));
        assert!(s.contains("\"measure\""));
    }
}
