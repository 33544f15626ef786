//! The host-side sampling profiler.
//!
//! A watcher thread wakes `hz` times per second and snapshots the
//! region-marker stripes published by `csim_trace::hostprof`: every
//! stripe currently inside an instrumented region contributes one
//! sample to that region's tally, and a tick on which *no* stripe is
//! active counts as one idle sample (so "the process was mostly not in
//! a hot loop" is visible instead of silently dropped). The result is
//! a table of samples per region, counted per thread: with the
//! simulator and its workload producer both active, each tick adds a
//! sample for each of them, so the tally can exceed `ticks` and a
//! region's share is a share of thread-samples, not of wall time. It
//! answers *where the host threads spend their time*, e.g. whether the
//! simulator waits for its workload (`workload-wait`) while the
//! producer refills bursts (`burst-refill`).
//!
//! Everything here is wall-clock by nature and therefore explicitly
//! nondeterministic: region reports only ever ride in the run report's
//! `host_profile` section, never in byte-stable documents.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use csim_obs::json::Json;
use csim_trace::hostprof::{read_regions, Region, STRIPES};

/// A running sampler; call [`HostSampler::stop`] to join the watcher
/// and collect the tally.
pub struct HostSampler {
    stop: Arc<AtomicBool>,
    hz: u32,
    handle: thread::JoinHandle<RegionReport>,
}

impl HostSampler {
    /// Spawns the watcher thread sampling `hz` times per second
    /// (clamped to `[1, 100_000]`).
    pub fn start(hz: u32) -> HostSampler {
        let hz = hz.clamp(1, 100_000);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let period = Duration::from_nanos(1_000_000_000 / u64::from(hz));
        let handle = thread::spawn(move || {
            let mut counts = [0u64; Region::COUNT];
            let mut ticks = 0u64;
            let mut slots = [0u8; STRIPES];
            #[expect(clippy::disallowed_methods, reason = "the sampler measures host runtime by design; its output is quarantined in the nondeterministic host_profile section")]
            let started = Instant::now();
            while !stop_flag.load(Ordering::Relaxed) {
                read_regions(&mut slots);
                ticks += 1;
                let mut active = false;
                for &slot in slots.iter() {
                    let region = Region::from_u8(slot);
                    if region != Region::Idle {
                        counts[region as usize] += 1;
                        active = true;
                    }
                }
                if !active {
                    counts[Region::Idle as usize] += 1;
                }
                thread::sleep(period);
            }
            RegionReport { hz, ticks, counts, elapsed_ms: started.elapsed().as_secs_f64() * 1e3 }
        });
        HostSampler { stop, hz, handle }
    }

    /// Stops the watcher and returns its tally. If the watcher somehow
    /// died, an empty report is returned rather than propagating the
    /// panic into the caller.
    pub fn stop(self) -> RegionReport {
        // Relaxed is enough: the join below is the real synchronization,
        // and the stop flag only needs to become visible eventually.
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.join() {
            Ok(report) => report,
            Err(_) => RegionReport { hz: self.hz, ticks: 0, counts: [0; Region::COUNT], elapsed_ms: 0.0 },
        }
    }
}

/// The sampler's tally: samples observed per region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionReport {
    /// Configured sampling rate.
    pub hz: u32,
    /// Sampling ticks taken (≥ the per-region sample total when
    /// several threads publish concurrently).
    pub ticks: u64,
    counts: [u64; Region::COUNT],
    /// Wall-clock milliseconds the sampler ran for.
    pub elapsed_ms: f64,
}

impl RegionReport {
    /// Samples observed in `region`.
    pub fn samples(&self, region: Region) -> u64 {
        // analyze: total — Region discriminants index a counts array with one slot per Region variant
        self.counts[region as usize]
    }

    /// Total samples across all regions (including idle ticks).
    pub fn total_samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `region`'s share of all samples, in `[0, 1]` (0 when nothing was
    /// sampled).
    pub fn share(&self, region: Region) -> f64 {
        let total = self.total_samples();
        if total == 0 {
            0.0
        } else {
            self.samples(region) as f64 / total as f64
        }
    }

    /// The report as JSON — nondeterministic by nature, for the
    /// `host_profile` section only.
    pub fn to_json(&self) -> Json {
        let regions = Region::ALL
            .iter()
            .map(|&r| {
                (
                    r.as_str().to_string(),
                    Json::obj([
                        ("samples", Json::UInt(self.samples(r))),
                        ("share", Json::Float(self.share(r))),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("hz", Json::UInt(u64::from(self.hz))),
            ("ticks", Json::UInt(self.ticks)),
            ("elapsed_ms", Json::Float(self.elapsed_ms)),
            ("regions", Json::Obj(regions)),
        ])
    }

    /// A human-readable table of samples per region (per thread, so
    /// the samples may add up to more than the ticks).
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "host sampling profile ({} Hz, {} ticks, {:.0} ms)\n",
            self.hz, self.ticks, self.elapsed_ms
        );
        for region in Region::ALL {
            out.push_str(&format!(
                "  {:<16} {:>10} samples  {:>6.1}%\n",
                region.as_str(),
                self.samples(region),
                self.share(region) * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_trace::hostprof::set_region;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "busy-publishes for a host-time span")]
    fn sampler_observes_a_published_region() {
        let sampler = HostSampler::start(2000);
        set_region(Region::BurstRefill);
        // Busy-publish long enough for several ticks to land.
        let until = Instant::now() + Duration::from_millis(50);
        while Instant::now() < until {
            set_region(Region::BurstRefill);
        }
        set_region(Region::Idle);
        let report = sampler.stop();
        assert!(report.ticks > 0);
        assert!(
            report.samples(Region::BurstRefill) > 0,
            "expected burst-refill samples, got {report:?}"
        );
        assert!(report.share(Region::BurstRefill) > 0.0);
        assert!(report.total_samples() >= report.samples(Region::BurstRefill));
    }

    #[test]
    fn report_serializes_and_tabulates() {
        let report = RegionReport {
            hz: 997,
            ticks: 10,
            counts: [3, 7, 0, 0],
            elapsed_ms: 10.5,
        };
        let s = report.to_json().to_string();
        csim_obs::json::validate(&s).unwrap();
        assert!(s.contains("\"hz\":997"));
        assert!(s.contains("\"advance\":{\"samples\":7"));
        let table = report.to_table();
        assert!(table.contains("advance"));
        assert!(table.contains("70.0%"));
        assert_eq!(report.share(Region::Advance), 0.7);
    }

    #[test]
    fn empty_report_shares_are_zero() {
        let report =
            RegionReport { hz: 1, ticks: 0, counts: [0; Region::COUNT], elapsed_ms: 0.0 };
        assert_eq!(report.share(Region::Advance), 0.0);
        assert_eq!(report.total_samples(), 0);
    }
}
