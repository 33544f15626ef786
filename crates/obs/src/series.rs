//! Epoch time-series: per-interval samples of the run's vital signs.
//!
//! An epoch is a fixed number of rounds (one reference per core each).
//! At each epoch boundary the simulator hands the sampler a cumulative
//! [`EpochSnapshot`] of its counters; the sampler diffs it against the
//! previous snapshot and appends one [`EpochSample`], so warmup drift,
//! steady state and fault-storm windows become visible as curves
//! instead of being folded into end-of-run sums.

use csim_fault::FaultStats;
use csim_proc::ExecBreakdown;

use crate::class::MissClass;

/// Cumulative machine-wide counters at one instant, as the simulator
/// aggregates them. Plain data: the sampler owns the diffing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochSnapshot {
    /// Rounds run so far (references per core).
    pub refs_per_node: u64,
    /// Execution-time breakdown summed over all nodes.
    pub breakdown: ExecBreakdown,
    /// Total L2 misses so far.
    pub misses: u64,
    /// Ownership upgrades so far.
    pub upgrades: u64,
    /// Directory NACKs so far.
    pub nacks: u64,
    /// Fault-injector counters so far.
    pub faults: FaultStats,
    /// The fault injector's current retry-feedback link utilization
    /// (an instantaneous gauge, not a counter).
    pub retry_rho: f64,
}

/// One closed epoch: everything is a delta over the epoch except
/// `retry_rho`, which is the gauge value at the epoch's end.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochSample {
    /// Epoch number, starting at 0 after the last stats reset.
    pub index: u64,
    /// Rounds run at the end of this epoch.
    pub end_ref: u64,
    /// Instructions retired during the epoch.
    pub instructions: u64,
    /// Cycles elapsed during the epoch (sum over nodes).
    pub cycles: f64,
    /// Where the epoch's cycles went, by execution-time component.
    pub stall: ExecBreakdown,
    /// Instructions per cycle over the epoch (0 when no cycles).
    pub ipc: f64,
    /// L2 misses per 1000 instructions over the epoch.
    pub mpki: f64,
    /// Latency-class event counts during the epoch, indexed by
    /// [`MissClass::index`].
    pub class_counts: [u64; MissClass::COUNT],
    /// Ownership upgrades during the epoch.
    pub upgrades: u64,
    /// Directory NACKs during the epoch.
    pub nacks: u64,
    /// Extra cycles the fault model charged during the epoch.
    pub fault_extra_cycles: u64,
    /// Retry attempts during the epoch.
    pub retries: u64,
    /// The injector's retry-feedback link utilization at epoch end.
    pub retry_rho: f64,
}

impl EpochSample {
    /// NACKs per 1000 rounds over the epoch.
    pub fn nack_rate_per_kref(&self, epoch_len: u64) -> f64 {
        if epoch_len == 0 {
            0.0
        } else {
            self.nacks as f64 * 1000.0 / epoch_len as f64
        }
    }
}

/// Collects [`EpochSample`]s from successive snapshots.
#[derive(Clone, Debug)]
pub struct EpochSeries {
    epoch_len: u64,
    prev: EpochSnapshot,
    prev_class_counts: [u64; MissClass::COUNT],
    samples: Vec<EpochSample>,
}

impl EpochSeries {
    /// A sampler closing one epoch every `epoch_len` references per
    /// node (clamped to at least 1).
    pub fn new(epoch_len: u64) -> Self {
        EpochSeries {
            epoch_len: epoch_len.max(1),
            prev: EpochSnapshot::default(),
            prev_class_counts: [0; MissClass::COUNT],
            samples: Vec::new(),
        }
    }

    /// The configured epoch length in rounds.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Closes one epoch: diffs `now` (and the observer's cumulative
    /// per-class counts) against the previous snapshot.
    pub fn close_epoch(&mut self, now: EpochSnapshot, class_counts: [u64; MissClass::COUNT]) {
        let stall = now.breakdown.delta(&self.prev.breakdown);
        let instructions = stall.instructions;
        let cycles = stall.total_cycles();
        let misses = now.misses - self.prev.misses;
        let mut deltas = [0u64; MissClass::COUNT];
        for (d, (a, b)) in deltas.iter_mut().zip(class_counts.iter().zip(&self.prev_class_counts)) {
            *d = a - b;
        }
        self.samples.push(EpochSample {
            index: self.samples.len() as u64,
            end_ref: now.refs_per_node,
            instructions,
            cycles,
            stall,
            ipc: if cycles > 0.0 { instructions as f64 / cycles } else { 0.0 },
            mpki: if instructions > 0 { misses as f64 * 1000.0 / instructions as f64 } else { 0.0 },
            class_counts: deltas,
            upgrades: now.upgrades - self.prev.upgrades,
            nacks: now.nacks - self.prev.nacks,
            fault_extra_cycles: now.faults.total_extra_cycles()
                - self.prev.faults.total_extra_cycles(),
            retries: now.faults.retries - self.prev.faults.retries,
            retry_rho: now.retry_rho,
        });
        self.prev = now;
        self.prev_class_counts = class_counts;
    }

    /// The closed epochs so far, oldest first. A trailing partial epoch
    /// (fewer than `epoch_len` references since the last boundary) is
    /// never emitted, so every sample covers the same interval.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// Clears all samples and baselines (stats-reset semantics).
    pub fn reset(&mut self) {
        self.prev = EpochSnapshot::default();
        self.prev_class_counts = [0; MissClass::COUNT];
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(refs: u64, instr: u64, cycles: f64, misses: u64, nacks: u64) -> EpochSnapshot {
        EpochSnapshot {
            refs_per_node: refs,
            breakdown: ExecBreakdown {
                instructions: instr,
                busy_cycles: cycles,
                ..Default::default()
            },
            misses,
            nacks,
            ..Default::default()
        }
    }

    #[test]
    fn samples_are_deltas_not_cumulative() {
        let mut s = EpochSeries::new(100);
        s.close_epoch(snap(100, 1000, 2000.0, 10, 3), [10, 0, 0, 0, 0, 0]);
        s.close_epoch(snap(200, 1600, 2600.0, 40, 3), [15, 25, 0, 0, 0, 0]);
        let [a, b] = s.samples() else { panic!("two samples") };
        assert_eq!(a.instructions, 1000);
        assert_eq!(b.instructions, 600);
        assert_eq!(a.nacks, 3);
        assert_eq!(b.nacks, 0);
        assert_eq!(b.class_counts, [5, 25, 0, 0, 0, 0]);
        assert_eq!(b.index, 1);
        assert_eq!(b.end_ref, 200);
        assert!((a.ipc - 0.5).abs() < 1e-12);
        assert!((a.mpki - 10.0).abs() < 1e-12);
        assert!((b.mpki - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_epochs_divide_safely() {
        let mut s = EpochSeries::new(10);
        s.close_epoch(EpochSnapshot { refs_per_node: 10, ..Default::default() }, [0; 6]);
        let sample = s.samples()[0];
        assert_eq!(sample.ipc, 0.0);
        assert_eq!(sample.mpki, 0.0);
        assert_eq!(sample.nack_rate_per_kref(10), 0.0);
    }

    #[test]
    fn reset_rebases_the_deltas() {
        let mut s = EpochSeries::new(100);
        s.close_epoch(snap(100, 500, 500.0, 5, 0), [5, 0, 0, 0, 0, 0]);
        s.reset();
        assert!(s.samples().is_empty());
        s.close_epoch(snap(100, 700, 700.0, 7, 0), [7, 0, 0, 0, 0, 0]);
        assert_eq!(s.samples()[0].instructions, 700, "baseline must restart at zero");
    }
}
