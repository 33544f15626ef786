//! Exact attribution of simulated cycles to hardware components.
//!
//! The paper's figures decompose OLTP execution time into stall
//! components per integration level; the simulator's latency tables are
//! end-to-end numbers (an L2 hit costs 15ns total, a remote dirty miss
//! costs one 3-hop round trip total). This module splits every charged
//! latency into per-component contributions using a fixed, documented
//! model (see DESIGN.md §14), with one invariant that makes the split
//! trustworthy: **the components of a reference always sum to exactly
//! the cycles charged for it**, so per-class attribution totals
//! reconcile cycle-for-cycle with the observer's latency histograms.
//!
//! The split of a latency `actual` charged with fault-free base `base`
//! against miss shape `shape`:
//!
//! 1. `attributable = min(base, actual)` — the fault-free portion.
//! 2. L1 probe: the first 2 cycles (every miss first probed L1).
//! 3. L2 array: for an L2 hit, the whole remainder; otherwise the L2
//!    lookup that missed, `min(l2_hit - l1, remainder)`.
//! 4. The rest is the memory-system trip, split by shape: directory
//!    occupancy gets 1/5; NoC hops get 0/5 (local), 2/5 (2-hop clean)
//!    or 3/5 (3-hop dirty); the MC queue gets the exact remainder, so
//!    integer division can never leak cycles.
//! 5. Anything above `base` (retry backoff, injected degradation) is
//!    fault extra: `actual - attributable`.

use csim_obs::json::Json;
use csim_obs::MissClass;
use csim_proc::StallClass;
use csim_stats::Bar;

/// The hardware components simulated cycles are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// The L1 probe that missed (fixed 2-cycle cost).
    L1Probe,
    /// The L2 array lookup (hit service, or the lookup that missed).
    L2Array,
    /// Directory lookup and occupancy at the home node.
    Directory,
    /// Network-on-chip/board hop traversal (2-hop clean, 3-hop dirty).
    NocHops,
    /// Memory-controller queueing and DRAM access.
    McQueue,
    /// Cycles above the fault-free base: NACK backoff, retries,
    /// injected link/MC degradation.
    FaultExtra,
}

impl Component {
    /// Every component, in display order. JSON exports, stacked bars
    /// and tables all iterate in this order so output is stable.
    pub const ALL: [Component; 6] = [
        Component::L1Probe,
        Component::L2Array,
        Component::Directory,
        Component::NocHops,
        Component::McQueue,
        Component::FaultExtra,
    ];

    /// Number of components (array-index domain for accumulators).
    pub const COUNT: usize = Self::ALL.len();

    /// A dense index in `0..COUNT`, matching the order of [`Self::ALL`].
    pub fn index(self) -> usize {
        match self {
            Component::L1Probe => 0,
            Component::L2Array => 1,
            Component::Directory => 2,
            Component::NocHops => 3,
            Component::McQueue => 4,
            Component::FaultExtra => 5,
        }
    }

    /// The stable machine-readable name used in JSON and legends.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::L1Probe => "l1-probe",
            Component::L2Array => "l2-array",
            Component::Directory => "directory",
            Component::NocHops => "noc-hops",
            Component::McQueue => "mc-queue",
            Component::FaultExtra => "fault-extra",
        }
    }
}

/// Cycles the L1 probe preceding every recorded latency accounts for.
const L1_PROBE_CYCLES: u64 = 2;

/// Per-miss-class, per-component cycle accumulator.
///
/// Cells are `u128` so the reconciliation against
/// [`csim_obs::LatencyHistogram`]'s exact `u128` sums can never be
/// broken by overflow, no matter how long the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribution {
    /// The configuration's end-to-end L2 hit latency, used to size the
    /// L2-array share of misses.
    l2_hit: u64,
    cells: [[u128; Component::COUNT]; MissClass::COUNT],
    counts: [u64; MissClass::COUNT],
}

impl Attribution {
    /// An empty accumulator for a configuration whose end-to-end L2 hit
    /// latency is `l2_hit` cycles.
    pub fn new(l2_hit: u64) -> Self {
        Attribution {
            l2_hit,
            cells: [[0; Component::COUNT]; MissClass::COUNT],
            counts: [0; MissClass::COUNT],
        }
    }

    /// The L2 hit latency this accumulator splits against.
    pub fn l2_hit_latency(&self) -> u64 {
        self.l2_hit
    }

    /// Records one charged reference: `actual` cycles charged, with
    /// fault-free base `base`, recorded under histogram row `class`,
    /// split according to miss shape `shape`. The component shares sum
    /// to exactly `actual`.
    #[inline]
    pub fn record(&mut self, class: MissClass, shape: StallClass, base: u64, actual: u64) {
        let attributable = base.min(actual);
        let l1 = L1_PROBE_CYCLES.min(attributable);
        let after_l1 = attributable - l1;
        let l2 = match shape {
            StallClass::L2Hit => after_l1,
            _ => self.l2_hit.saturating_sub(l1).min(after_l1),
        };
        let trip = after_l1 - l2;
        let dir = trip / 5;
        let noc = match shape {
            StallClass::L2Hit | StallClass::Local => 0,
            StallClass::RemoteClean => 2 * (trip / 5),
            StallClass::RemoteDirty => 3 * (trip / 5),
        };
        let mc = trip - dir - noc;
        let fault = actual - attributable;
        // In `Component::ALL` order, which is the index order.
        let shares = [l1, l2, dir, noc, mc, fault];
        if let Some(row) = self.cells.get_mut(class.index()) {
            for (cell, share) in row.iter_mut().zip(shares) {
                *cell += u128::from(share);
            }
        }
        if let Some(n) = self.counts.get_mut(class.index()) {
            *n += 1;
        }
    }

    /// Records NACK/retry backoff cycles: pure fault overhead with no
    /// fault-free base, so the whole latency lands in
    /// [`Component::FaultExtra`] under [`MissClass::NackRetry`].
    #[inline]
    pub fn record_nack(&mut self, cycles: u64) {
        let class = MissClass::NackRetry.index();
        let row = self.cells.get_mut(class);
        if let Some(cell) = row.and_then(|row| row.get_mut(Component::FaultExtra.index())) {
            *cell += u128::from(cycles);
        }
        if let Some(n) = self.counts.get_mut(class) {
            *n += 1;
        }
    }

    /// Cycles attributed to `component` under `class`.
    pub fn cell(&self, class: MissClass, component: Component) -> u128 {
        let row = self.cells.get(class.index());
        row.and_then(|row| row.get(component.index())).copied().unwrap_or(0)
    }

    /// References recorded under `class`.
    pub fn class_count(&self, class: MissClass) -> u64 {
        self.counts.get(class.index()).copied().unwrap_or(0)
    }

    /// Total cycles recorded under `class` (sum over components) —
    /// exactly the observer histogram's sum for the same class.
    pub fn class_cycles(&self, class: MissClass) -> u128 {
        self.cells.get(class.index()).map_or(0, |row| row.iter().sum())
    }

    /// Total cycles attributed to `component` across all classes.
    pub fn component_cycles(&self, component: Component) -> u128 {
        self.cells.iter().filter_map(|row| row.get(component.index())).sum()
    }

    /// Total cycles recorded, across every class and component.
    pub fn total_cycles(&self) -> u128 {
        self.cells.iter().flatten().sum()
    }

    /// Accumulates `other` into `self` (element-wise, so merging is
    /// associative and commutative and equals recording the union of
    /// both reference sets).
    ///
    /// # Panics
    ///
    /// Panics if the accumulators were built against different L2 hit
    /// latencies (their splits would not be comparable).
    pub fn merge(&mut self, other: &Attribution) {
        assert_eq!(
            self.l2_hit, other.l2_hit,
            "cannot merge attributions split against different L2 hit latencies"
        );
        for (mine, theirs) in self.cells.iter_mut().zip(other.cells.iter()) {
            for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                *a += b;
            }
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The accumulator as one stacked bar labeled `label`: one segment
    /// per component, in cycles. Feed several of these (one per
    /// integration level) to a `BarChart` + `normalized_to_first` for
    /// the paper's figure style.
    pub fn to_bar(&self, label: &str) -> Bar {
        let mut bar = Bar::new(label);
        for comp in Component::ALL {
            bar = bar.with(comp.as_str(), u128_to_f64(self.component_cycles(comp)));
        }
        bar
    }

    /// Deterministic JSON: per-class counts and component cycles plus
    /// cross-class totals, iterated in `ALL` order.
    pub fn to_json(&self) -> Json {
        let classes = MissClass::ALL
            .iter()
            .map(|&class| {
                let comps = Component::ALL
                    .iter()
                    .map(|&c| (c.as_str().to_string(), uint128(self.cell(class, c))))
                    .collect();
                (
                    class.as_str().to_string(),
                    Json::obj([
                        ("count", Json::UInt(self.class_count(class))),
                        ("cycles", Json::Obj(comps)),
                        ("total_cycles", uint128(self.class_cycles(class))),
                    ]),
                )
            })
            .collect();
        let totals = Component::ALL
            .iter()
            .map(|&c| (c.as_str().to_string(), uint128(self.component_cycles(c))))
            .collect();
        Json::obj([
            ("l2_hit_latency", Json::UInt(self.l2_hit)),
            ("classes", Json::Obj(classes)),
            ("component_totals", Json::Obj(totals)),
            ("total_cycles", uint128(self.total_cycles())),
        ])
    }
}

/// Narrows an exact `u128` cycle total for JSON. Saturates at
/// `u64::MAX` — unreachable in practice (5.8 million years at 100k
/// cycles per nanosecond-class reference).
fn uint128(v: u128) -> Json {
    Json::UInt(v.min(u128::from(u64::MAX)) as u64)
}

fn u128_to_f64(v: u128) -> f64 {
    v as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_exactly_to_the_charged_latency() {
        let mut a = Attribution::new(22);
        for (shape, base, actual) in [
            (StallClass::L2Hit, 22u64, 22u64),
            (StallClass::Local, 120, 120),
            (StallClass::RemoteClean, 400, 463),
            (StallClass::RemoteDirty, 671, 671),
            (StallClass::Local, 1, 1),
            (StallClass::RemoteDirty, 0, 0),
            (StallClass::RemoteClean, 500, 380), // injector shortened
        ] {
            let before = a.total_cycles();
            a.record(MissClass::from_stall(shape), shape, base, actual);
            assert_eq!(
                a.total_cycles() - before,
                u128::from(actual),
                "split must be exact for base={base} actual={actual} shape={shape:?}"
            );
        }
    }

    #[test]
    fn l2_hits_land_in_probe_and_array_only() {
        let mut a = Attribution::new(22);
        a.record(MissClass::L2Hit, StallClass::L2Hit, 22, 22);
        assert_eq!(a.cell(MissClass::L2Hit, Component::L1Probe), 2);
        assert_eq!(a.cell(MissClass::L2Hit, Component::L2Array), 20);
        assert_eq!(a.cell(MissClass::L2Hit, Component::Directory), 0);
        assert_eq!(a.class_cycles(MissClass::L2Hit), 22);
        assert_eq!(a.class_count(MissClass::L2Hit), 1);
    }

    #[test]
    fn remote_dirty_trip_weights_noc_heaviest() {
        let mut a = Attribution::new(22);
        a.record(MissClass::RemoteDirty, StallClass::RemoteDirty, 672, 672);
        // attributable 672, l1 2, l2 20, trip 650: dir 130, noc 390, mc 130.
        assert_eq!(a.cell(MissClass::RemoteDirty, Component::Directory), 130);
        assert_eq!(a.cell(MissClass::RemoteDirty, Component::NocHops), 390);
        assert_eq!(a.cell(MissClass::RemoteDirty, Component::McQueue), 130);
        assert!(
            a.cell(MissClass::RemoteDirty, Component::NocHops)
                > a.cell(MissClass::RemoteDirty, Component::Directory)
        );
    }

    #[test]
    fn cycles_above_base_are_fault_extra() {
        let mut a = Attribution::new(22);
        a.record(MissClass::Local, StallClass::Local, 100, 160);
        assert_eq!(a.cell(MissClass::Local, Component::FaultExtra), 60);
        assert_eq!(a.class_cycles(MissClass::Local), 160);
        a.record_nack(75);
        assert_eq!(a.cell(MissClass::NackRetry, Component::FaultExtra), 75);
        assert_eq!(a.class_count(MissClass::NackRetry), 1);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let mut left = Attribution::new(22);
        let mut right = Attribution::new(22);
        let mut whole = Attribution::new(22);
        for (i, (shape, lat)) in
            [(StallClass::L2Hit, 22u64), (StallClass::Local, 133), (StallClass::RemoteDirty, 700)]
                .into_iter()
                .enumerate()
        {
            let class = MissClass::from_stall(shape);
            if i % 2 == 0 {
                left.record(class, shape, lat, lat);
            } else {
                right.record(class, shape, lat, lat);
            }
            whole.record(class, shape, lat, lat);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "different L2 hit latencies")]
    fn merging_mismatched_l2_hit_panics() {
        let mut a = Attribution::new(22);
        a.merge(&Attribution::new(30));
    }

    #[test]
    fn json_is_deterministic_and_carries_every_class() {
        let mut a = Attribution::new(22);
        a.record(MissClass::L2Hit, StallClass::L2Hit, 22, 22);
        a.record_nack(9);
        let s = a.to_json().to_string();
        assert_eq!(s, a.to_json().to_string());
        csim_obs::json::validate(&s).unwrap();
        for class in MissClass::ALL {
            assert!(s.contains(&format!("\"{}\"", class.as_str())), "missing {class}");
        }
        assert!(s.contains("\"total_cycles\":31"));
    }

    #[test]
    fn bar_segments_follow_component_order() {
        let mut a = Attribution::new(22);
        a.record(MissClass::RemoteClean, StallClass::RemoteClean, 500, 500);
        let bar = a.to_bar("On-chip L2");
        assert_eq!(bar.components().len(), Component::COUNT);
        assert_eq!(bar.components()[0].0, "l1-probe");
        assert!((bar.total() - 500.0).abs() < 1e-9);
    }
}
