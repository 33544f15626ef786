//! In-order and out-of-order timing models.

use csim_config::{OooParams, ProcessorModel};

use crate::breakdown::{ExecBreakdown, StallClass};

/// A processor timing model: converts retired instructions and memory
/// events into execution time.
pub trait TimingModel {
    /// Accounts for one retired instruction (busy time).
    fn retire_instruction(&mut self, bd: &mut ExecBreakdown);

    /// Accounts for `n` consecutively retired instructions.
    ///
    /// Contract: must be bit-identical to calling [`retire_instruction`]
    /// `n` times. The default does exactly that; a model may override it
    /// with a closed form only when it can prove the rounding matches
    /// (see [`InOrderTiming`]'s override).
    ///
    /// [`retire_instruction`]: TimingModel::retire_instruction
    fn retire_instructions(&mut self, n: u64, bd: &mut ExecBreakdown) {
        for _ in 0..n {
            self.retire_instruction(bd);
        }
    }

    /// Accounts for a memory stall of `latency_cycles`, exposing however
    /// much of it the core cannot hide into the matching bucket of `bd`.
    fn stall(&mut self, class: StallClass, latency_cycles: u64, bd: &mut ExecBreakdown);
}

/// The paper's single-issue pipelined in-order core: CPI 1 plus fully
/// exposed memory latencies (stall-on-miss under sequential consistency).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InOrderTiming;

impl InOrderTiming {
    /// Creates the model.
    pub fn new() -> Self {
        InOrderTiming
    }
}

impl TimingModel for InOrderTiming {
    #[inline]
    fn retire_instruction(&mut self, bd: &mut ExecBreakdown) {
        bd.instructions += 1;
        bd.busy_cycles += 1.0;
    }

    /// Closed form of `n` unit retires. Exact, not approximate: under
    /// this model `busy_cycles` only ever grows by `1.0` (stalls charge
    /// the other buckets), so it holds an integer-valued f64. As long as
    /// `busy_cycles + n < 2^53`, every integer on the way is exact in f64:
    /// neither `n as f64` nor any of the additions rounds, so `n`
    /// separate `+= 1.0` steps and one `+= n as f64` produce the same
    /// bits. A run would have to retire about 9·10^15 instructions to
    /// reach the bound. This is what lets the simulator's batched
    /// dispatch retire a run of back-to-back instruction fetches in one
    /// call without breaking bit-identity with the per-reference oracle
    /// path. `tests/batch_identity.rs` checks that identity end to end,
    /// and `crates/proc/tests/closed_form.rs` checks this method against
    /// `n` calls of [`retire_instruction`] directly.
    ///
    /// [`retire_instruction`]: TimingModel::retire_instruction
    #[inline]
    fn retire_instructions(&mut self, n: u64, bd: &mut ExecBreakdown) {
        bd.instructions += n;
        bd.busy_cycles += n as f64;
    }

    #[inline]
    fn stall(&mut self, class: StallClass, latency_cycles: u64, bd: &mut ExecBreakdown) {
        bd.charge(class, latency_cycles as f64);
    }
}

/// Calibration constants for the out-of-order overlap model.
///
/// The model is analytical: the window hides `hide_cycles` of each stall
/// outright, and the exposed remainder is scaled by a per-class residual
/// overlap factor. The paper's Section 7 finds the *relative* benefits of
/// integration to be virtually identical for in-order and out-of-order
/// cores, which requires the hiding to be (close to) a fixed *fraction*
/// of each stall class rather than a fixed cycle count — so the default
/// calibration uses `hide_cycles = 0` with purely multiplicative
/// residuals. OLTP's dependent load chains leave little memory-level
/// parallelism, so even the "hidden" fractions are modest (consistent
/// with Ranganathan et al.'s user-level-trace study the paper cites).
/// Defaults reproduce the paper's 1.4x (uniprocessor) and 1.3x
/// (multiprocessor) OOO gains on the Base configurations; see
/// EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OooCalibration {
    /// Busy cycles per instruction (dependency-limited issue, > 1/width).
    pub base_cpi: f64,
    /// Stall cycles the window can overlap with useful work.
    pub hide_cycles: f64,
    /// Residual factor on the exposed part of short stalls (L2 hits).
    pub short_residual: f64,
    /// Residual factor on the exposed part of memory stalls.
    pub long_residual: f64,
}

impl Default for OooCalibration {
    fn default() -> Self {
        OooCalibration {
            base_cpi: 0.55,
            hide_cycles: 0.0,
            short_residual: 0.75,
            long_residual: 0.81,
        }
    }
}

impl OooCalibration {
    /// Derives the calibration from microarchitectural parameters. The
    /// residuals are calibrated for the paper's 4-wide, 64-entry core;
    /// only the dependency-limited busy CPI scales with issue width
    /// (wider issue buys little for OLTP, as the paper observes).
    pub fn from_params(params: OooParams) -> Self {
        let mut cal = OooCalibration::default();
        let width = f64::from(params.issue_width.max(1));
        cal.base_cpi = (2.2 / width).max(0.25);
        cal
    }
}

/// The paper's 4-issue, 64-entry-window out-of-order core as an analytical
/// latency-overlap model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OooTiming {
    cal: OooCalibration,
}

impl OooTiming {
    /// Creates the model from microarchitectural parameters.
    pub fn new(params: OooParams) -> Self {
        OooTiming { cal: OooCalibration::from_params(params) }
    }

    /// Creates the model from explicit calibration constants.
    pub fn with_calibration(cal: OooCalibration) -> Self {
        OooTiming { cal }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> OooCalibration {
        self.cal
    }
}

impl TimingModel for OooTiming {
    #[inline]
    fn retire_instruction(&mut self, bd: &mut ExecBreakdown) {
        bd.instructions += 1;
        bd.busy_cycles += self.cal.base_cpi;
    }

    #[inline]
    fn stall(&mut self, class: StallClass, latency_cycles: u64, bd: &mut ExecBreakdown) {
        let exposed = (latency_cycles as f64 - self.cal.hide_cycles).max(0.0);
        let residual = match class {
            StallClass::L2Hit => self.cal.short_residual,
            _ => self.cal.long_residual,
        };
        bd.charge(class, exposed * residual);
    }
}

/// Enum dispatch over the two timing models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Timing {
    /// Single-issue in-order.
    InOrder(InOrderTiming),
    /// Multiple-issue out-of-order.
    Ooo(OooTiming),
}

impl Timing {
    /// Builds the timing model selected by a [`ProcessorModel`].
    pub fn for_model(model: ProcessorModel) -> Timing {
        match model {
            ProcessorModel::InOrder => Timing::InOrder(InOrderTiming::new()),
            ProcessorModel::OutOfOrder(p) => Timing::Ooo(OooTiming::new(p)),
        }
    }
}

impl TimingModel for Timing {
    #[inline]
    fn retire_instruction(&mut self, bd: &mut ExecBreakdown) {
        match self {
            Timing::InOrder(t) => t.retire_instruction(bd),
            Timing::Ooo(t) => t.retire_instruction(bd),
        }
    }

    #[inline]
    fn retire_instructions(&mut self, n: u64, bd: &mut ExecBreakdown) {
        match self {
            // In-order takes its exact closed form; out-of-order keeps
            // the default per-instruction loop (its fractional CPI would
            // round differently under a closed form).
            Timing::InOrder(t) => t.retire_instructions(n, bd),
            Timing::Ooo(t) => t.retire_instructions(n, bd),
        }
    }

    #[inline]
    fn stall(&mut self, class: StallClass, latency_cycles: u64, bd: &mut ExecBreakdown) {
        match self {
            Timing::InOrder(t) => t.stall(class, latency_cycles, bd),
            Timing::Ooo(t) => t.stall(class, latency_cycles, bd),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calibration_round_trips_through_with_calibration() {
        let from_params = OooTiming::new(OooParams::default());
        let rebuilt = OooTiming::with_calibration(from_params.calibration());
        assert_eq!(from_params, rebuilt);
    }

    use super::*;

    #[test]
    fn in_order_exposes_full_latency() {
        let mut t = InOrderTiming::new();
        let mut bd = ExecBreakdown::default();
        t.retire_instruction(&mut bd);
        t.stall(StallClass::RemoteDirty, 275, &mut bd);
        assert_eq!(bd.instructions, 1);
        assert_eq!(bd.busy_cycles, 1.0);
        assert_eq!(bd.remote_dirty_cycles, 275.0);
    }

    #[test]
    fn ooo_hides_a_fixed_fraction_of_short_stalls() {
        // Multiplicative hiding preserves the paper's finding that the
        // relative gains of integration are identical for both cores: a
        // 15-cycle and a 25-cycle L2 hit are hidden in equal proportion.
        let mut t = OooTiming::new(OooParams::paper());
        let mut a = ExecBreakdown::default();
        let mut b = ExecBreakdown::default();
        t.stall(StallClass::L2Hit, 15, &mut a);
        t.stall(StallClass::L2Hit, 25, &mut b);
        let ratio = b.l2_hit_cycles / a.l2_hit_cycles;
        assert!((ratio - 25.0 / 15.0).abs() < 1e-9);
        assert!(a.l2_hit_cycles > 0.0 && a.l2_hit_cycles < 15.0);
    }

    #[test]
    fn ooo_exposes_most_of_long_stalls() {
        let mut t = OooTiming::new(OooParams::paper());
        let mut bd = ExecBreakdown::default();
        t.stall(StallClass::RemoteDirty, 275, &mut bd);
        let cal = t.calibration();
        let expected = (275.0 - cal.hide_cycles) * cal.long_residual;
        let _ = &expected;
        assert!((bd.remote_dirty_cycles - expected).abs() < 1e-9);
        // The exposed fraction must dominate: OLTP remote misses are hard
        // to hide (paper Section 7).
        assert!(bd.remote_dirty_cycles > 0.8 * 275.0);
    }

    #[test]
    fn ooo_busy_time_reflects_wider_issue() {
        let mut t = OooTiming::new(OooParams::paper());
        let mut bd = ExecBreakdown::default();
        for _ in 0..100 {
            t.retire_instruction(&mut bd);
        }
        assert_eq!(bd.instructions, 100);
        assert!(bd.busy_cycles < 100.0, "OOO busy CPI must beat in-order CPI 1");
    }

    #[test]
    fn busy_cpi_derives_from_issue_width() {
        let cal = OooCalibration::from_params(OooParams {
            issue_width: 8,
            window: 64,
            load_store_units: 2,
        });
        assert!(cal.base_cpi < OooCalibration::default().base_cpi);
        let narrow = OooCalibration::from_params(OooParams {
            issue_width: 1,
            window: 64,
            load_store_units: 2,
        });
        assert!(narrow.base_cpi > 1.0);
    }

    #[test]
    fn enum_dispatch_selects_model() {
        let mut bd_in = ExecBreakdown::default();
        let mut t = Timing::for_model(ProcessorModel::InOrder);
        t.retire_instruction(&mut bd_in);
        assert_eq!(bd_in.busy_cycles, 1.0);

        let mut bd_ooo = ExecBreakdown::default();
        let mut t = Timing::for_model(ProcessorModel::OutOfOrder(OooParams::paper()));
        t.retire_instruction(&mut bd_ooo);
        assert!(bd_ooo.busy_cycles < 1.0);
    }
}
