//! The fault injector: executes a [`FaultPlan`] deterministically.

use csim_noc::Contention;
use csim_trace::SimRng;

use crate::plan::FaultPlan;

/// Retry-traffic feedback horizon: `recent_retries` is halved every
/// this many directory transactions, so the utilization estimate tracks
/// the recent past instead of the whole run.
const FEEDBACK_WINDOW: u64 = 1024;

/// What kind of directory transaction is being injected into. The
/// kind decides which fault classes apply: memory-controller busy
/// periods hit fills serviced by a memory controller, link degradation
/// hits transactions that cross the interconnect, and NACK/retry
/// applies to every directory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransactionKind {
    /// A fill from the requester's own home memory (no NoC crossing).
    LocalMemory,
    /// A 2-hop fill from a remote home's memory.
    RemoteClean,
    /// A 3-hop fill from dirty data in a remote cache (no memory
    /// controller on the critical path).
    RemoteDirty,
}

/// Everything the injector did during the measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Directory NACKs delivered (initial attempts and retries).
    pub nacks: u64,
    /// Retry attempts issued after a NACK.
    pub retries: u64,
    /// Cycles spent backing off before retries.
    pub backoff_cycles: u64,
    /// Total extra cycles charged by the NACK/retry path (backoff plus
    /// re-traversal, including contention inflation).
    pub retry_cycles: u64,
    /// Times the retry budget ran out and the livelock watchdog forced
    /// the transaction through.
    pub watchdog_trips: u64,
    /// Transactions inflated by a degraded link.
    pub degraded_txns: u64,
    /// Extra cycles charged by link degradation.
    pub degraded_extra_cycles: u64,
    /// Memory fills that hit a busy memory controller.
    pub mc_busy_txns: u64,
    /// Extra cycles charged by busy memory controllers.
    pub mc_extra_cycles: u64,
}

impl FaultStats {
    /// Total extra cycles the fault model charged.
    pub fn total_extra_cycles(&self) -> u64 {
        self.retry_cycles + self.degraded_extra_cycles + self.mc_extra_cycles
    }

    /// The component-wise change from `earlier` to `self`. The
    /// observability layer diffs counter snapshots with this to derive
    /// per-transaction and per-epoch fault activity; `earlier` must be
    /// an earlier snapshot of the same accumulator.
    pub fn delta(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            nacks: self.nacks - earlier.nacks,
            retries: self.retries - earlier.retries,
            backoff_cycles: self.backoff_cycles - earlier.backoff_cycles,
            retry_cycles: self.retry_cycles - earlier.retry_cycles,
            watchdog_trips: self.watchdog_trips - earlier.watchdog_trips,
            degraded_txns: self.degraded_txns - earlier.degraded_txns,
            degraded_extra_cycles: self.degraded_extra_cycles - earlier.degraded_extra_cycles,
            mc_busy_txns: self.mc_busy_txns - earlier.mc_busy_txns,
            mc_extra_cycles: self.mc_extra_cycles - earlier.mc_extra_cycles,
        }
    }

    /// Accumulates another set of counters.
    pub fn merge(&mut self, other: &FaultStats) {
        self.nacks += other.nacks;
        self.retries += other.retries;
        self.backoff_cycles += other.backoff_cycles;
        self.retry_cycles += other.retry_cycles;
        self.watchdog_trips += other.watchdog_trips;
        self.degraded_txns += other.degraded_txns;
        self.degraded_extra_cycles += other.degraded_extra_cycles;
        self.mc_busy_txns += other.mc_busy_txns;
        self.mc_extra_cycles += other.mc_extra_cycles;
    }
}

/// Deterministic executor of a [`FaultPlan`].
///
/// The injector owns its own [`SimRng`] stream: the same `(plan, seed)`
/// pair replays the same fault sequence regardless of the workload seed.
/// An injector whose plan [`FaultPlan::is_active`] is false never draws
/// from the RNG and never charges a cycle, so wiring one in is free.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
    rng: SimRng,
    contention: Contention,
    stats: FaultStats,
    /// Exponentially decayed count of recent retries (feedback source).
    recent_retries: u64,
    /// Transactions seen since the last feedback decay.
    window_txns: u64,
}

impl FaultInjector {
    /// Builds an injector for `plan`, validating it first.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FaultPlanError::Invalid`] when the plan fails
    /// [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, seed: u64) -> Result<Self, crate::FaultPlanError> {
        plan.validate()?;
        let active = plan.is_active();
        Ok(FaultInjector {
            plan,
            active,
            rng: SimRng::seed_from_u64(seed),
            contention: Contention::default(),
            stats: FaultStats::default(),
            recent_retries: 0,
            window_txns: 0,
        })
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the plan can ever perturb a run.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Counters accumulated since construction or the last
    /// [`FaultInjector::reset_stats`].
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Clears the counters (the RNG stream and feedback state are
    /// deliberately kept: fault positions must not depend on when
    /// statistics were reset).
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// The latency multiplier a degraded link imposes at reference
    /// index `now` (1.0 outside every window). Overlapping windows
    /// compound multiplicatively.
    pub(crate) fn link_multiplier(&self, now: u64) -> f64 {
        let mut m = 1.0;
        for f in &self.plan.link_faults {
            if f.covers(now) {
                m *= self.contention.degraded_inflation(self.retry_rho(), f.capacity);
            }
        }
        m
    }

    /// Extra cycles a busy memory controller adds at reference index
    /// `now` (0 outside every window). Overlapping windows add up.
    pub(crate) fn mc_extra(&self, now: u64) -> u64 {
        self.plan.mc_faults.iter().filter(|f| f.covers(now)).map(|f| f.extra_cycles).sum()
    }

    /// Applies the whole fault model to one directory transaction of
    /// `kind` with fault-free latency `base_cycles` at reference index
    /// `now`, returning the (possibly inflated) latency to charge.
    ///
    /// Inactive injectors return `base_cycles` unchanged without
    /// touching the RNG.
    pub fn transaction_latency(
        &mut self,
        now: u64,
        kind: TransactionKind,
        base_cycles: u64,
    ) -> u64 {
        if !self.active {
            return base_cycles;
        }
        let mut latency = base_cycles;

        // Link degradation: remote transactions cross the NoC.
        if kind != TransactionKind::LocalMemory {
            let m = self.link_multiplier(now);
            if m != 1.0 {
                let inflated = (latency as f64 * m).round() as u64;
                self.stats.degraded_txns += 1;
                self.stats.degraded_extra_cycles += inflated - latency;
                latency = inflated;
            }
        }

        // Memory-controller busy periods: fills serviced by a memory
        // controller (3-hop fills come from a remote cache instead).
        if kind != TransactionKind::RemoteDirty {
            let extra = self.mc_extra(now);
            if extra > 0 {
                self.stats.mc_busy_txns += 1;
                self.stats.mc_extra_cycles += extra;
                latency += extra;
            }
        }

        latency + self.nack_retry_extra(base_cycles)
    }

    /// Extra cycles a local memory fetch pays (memory-controller busy
    /// periods only — no directory transaction is involved, e.g. for
    /// OS-replicated instruction pages).
    pub fn memory_fetch_extra(&mut self, now: u64) -> u64 {
        if !self.active {
            return 0;
        }
        let extra = self.mc_extra(now);
        if extra > 0 {
            self.stats.mc_busy_txns += 1;
            self.stats.mc_extra_cycles += extra;
        }
        extra
    }

    /// Rolls the NACK dice for a fire-and-forget writeback message.
    /// Writebacks are off the processor's critical path, so a NACK here
    /// costs no core cycles but does add retry traffic to the feedback
    /// model.
    pub fn writeback(&mut self) {
        if !self.active || self.plan.nack.prob == 0.0 {
            return;
        }
        if self.rng.gen_bool(self.plan.nack.prob) {
            self.stats.nacks += 1;
            self.stats.retries += 1;
            self.recent_retries += 1;
        }
    }

    /// The *offered* link load the retry-feedback traffic currently
    /// implies, unclamped (see [`Contention::offered_utilization`]).
    /// An observability gauge: epoch time-series sample it to make
    /// retry storms visible as a curve, including how far past
    /// saturation they push.
    pub fn retry_utilization(&self) -> f64 {
        if !self.active {
            return 0.0;
        }
        let msgs_per_txn = self.recent_retries as f64 / FEEDBACK_WINDOW as f64;
        self.contention.offered_utilization(
            msgs_per_txn,
            self.plan.network.mean_hops,
            self.plan.network.line_cycles,
            1.0,
        )
    }

    /// Link utilization currently contributed by retry traffic: the
    /// feedback path that makes dense retry storms inflate each other.
    fn retry_rho(&self) -> f64 {
        let msgs_per_txn = self.recent_retries as f64 / FEEDBACK_WINDOW as f64;
        self.contention.utilization(
            msgs_per_txn,
            self.plan.network.mean_hops,
            self.plan.network.line_cycles,
            1.0,
        )
    }

    /// The NACK/retry/backoff state machine for one transaction.
    fn nack_retry_extra(&mut self, base_cycles: u64) -> u64 {
        if self.plan.nack.prob == 0.0 {
            return 0;
        }
        self.decay_feedback();
        if !self.rng.gen_bool(self.plan.nack.prob) {
            return 0; // accepted first try
        }
        self.stats.nacks += 1;
        let policy = self.plan.nack.retry;
        let mut extra = 0u64;
        let mut attempt = 0u32;
        loop {
            if attempt >= policy.max_retries {
                // Livelock watchdog: the retry budget is gone. Real
                // hardware escalates to a guaranteed-progress mode; we
                // model that as the transaction being forced through at
                // no further cost, recorded for the report.
                self.stats.watchdog_trips += 1;
                break;
            }
            let backoff = policy.backoff(attempt);
            self.stats.backoff_cycles += backoff;
            extra += backoff;
            // The retry re-traverses the network; recent retry traffic
            // inflates it through the contention model.
            let retry_cost = self.contention.inflate(base_cycles as f64, self.retry_rho());
            extra += retry_cost.round() as u64;
            self.stats.retries += 1;
            self.recent_retries += 1;
            attempt += 1;
            if !self.rng.gen_bool(self.plan.nack.prob) {
                break; // retry accepted
            }
            self.stats.nacks += 1;
        }
        self.stats.retry_cycles += extra;
        extra
    }

    fn decay_feedback(&mut self) {
        self.window_txns += 1;
        if self.window_txns >= FEEDBACK_WINDOW {
            self.window_txns = 0;
            self.recent_retries /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LinkFault, McFault, NackPlan, RetryPolicy};

    fn nack_only(prob: f64) -> FaultPlan {
        FaultPlan { nack: NackPlan { prob, retry: RetryPolicy::default() }, ..FaultPlan::none() }
    }

    #[test]
    fn inactive_injector_is_a_no_op() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 42).unwrap();
        assert!(!inj.is_active());
        for now in 0..100 {
            assert_eq!(inj.transaction_latency(now, TransactionKind::RemoteDirty, 200), 200);
            assert_eq!(inj.memory_fetch_extra(now), 0);
            inj.writeback();
        }
        assert_eq!(*inj.stats(), FaultStats::default());
        // The RNG was never advanced: a fresh injector's stream matches.
        let mut a = inj.rng.clone();
        let mut b = SimRng::seed_from_u64(42);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stats_delta_inverts_merge() {
        let mut inj = FaultInjector::new(nack_only(0.5), 3).unwrap();
        for now in 0..500 {
            inj.transaction_latency(now, TransactionKind::RemoteClean, 175);
        }
        let mid = *inj.stats();
        for now in 500..1_000 {
            inj.transaction_latency(now, TransactionKind::RemoteClean, 175);
        }
        let end = *inj.stats();
        let second_half = end.delta(&mid);
        let mut recombined = mid;
        recombined.merge(&second_half);
        assert_eq!(recombined, end);
        assert!(second_half.nacks < end.nacks, "both halves saw NACKs at 50%");
    }

    #[test]
    fn retry_utilization_rises_under_a_storm_and_is_zero_when_inactive() {
        let mut idle = FaultInjector::new(FaultPlan::none(), 0).unwrap();
        idle.transaction_latency(0, TransactionKind::RemoteClean, 175);
        assert_eq!(idle.retry_utilization(), 0.0);

        let mut stormy = FaultInjector::new(nack_only(0.9), 11).unwrap();
        assert_eq!(stormy.retry_utilization(), 0.0, "no traffic yet");
        for now in 0..200 {
            stormy.transaction_latency(now, TransactionKind::RemoteClean, 175);
        }
        assert!(stormy.retry_utilization() > 0.0, "a 90% NACK storm generates retry load");
    }

    #[test]
    fn new_rejects_invalid_plans() {
        let plan = nack_only(2.0);
        assert!(FaultInjector::new(plan, 0).is_err());
    }

    #[test]
    fn same_plan_and_seed_replay_identically() {
        let run = || {
            let mut inj = FaultInjector::new(FaultPlan::storm(), 7).unwrap();
            let mut total = 0u64;
            for now in 0..30_000 {
                total += inj.transaction_latency(now, TransactionKind::RemoteClean, 175);
                inj.writeback();
            }
            (total, *inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut inj = FaultInjector::new(nack_only(0.2), seed).unwrap();
            (0..5_000)
                .map(|now| inj.transaction_latency(now, TransactionKind::RemoteClean, 175))
                .sum::<u64>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn nacks_charge_backoff_and_retries() {
        let mut inj = FaultInjector::new(nack_only(1.0), 3).unwrap();
        // prob = 1.0: every attempt is NACKed until the budget runs out.
        let base = 100;
        let got = inj.transaction_latency(0, TransactionKind::RemoteClean, base);
        let s = *inj.stats();
        assert_eq!(s.watchdog_trips, 1, "budget must exhaust at prob 1");
        assert_eq!(s.retries, u64::from(RetryPolicy::default().max_retries));
        assert!(s.backoff_cycles > 0);
        assert!(got > base, "retries cost cycles: got {got}");
        assert_eq!(s.retry_cycles, got - base);
    }

    #[test]
    fn watchdog_guarantees_forward_progress() {
        // Even at prob 1.0 with a generous budget, a long run terminates
        // and every transaction completes (no hang, no panic).
        let plan = FaultPlan {
            nack: NackPlan {
                prob: 1.0,
                retry: RetryPolicy { max_retries: 64, ..RetryPolicy::default() },
            },
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 9).unwrap();
        for now in 0..1_000 {
            let _ = inj.transaction_latency(now, TransactionKind::LocalMemory, 70);
        }
        assert_eq!(inj.stats().watchdog_trips, 1_000);
    }

    #[test]
    fn link_windows_inflate_only_remote_transactions() {
        let plan = FaultPlan {
            link_faults: vec![LinkFault { start: 10, duration: 10, capacity: 0.5 }],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 0).unwrap();
        assert_eq!(inj.transaction_latency(0, TransactionKind::RemoteClean, 100), 100);
        assert_eq!(inj.transaction_latency(15, TransactionKind::LocalMemory, 100), 100);
        let inflated = inj.transaction_latency(15, TransactionKind::RemoteClean, 100);
        assert_eq!(inflated, 200, "half capacity doubles an uncontended link");
        assert_eq!(inj.stats().degraded_txns, 1);
        assert_eq!(inj.stats().degraded_extra_cycles, 100);
        assert_eq!(inj.transaction_latency(25, TransactionKind::RemoteClean, 100), 100);
    }

    #[test]
    fn mc_windows_hit_memory_fills_but_not_dirty_fills() {
        let plan = FaultPlan {
            mc_faults: vec![McFault { start: 0, duration: 100, extra_cycles: 30 }],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 0).unwrap();
        assert_eq!(inj.transaction_latency(5, TransactionKind::LocalMemory, 70), 100);
        assert_eq!(inj.transaction_latency(5, TransactionKind::RemoteClean, 175), 205);
        assert_eq!(inj.transaction_latency(5, TransactionKind::RemoteDirty, 200), 200);
        assert_eq!(inj.memory_fetch_extra(5), 30);
        assert_eq!(inj.memory_fetch_extra(500), 0);
        assert_eq!(inj.stats().mc_busy_txns, 3);
        assert_eq!(inj.stats().mc_extra_cycles, 90);
    }

    #[test]
    fn retry_storms_inflate_subsequent_retries() {
        // With heavy NACKs the feedback term grows, so late retries cost
        // more than early ones on average.
        let mut inj = FaultInjector::new(nack_only(0.9), 11).unwrap();
        let early: u64 =
            (0..200).map(|n| inj.transaction_latency(n, TransactionKind::RemoteClean, 175)).sum();
        // Saturate the feedback window.
        for n in 200..800 {
            let _ = inj.transaction_latency(n, TransactionKind::RemoteClean, 175);
        }
        let late: u64 = (800..1000)
            .map(|n| inj.transaction_latency(n, TransactionKind::RemoteClean, 175))
            .sum();
        assert!(late > early, "retry feedback must compound: early {early}, late {late}");
    }

    #[test]
    fn reset_stats_keeps_the_fault_sequence() {
        let seq = |reset_at: Option<u64>| {
            let mut inj = FaultInjector::new(nack_only(0.3), 5).unwrap();
            let mut out = Vec::new();
            for now in 0..2_000 {
                if reset_at == Some(now) {
                    inj.reset_stats();
                }
                out.push(inj.transaction_latency(now, TransactionKind::RemoteClean, 175));
            }
            out
        };
        assert_eq!(seq(None), seq(Some(1_000)), "resetting stats must not move faults");
    }

    #[test]
    fn stats_merge_and_total() {
        let mut a = FaultStats { nacks: 1, retries: 2, retry_cycles: 10, ..Default::default() };
        let b = FaultStats {
            mc_extra_cycles: 5,
            degraded_extra_cycles: 7,
            watchdog_trips: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nacks, 1);
        assert_eq!(a.watchdog_trips, 1);
        assert_eq!(a.total_extra_cycles(), 22);
    }
}
