//! The deterministic, crash-safe parallel execution engine.
//!
//! Grid points are fully independent simulations — no shared mutable
//! state, seeds fixed at plan-load time — so parallelism is a pure
//! scheduling concern. Workers claim the next point to run with one
//! atomic counter and send each outcome over a channel to the calling
//! thread, the sweep's only writer: it appends the outcome to the
//! checkpoint log and parks it in its index slot, and the merged report
//! is assembled in index order afterwards. The worker count therefore
//! affects wall-clock time only: `run_sweep(plan, 1)` and
//! `run_sweep(plan, 8)` produce byte-identical reports (a contract
//! enforced by `tests/sweep_identity.rs`).
//!
//! On top of that PR-4 contract this engine layers the crash-safety
//! model (DESIGN.md §13):
//!
//! * **Failure isolation** — a point that panics or returns an error is
//!   caught at the worker boundary ([`std::panic::catch_unwind`]),
//!   retried with the deterministic capped backoff discipline shared
//!   with `csim-fault` ([`RetryPolicy`]), and, once the budget is
//!   exhausted, recorded as a structured [`PointFailure`] entry in the
//!   report instead of aborting the sweep.
//! * **Sharding** — a [`Shard`] restricts execution to a deterministic
//!   round-robin slice of the grid. A shard's result is its checkpoint
//!   log, and [`merge_logs`] reassembles the logs of all shards into
//!   the byte-identical full report: a resume with nothing left to run.
//! * **Checkpointing** — with [`SweepConfig::checkpoint`] set, every
//!   completed point is appended to a CRC-guarded log; a restarted
//!   sweep skips completed points and still emits a report
//!   byte-identical to an uninterrupted run (see [`crate::checkpoint`]).
//! * **Straggler watchdog** — with [`SweepConfig::time_points`] on,
//!   per-point wall times are collected through `csim-obs`'s
//!   [`PhaseProfile`] machinery and points slower than
//!   [`SweepConfig::straggler_mult`] × the median are flagged. All
//!   timing is opt-in: when off, no clock is ever read and the engine
//!   is fully deterministic.

use std::panic::RefUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use csim_config::SystemConfig;
use csim_core::{run_report_json, SimError, Simulation};
use csim_fault::RetryPolicy;
use csim_obs::json::Json;
use csim_obs::{version_string, PhaseProfile, RunManifest};
use csim_trace::ReferenceStream;
use csim_workload::OltpParams;

use crate::checkpoint::{self, CheckpointLog};
use crate::grid::RunSpec;
use crate::plan::{integration_short_name, SweepError, SweepPlan};
use crate::shard::Shard;

/// Schema tag written into every merged sweep report, bumped on breaking
/// layout changes so downstream readers can dispatch.
pub const SWEEP_REPORT_SCHEMA: &str = "csim-sweep-report/v1";

/// The paper-style headline numbers of one run, carried alongside the
/// full report document so the CLI table (and the checkpoint log) do
/// not need the whole `SimReport`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// Cycles per instruction.
    pub cpi: f64,
    /// L2 misses per thousand instructions.
    pub mpki: f64,
    /// Total L2 misses.
    pub l2_misses: u64,
    /// Completed transactions.
    pub transactions: u64,
}

/// The result of one successfully executed grid point.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Position of this point in [`SweepPlan::expand`] order.
    pub index: usize,
    /// The point's stable label (`RunSpec::label`).
    pub label: String,
    /// The workload seed the point ran with.
    pub seed: u64,
    /// Headline numbers for the CLI table.
    pub summary: RunSummary,
    /// Its full `csim-run-report/v1` document (no profile section, so
    /// the bytes are deterministic).
    pub doc: Json,
}

/// A grid point that kept failing after every retry: the structured
/// report entry that replaces its run document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Position of this point in [`SweepPlan::expand`] order.
    pub index: usize,
    /// The point's stable label.
    pub label: String,
    /// The workload seed the point would have run with.
    pub seed: u64,
    /// Attempts made (the first try plus every retry).
    pub attempts: u32,
    /// The last attempt's error or panic message.
    pub error: String,
}

/// One grid point's outcome: a completed run or a structured failure.
#[derive(Clone, Debug)]
pub enum PointOutcome {
    /// The point simulated successfully.
    Run(RunOutcome),
    /// The point exhausted its retry budget.
    Failed(PointFailure),
}

impl PointOutcome {
    /// The point's grid index.
    pub fn index(&self) -> usize {
        match self {
            PointOutcome::Run(r) => r.index,
            PointOutcome::Failed(f) => f.index,
        }
    }

    /// The point's stable label.
    pub fn label(&self) -> &str {
        match self {
            PointOutcome::Run(r) => &r.label,
            PointOutcome::Failed(f) => &f.label,
        }
    }

    /// The point's workload seed.
    pub fn seed(&self) -> u64 {
        match self {
            PointOutcome::Run(r) => r.seed,
            PointOutcome::Failed(f) => f.seed,
        }
    }

    /// The run outcome, if the point completed.
    pub fn as_run(&self) -> Option<&RunOutcome> {
        match self {
            PointOutcome::Run(r) => Some(r),
            PointOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the point failed.
    pub fn failure(&self) -> Option<&PointFailure> {
        match self {
            PointOutcome::Run(_) => None,
            PointOutcome::Failed(f) => Some(f),
        }
    }

    /// The report entry for this point (the report keys entries on
    /// array position, so the grid index is left out).
    fn entry_json(&self) -> Json {
        let mut entry =
            Json::obj([("label", Json::str(self.label())), ("seed", Json::UInt(self.seed()))]);
        match self {
            PointOutcome::Run(r) => entry.push("run", r.doc.clone()),
            PointOutcome::Failed(f) => entry.push(
                "failed",
                Json::obj([
                    ("attempts", Json::UInt(u64::from(f.attempts))),
                    ("error", Json::str(&f.error)),
                ]),
            ),
        }
        entry
    }
}

/// How a sweep executes: worker count, shard slice, checkpoint log,
/// retry discipline, and the opt-in wall-clock instrumentation.
/// [`SweepConfig::default`] reproduces the plain `run_sweep(plan, 1)`
/// behavior: one worker, whole grid, no checkpoint, no clocks.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker threads (>= 1). Never affects report bytes.
    pub jobs: usize,
    /// Restrict execution to one round-robin slice of the grid.
    pub shard: Option<Shard>,
    /// Append each completed point to this CRC-guarded log and skip
    /// points the log already records.
    pub checkpoint: Option<String>,
    /// Per-point retry discipline (shared with `csim-fault`): a failing
    /// point is retried `max_retries` times with capped exponential
    /// backoff, `RetryPolicy::backoff(attempt)` read in milliseconds.
    pub retry: RetryPolicy,
    /// Measure per-point wall time through [`PhaseProfile`]. Off by
    /// default so the engine never reads a clock.
    pub time_points: bool,
    /// Flag executed points slower than this multiple of the median
    /// point wall time (requires [`SweepConfig::time_points`]).
    pub straggler_mult: Option<f64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: 1,
            shard: None,
            checkpoint: None,
            retry: default_retry_policy(),
            time_points: false,
            straggler_mult: None,
        }
    }
}

/// The sweep retry discipline: the same capped-exponential-backoff
/// shape `csim-fault` applies to NACKed directory transactions, scaled
/// for host-level transients (milliseconds, small budget). Points are
/// deterministic, so a persistent failure recurs on every attempt and
/// the budget exists to ride out transient host trouble, not to make
/// broken configurations pass.
fn default_retry_policy() -> RetryPolicy {
    RetryPolicy { max_retries: 2, backoff_base: 10, exponential: true, backoff_cap: 1000 }
}

/// One executed point's wall-clock cost (only collected when
/// [`SweepConfig::time_points`] is set).
#[derive(Clone, Debug)]
pub struct PointTiming {
    /// The point's grid index.
    pub index: usize,
    /// The point's stable label.
    pub label: String,
    /// Wall milliseconds the point took (including retries).
    pub millis: f64,
    /// Simulated references per wall millisecond — equivalently
    /// thousands of refs per second — for spotting slow configurations.
    pub krefs_per_sec: f64,
    /// Wall milliseconds between the sweep's start and this point's
    /// start — the span offset for trace-event timeline export.
    pub start_millis: f64,
    /// Index of the worker thread that executed the point (a trace
    /// timeline track id; scheduling detail, never in reports).
    pub worker: usize,
}

/// Raw wall measurements a worker parks alongside a point outcome
/// (assembled into [`PointTiming`] in grid order afterwards).
#[derive(Clone, Copy, Debug)]
struct PointWall {
    millis: f64,
    start_millis: f64,
    worker: usize,
}

/// Wall-clock statistics of the executed points, with stragglers
/// flagged against the median.
#[derive(Clone, Debug)]
pub struct SweepTiming {
    /// Executed points in grid order (resumed points have no timing).
    pub points: Vec<PointTiming>,
    /// Median point wall milliseconds.
    pub median_millis: f64,
    /// Grid indices of points at or above the straggler threshold.
    pub stragglers: Vec<usize>,
}

impl SweepTiming {
    /// The timing block as a `PhaseProfile` — one phase per point, in
    /// grid order — so sweep reports reuse the run-report profile
    /// machinery (and inherit its "nondeterministic by nature, off by
    /// default" contract).
    pub fn to_profile(&self) -> PhaseProfile {
        let mut profile = PhaseProfile::new();
        for p in &self.points {
            profile.push(&p.label, p.millis);
        }
        profile
    }
}

/// A completed sweep: the plan and one outcome per selected grid point,
/// in grid order.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The plan that was swept.
    pub plan: SweepPlan,
    /// One outcome per selected grid point, in [`SweepPlan::expand`]
    /// order.
    pub points: Vec<PointOutcome>,
    /// Points restored from the checkpoint log instead of re-executed.
    pub resumed: usize,
    /// Recoverable problems encountered on the way (checkpoint damage
    /// that was detected and skipped, checkpoint writes that failed).
    /// The sweep's results are complete despite them.
    pub warnings: Vec<SweepError>,
    /// Wall-clock statistics (only with [`SweepConfig::time_points`]).
    pub timing: Option<SweepTiming>,
}

/// The deterministic plan echo shared by the merged report and the
/// checkpoint-binding fingerprint.
pub(crate) fn plan_json(plan: &SweepPlan) -> Json {
    let strs = |it: Vec<String>| Json::Arr(it.into_iter().map(Json::Str).collect());
    Json::obj([
        ("name", Json::str(&plan.name)),
        ("warm_refs_per_node", Json::UInt(plan.warm)),
        ("meas_refs_per_node", Json::UInt(plan.meas)),
        ("l2_dram", Json::Bool(plan.dram)),
        ("rac", Json::Bool(plan.rac)),
        ("replicate_instructions", Json::Bool(plan.replicate)),
        ("out_of_order", Json::Bool(plan.ooo)),
        (
            "integration",
            strs(plan.integration.iter().map(|&l| integration_short_name(l).to_string()).collect()),
        ),
        ("l2", strs(plan.l2.iter().map(|s| s.label.clone()).collect())),
        ("nodes", Json::Arr(plan.nodes.iter().map(|&n| Json::UInt(n as u64)).collect())),
        ("cores", Json::Arr(plan.cores.iter().map(|&c| Json::UInt(c as u64)).collect())),
        ("seeds", Json::Arr(plan.seeds.iter().map(|&s| Json::UInt(s)).collect())),
        ("run_count", Json::UInt(plan.run_count() as u64)),
    ])
}

/// FNV-1a over the canonical plan echo: a cheap deterministic
/// fingerprint binding checkpoint logs to the exact grid they were
/// produced from.
pub fn plan_fingerprint(plan: &SweepPlan) -> String {
    let bytes = plan_json(plan).to_string();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

impl SweepOutcome {
    /// The merged `csim-sweep-report/v1` document. Deliberately echoes
    /// the plan but *not* the worker count, checkpoint path, or wall
    /// clock: the report must be byte-identical whatever parallelism,
    /// interruptions, or resumptions produced it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SWEEP_REPORT_SCHEMA)),
            ("plan", plan_json(&self.plan)),
            ("runs", Json::Arr(self.points.iter().map(PointOutcome::entry_json).collect())),
        ])
    }

    /// The failed points, in grid order.
    pub fn failures(&self) -> impl Iterator<Item = &PointFailure> {
        self.points.iter().filter_map(PointOutcome::failure)
    }
}

/// Executes one grid point: build the configuration, build the workload,
/// warm up, measure, and export the per-run report document. With
/// `pipelined`, the point's workload generates on a producer thread of
/// its own ([`Simulation::with_oltp`]); without, on the worker
/// ([`Simulation::with_oltp_direct`]). The documents are the same.
fn execute(index: usize, spec: &RunSpec, pipelined: bool) -> Result<RunOutcome, SweepError> {
    let cfg = spec.build_config()?;
    let params = OltpParams { seed: spec.seed, ..OltpParams::default() };
    let failed = |e: SimError| SweepError::Run { label: spec.label(), message: e.to_string() };
    if pipelined {
        measure(index, spec, &cfg, Simulation::with_oltp(&cfg, params).map_err(failed)?)
    } else {
        measure(index, spec, &cfg, Simulation::with_oltp_direct(&cfg, params).map_err(failed)?)
    }
}

/// Warms up and measures a point's simulation and exports its document.
fn measure<S: ReferenceStream>(
    index: usize,
    spec: &RunSpec,
    cfg: &SystemConfig,
    mut sim: Simulation<S>,
) -> Result<RunOutcome, SweepError> {
    sim.warm_up(spec.warm);
    let report = sim.run(spec.meas);
    // Free the machine before building the document that outlives the
    // point. Built first, the document lands above the machine's memory
    // on the worker's heap, and the allocator cannot hand that memory
    // back: every point's high-water mark then stays resident until the
    // process exits, whose teardown it slows (DESIGN.md §18).
    let observer = sim.into_observer();
    let manifest = RunManifest {
        tool: "csim-sweep".to_string(),
        version: version_string(env!("CARGO_PKG_VERSION")),
        config_summary: cfg.summary(),
        config: std::iter::once(("label".to_string(), spec.label()))
            .chain(spec.manifest_config())
            .collect(),
        seeds: vec![("workload".to_string(), spec.seed)],
    };
    // `profile: None` keeps the per-run document wall-clock-free and
    // therefore byte-stable.
    let doc = run_report_json(&report, &observer, &manifest, None);
    let summary = RunSummary {
        cpi: report.breakdown.cpi(),
        mpki: report.mpki(),
        l2_misses: report.misses.total(),
        transactions: report.transactions,
    };
    Ok(RunOutcome { index, label: spec.label(), seed: spec.seed, summary, doc })
}

/// The worker function a sweep drives: everything needed to produce one
/// grid point's [`RunOutcome`]. `run_sweep_with` accepts any executor so
/// tests can inject failing or panicking points and so synthetic
/// workloads can reuse the scheduling/checkpoint/shard machinery.
///
/// The `RefUnwindSafe` bound lets the point boundary catch a panic with
/// a plain `catch_unwind`: rustc then proves that nothing the executor
/// shares with other points can be left torn by the unwind.
pub type PointExecutor<'a> =
    dyn Fn(usize, &RunSpec) -> Result<RunOutcome, SweepError> + Sync + RefUnwindSafe + 'a;

/// Renders a caught panic payload into the structured failure entry's
/// message. `panic!` with a string (the overwhelmingly common case)
/// surfaces verbatim; anything else is named as such.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Runs one point to a [`PointOutcome`], never panicking and never
/// returning an error: panics and `Err`s are caught at this boundary,
/// retried per `retry` (backoff read as milliseconds), and finally
/// recorded as a structured [`PointFailure`].
fn run_point(
    exec: &PointExecutor<'_>,
    index: usize,
    spec: &RunSpec,
    retry: &RetryPolicy,
) -> PointOutcome {
    let mut attempts = 0u32;
    loop {
        // Point isolation: the executor builds the outcome in locals, and
        // its `RefUnwindSafe` bound keeps shared state out of reach, so a
        // panic tears only per-point scratch. The checkpoint log and the
        // result slots belong to the coordinator, which sees only the
        // outcome this function returns.
        let caught = std::panic::catch_unwind(|| exec(index, spec));
        let error = match caught {
            Ok(Ok(outcome)) => return PointOutcome::Run(outcome),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        attempts += 1;
        if attempts > retry.max_retries {
            return PointOutcome::Failed(PointFailure {
                index,
                label: spec.label(),
                seed: spec.seed,
                attempts,
                error,
            });
        }
        // Same backoff discipline as csim-fault's NACK path, read in
        // milliseconds; the schedule is deterministic even though the
        // sleep itself obviously is not (it never reaches the report).
        let backoff = retry.backoff(attempts - 1);
        if backoff > 0 {
            std::thread::sleep(std::time::Duration::from_millis(backoff));
        }
    }
}

/// Runs every grid point of the plan on `jobs` workers and merges the
/// outcomes in grid order (the [`SweepConfig::default`] behavior of
/// [`run_sweep_cfg`]).
///
/// # Errors
///
/// Plan validation errors only. Point failures no longer abort the
/// sweep; they surface as [`PointFailure`] entries in the outcome.
pub fn run_sweep(plan: &SweepPlan, jobs: usize) -> Result<SweepOutcome, SweepError> {
    run_sweep_cfg(plan, &SweepConfig { jobs, ..SweepConfig::default() })
}

/// Runs a sweep with the full crash-safety configuration: sharding,
/// checkpointing, retry policy, and the straggler watchdog.
///
/// # Errors
///
/// Plan/config validation errors, and hard checkpoint errors (an
/// unreadable log file, or a log recorded by a different plan or
/// shard). Recoverable checkpoint damage and point failures do not
/// abort the sweep — see [`SweepOutcome::warnings`] and
/// [`SweepOutcome::failures`].
pub fn run_sweep_cfg(plan: &SweepPlan, cfg: &SweepConfig) -> Result<SweepOutcome, SweepError> {
    // A pipelined point keeps two cores busy. Once the workers alone
    // fill the host, a second thread per point only adds switching: a
    // 2-worker Fig. 9 sweep on a 2-core host ran ~35% slower with the
    // pipeline than without.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let pipelined = cfg.jobs < cores;
    run_sweep_with(plan, cfg, &|index, spec| execute(index, spec, pipelined))
}

/// [`run_sweep_cfg`] with an injected point executor (the test seam for
/// panic isolation and checkpoint property tests).
///
/// # Errors
///
/// As [`run_sweep_cfg`].
pub fn run_sweep_with(
    plan: &SweepPlan,
    cfg: &SweepConfig,
    exec: &PointExecutor<'_>,
) -> Result<SweepOutcome, SweepError> {
    plan.validate()?;
    if cfg.jobs == 0 {
        return Err(SweepError::Invalid {
            field: "config.jobs",
            message: "at least one worker is required".to_string(),
        });
    }
    if let Some(shard) = cfg.shard {
        if shard.count == 0 || shard.index >= shard.count {
            return Err(SweepError::Invalid {
                field: "config.shard",
                message: format!("shard {shard} is out of range"),
            });
        }
    }
    if cfg.straggler_mult.is_some() && !cfg.time_points {
        return Err(SweepError::Invalid {
            field: "config.straggler_mult",
            message: "the straggler watchdog needs time_points enabled".to_string(),
        });
    }

    let specs = plan.expand();
    let selection: Vec<(usize, &RunSpec)> =
        specs.iter().enumerate().filter(|(i, _)| cfg.shard.is_none_or(|s| s.owns(*i))).collect();

    // Resume: load (and compact) the checkpoint log, keeping the writer
    // open for the points still to run.
    let mut warnings = Vec::new();
    let mut restored: Vec<Option<PointOutcome>> = (0..specs.len()).map(|_| None).collect();
    let mut log = match &cfg.checkpoint {
        None => None,
        Some(path) => {
            let (log, recorded) = CheckpointLog::open(path, plan, cfg.shard)?;
            warnings.extend(recorded.damage);
            for point in recorded.points {
                let idx = point.index();
                // Only trust records for points this shard selects; the
                // header binds shard identity, so anything else is a
                // stale artifact of earlier damage.
                if cfg.shard.is_none_or(|s| s.owns(idx)) {
                    if let Some(slot) = restored.get_mut(idx) {
                        *slot = Some(point);
                    }
                }
            }
            Some(log)
        }
    };
    let resumed = restored.iter().filter(|p| p.is_some()).count();

    let to_run: Vec<(usize, &RunSpec)> = selection
        .iter()
        .copied()
        .filter(|(i, _)| restored.get(*i).is_some_and(Option::is_none))
        .collect();

    // Execute. Results (and optional wall times) park in index slots so
    // scheduling order can never reach the report.
    let mut slots: Vec<Option<(PointOutcome, Option<PointWall>)>> =
        (0..specs.len()).map(|_| None).collect();
    // Epoch for per-point start offsets (trace-event timelines). Only
    // read when timing is opted into; like the per-point durations the
    // offsets stay out of the deterministic report.
    #[expect(
        clippy::disallowed_methods,
        reason = "start offsets feed the opt-in trace-event timeline, never the byte-stable report"
    )]
    let epoch = cfg.time_points.then(std::time::Instant::now);
    if !to_run.is_empty() {
        // Each worker claims the next unclaimed entry of `to_run`; the
        // counter hands out every position once, so Relaxed suffices.
        let next = AtomicUsize::new(0);
        let workers = cfg.jobs.min(to_run.len());
        // The closures move only `w`, a sender and Copy references.
        let (to_run, next) = (&to_run, &next);
        // One slot per worker, allocated here by the coordinator: an
        // unbounded channel allocates its buffer on the first sender's
        // heap between points, which kept about 1 MiB more of that heap
        // resident on the Fig. 9 sweep (peak RSS 9.3 -> 10.3 MiB).
        let (tx, rx) = mpsc::sync_channel(workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    let claim = || to_run.get(next.fetch_add(1, Ordering::Relaxed)).copied();
                    while let Some((idx, spec)) = claim() {
                        let (outcome, wall) = if let Some(epoch) = epoch {
                            let start_millis = epoch.elapsed().as_secs_f64() * 1000.0;
                            let mut profile = PhaseProfile::new();
                            let outcome =
                                profile.time("point", || run_point(exec, idx, spec, &cfg.retry));
                            let wall = PointWall {
                                millis: profile.total_millis(),
                                start_millis,
                                worker: w,
                            };
                            (outcome, Some(wall))
                        } else {
                            (run_point(exec, idx, spec, &cfg.retry), None)
                        };
                        if tx.send((idx, outcome, wall)).is_err() {
                            break;
                        }
                    }
                });
            }
            // The coordinator is the only writer of the log, the slots
            // and the warnings. Dropping its own sender ends the loop
            // once every worker has finished.
            drop(tx);
            for (idx, outcome, wall) in rx {
                if let Some(log) = &mut log {
                    // A failing checkpoint disk must not kill the sweep:
                    // the log disables itself, the error surfaces once,
                    // and the sweep keeps computing.
                    if let Err(e) = log.append(&outcome) {
                        warnings.push(e);
                    }
                }
                if let Some(slot) = slots.get_mut(idx) {
                    *slot = Some((outcome, wall));
                }
            }
        });
    }

    // Assemble in grid order from restored and freshly executed slots.
    let mut points = Vec::with_capacity(selection.len());
    let mut timings: Vec<PointTiming> = Vec::new();
    for &(idx, spec) in &selection {
        if let Some(point) = restored.get_mut(idx).and_then(Option::take) {
            points.push(point);
            continue;
        }
        let (outcome, wall) =
            slots.get_mut(idx).and_then(Option::take).ok_or_else(|| SweepError::Run {
                label: spec.label(),
                message: "worker exited without recording a result".to_string(),
            })?;
        if let Some(wall) = wall {
            let total_refs = (spec.warm + spec.meas) * spec.nodes as u64;
            let millis = wall.millis;
            timings.push(PointTiming {
                index: idx,
                label: outcome.label().to_string(),
                millis,
                // refs per wall millisecond == thousands of refs/sec.
                krefs_per_sec: if millis > 0.0 { total_refs as f64 / millis } else { 0.0 },
                start_millis: wall.start_millis,
                worker: wall.worker,
            });
        }
        points.push(outcome);
    }

    let timing = cfg.time_points.then(|| {
        let mut sorted: Vec<f64> = timings.iter().map(|t| t.millis).collect();
        sorted.sort_by(f64::total_cmp);
        let median_millis = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        let stragglers = match cfg.straggler_mult {
            Some(mult) if median_millis > 0.0 => timings
                .iter()
                .filter(|t| t.millis >= mult * median_millis)
                .map(|t| t.index)
                .collect(),
            _ => Vec::new(),
        };
        SweepTiming { points: timings, median_millis, stragglers }
    });

    Ok(SweepOutcome { plan: plan.clone(), points, resumed, warnings, timing })
}

/// Merges the checkpoint logs of a sharded sweep into the whole grid's
/// outcome: a resume that finds no point left to run, so its
/// [`SweepOutcome::to_json`] is byte-identical to a single-process
/// sweep of `plan`. A whole-grid log merges as the one shard `0/1`.
/// The logs are only read, never written; damaged records they hold
/// land in [`SweepOutcome::warnings`].
///
/// # Errors
///
/// [`SweepError::Checkpoint`] for an unreadable file,
/// [`SweepError::CheckpointMismatch`] for a log of another plan, and
/// [`SweepError::Merge`] for an empty list, a log without an intact
/// header, logs that disagree on the shard count, a shard given twice,
/// and any grid point that no log records.
pub fn merge_logs(plan: &SweepPlan, paths: &[String]) -> Result<SweepOutcome, SweepError> {
    plan.validate()?;
    let merge_err =
        |path: &str, message: String| SweepError::Merge { path: path.to_string(), message };
    let mut slots: Vec<Option<PointOutcome>> = (0..plan.run_count()).map(|_| None).collect();
    let mut shards: Vec<(Shard, &str)> = Vec::new();
    let mut warnings = Vec::new();
    for path in paths {
        let recorded = checkpoint::read(path, plan)?;
        warnings.extend(recorded.damage);
        let shard = recorded
            .header
            .ok_or_else(|| {
                merge_err(path, "no intact header (missing, empty, or a damaged first line)".into())
            })?
            .unwrap_or(Shard { index: 0, count: 1 });
        if let Some(&(first, first_path)) = shards.first() {
            if shard.count != first.count {
                let message = format!(
                    "split into {} shards, but {first_path} says {}",
                    shard.count, first.count
                );
                return Err(merge_err(path, message));
            }
        }
        if let Some((_, earlier)) = shards.iter().find(|(s, _)| *s == shard) {
            return Err(merge_err(path, format!("shard {shard} was already given as {earlier}")));
        }
        shards.push((shard, path));
        for point in recorded.points {
            // As on resume, a record outside the header's shard is a
            // stale artifact of earlier damage.
            if shard.owns(point.index()) {
                if let Some(slot) = slots.get_mut(point.index()) {
                    *slot = Some(point);
                }
            }
        }
    }
    let count =
        shards.first().ok_or_else(|| merge_err("-", "no checkpoint logs to merge".into()))?.0.count;
    let points = slots
        .into_iter()
        .zip(plan.expand())
        .enumerate()
        .map(|(index, (slot, spec))| {
            slot.ok_or_else(|| {
                let shard = Shard { index: (index % count as usize) as u32, count };
                let log = shards.iter().find(|(s, _)| *s == shard).map_or("-", |&(_, path)| path);
                let message = format!(
                    "grid point {index} ({}) of shard {shard} is recorded by no log: give every \
                     shard's log, and resume a torn one with it as --checkpoint",
                    spec.label()
                );
                merge_err(log, message)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SweepOutcome { plan: plan.clone(), resumed: points.len(), points, warnings, timing: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_config::IntegrationLevel;

    fn small_plan() -> SweepPlan {
        SweepPlan {
            name: "engine-test".to_string(),
            warm: 2_000,
            meas: 5_000,
            integration: vec![IntegrationLevel::Base, IntegrationLevel::L2Integrated],
            seeds: vec![42, 43],
            ..SweepPlan::default()
        }
    }

    /// A retry policy that never sleeps, for failure-path tests.
    fn instant_retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy { max_retries, backoff_base: 0, exponential: false, backoff_cap: 0 }
    }

    #[test]
    fn serial_sweep_runs_every_grid_point_in_order() {
        let plan = small_plan();
        let out = run_sweep(&plan, 1).unwrap();
        assert_eq!(out.points.len(), 4);
        let labels: Vec<&str> = out.points.iter().map(PointOutcome::label).collect();
        assert_eq!(
            labels,
            ["base/8M1w/1n1c/s0", "base/8M1w/1n1c/s1", "l2/2M8w/1n1c/s0", "l2/2M8w/1n1c/s1"]
        );
        assert_eq!(out.resumed, 0);
        assert!(out.warnings.is_empty());
        assert!(out.timing.is_none(), "no clock reads unless asked");
        for p in &out.points {
            // Runs this short complete no whole transaction; the other
            // summary channels must still be live.
            let r = p.as_run().expect("all points succeed");
            assert!(r.summary.cpi > 0.0);
            assert!(r.summary.l2_misses > 0);
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let plan = small_plan();
        let serial = run_sweep(&plan, 1).unwrap().to_json().to_string();
        let parallel = run_sweep(&plan, 4).unwrap().to_json().to_string();
        assert_eq!(serial, parallel);
        assert!(serial.contains("\"schema\":\"csim-sweep-report/v1\""));
        assert!(serial.contains("csim-run-report/v1"));
        assert!(!serial.contains("jobs"), "worker count must not leak into the report");
        csim_obs::json::validate(&serial).unwrap();
    }

    #[test]
    fn oversubscribed_pools_are_harmless() {
        let mut plan = small_plan();
        plan.integration = vec![IntegrationLevel::Base];
        plan.seeds = vec![7];
        let out = run_sweep(&plan, 64).unwrap();
        assert_eq!(out.points.len(), 1);
    }

    #[test]
    fn failing_grid_points_become_structured_entries_not_aborts() {
        let mut plan = small_plan();
        // A 64 MB on-chip SRAM L2 cannot build at the l2 level; the base
        // (off-chip) runs are fine.
        plan.l2 = vec![crate::plan::L2Spec::parse("64M8w").unwrap()];
        let cfg = SweepConfig { jobs: 2, retry: instant_retry(1), ..SweepConfig::default() };
        let out = run_sweep_cfg(&plan, &cfg).unwrap();
        assert_eq!(out.points.len(), 4);
        let failures: Vec<&PointFailure> = out.failures().collect();
        assert_eq!(failures.len(), 2, "both l2-level points fail to build");
        assert!(failures[0].label.starts_with("l2/64M8w"), "{}", failures[0].label);
        assert_eq!(failures[0].attempts, 2, "one try plus one retry");
        assert!(failures[0].error.contains("l2"), "{}", failures[0].error);
        // The base points still completed.
        assert_eq!(out.points.iter().filter(|p| p.as_run().is_some()).count(), 2);
        // And the failure is a structured report entry.
        let report = out.to_json().to_string();
        assert!(report.contains("\"failed\":{\"attempts\":2"), "{report}");
        csim_obs::json::validate(&report).unwrap();
    }

    #[test]
    fn panicking_points_are_isolated_and_recorded() {
        let plan = small_plan();
        let poison = "base/8M1w/1n1c/s1";
        let exec = |index: usize, spec: &RunSpec| {
            if spec.label() == poison {
                panic!("deliberate test panic");
            }
            execute(index, spec, true)
        };
        let cfg = SweepConfig { jobs: 3, retry: instant_retry(2), ..SweepConfig::default() };
        let out = run_sweep_with(&plan, &cfg, &exec).unwrap();
        assert_eq!(out.points.len(), 4);
        let failure = out.failures().next().expect("the poisoned point fails");
        assert_eq!(failure.label, poison);
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.error, "panicked: deliberate test panic");
        assert_eq!(out.points.iter().filter(|p| p.as_run().is_some()).count(), 3);
    }

    #[test]
    fn a_failing_workload_producer_fails_only_its_point() {
        // The poisoned point's workload runs on a pipeline producer that
        // panics on its third pull: the simulation raises the panic on
        // the worker, `run_point` records the point as failed with the
        // producer's message, and the other points complete.
        use csim_trace::pipeline::pipeline;
        use csim_trace::{ExecMode, MemRef};
        struct Failing(u32);
        impl ReferenceStream for Failing {
            fn next_ref(&mut self) -> MemRef {
                self.0 += 1;
                assert!(self.0 != 3, "workload pull {} failed", self.0);
                MemRef::load(u64::from(self.0) * 64, ExecMode::User)
            }
        }
        let plan = small_plan();
        let poison = "l2/2M8w/1n1c/s1";
        let exec = |index: usize, spec: &RunSpec| {
            if spec.label() != poison {
                return execute(index, spec, true);
            }
            let cfg = spec.build_config()?;
            let streams = pipeline(vec![Failing(0)], || 0).expect("the producer starts");
            let sim = Simulation::try_new(&cfg, streams).expect("one stream per core");
            measure(index, spec, &cfg, sim)
        };
        let cfg = SweepConfig { jobs: 2, retry: instant_retry(1), ..SweepConfig::default() };
        let out = run_sweep_with(&plan, &cfg, &exec).unwrap();
        assert_eq!(out.points.len(), 4);
        let failure = out.failures().next().expect("the poisoned point fails");
        assert_eq!(failure.label, poison);
        assert_eq!(failure.attempts, 2);
        assert_eq!(failure.error, "panicked: workload pull 3 failed");
        assert_eq!(out.points.iter().filter(|p| p.as_run().is_some()).count(), 3);
    }

    #[test]
    fn retries_can_ride_out_transient_failures() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let plan = small_plan();
        let flaky_attempts = AtomicU32::new(0);
        let exec = |index: usize, spec: &RunSpec| {
            if spec.label() == "l2/2M8w/1n1c/s0"
                && flaky_attempts.fetch_add(1, Ordering::SeqCst) < 2
            {
                return Err(SweepError::Run {
                    label: spec.label(),
                    message: "transient".to_string(),
                });
            }
            execute(index, spec, true)
        };
        let cfg = SweepConfig { retry: instant_retry(2), ..SweepConfig::default() };
        let out = run_sweep_with(&plan, &cfg, &exec).unwrap();
        assert_eq!(out.failures().count(), 0, "two retries absorb two transient failures");
        assert_eq!(flaky_attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn sharded_runs_partition_the_grid() {
        let plan = small_plan();
        let full = run_sweep(&plan, 2).unwrap();
        let mut seen: Vec<usize> = Vec::new();
        for index in 0..3u32 {
            let cfg = SweepConfig {
                shard: Some(Shard { index, count: 3 }),
                jobs: 2,
                ..SweepConfig::default()
            };
            let out = run_sweep_cfg(&plan, &cfg).unwrap();
            for p in &out.points {
                assert_eq!(p.index() % 3, index as usize);
                seen.push(p.index());
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..full.points.len()).collect::<Vec<_>>());
    }

    #[test]
    fn watchdog_timing_is_collected_and_median_is_sane() {
        let mut plan = small_plan();
        plan.integration = vec![IntegrationLevel::Base];
        let cfg = SweepConfig {
            time_points: true,
            straggler_mult: Some(1_000_000.0),
            ..SweepConfig::default()
        };
        let out = run_sweep_cfg(&plan, &cfg).unwrap();
        let timing = out.timing.as_ref().expect("timing requested");
        assert_eq!(timing.points.len(), 2);
        assert!(timing.median_millis > 0.0);
        assert!(timing.stragglers.is_empty(), "nothing is a million-fold straggler");
        assert_eq!(timing.to_profile().phases().len(), 2);
        // Timing never reaches the deterministic report.
        let report = out.to_json().to_string();
        assert!(!report.contains("millis"), "wall clock leaked into the report");
    }

    #[test]
    fn straggler_mult_without_timing_is_rejected() {
        let cfg = SweepConfig { straggler_mult: Some(2.0), ..SweepConfig::default() };
        let err = run_sweep_cfg(&small_plan(), &cfg).unwrap_err();
        assert!(matches!(err, SweepError::Invalid { field: "config.straggler_mult", .. }), "{err}");
    }

    #[test]
    fn zero_jobs_and_bad_shards_are_rejected() {
        let cfg = SweepConfig { jobs: 0, ..SweepConfig::default() };
        assert!(run_sweep_cfg(&small_plan(), &cfg).is_err());
        let cfg =
            SweepConfig { shard: Some(Shard { index: 5, count: 2 }), ..SweepConfig::default() };
        assert!(run_sweep_cfg(&small_plan(), &cfg).is_err());
    }

    #[test]
    fn distinct_seeds_produce_distinct_reports() {
        let plan = small_plan();
        let out = run_sweep(&plan, 2).unwrap();
        let runs: Vec<&RunOutcome> = out.points.iter().filter_map(PointOutcome::as_run).collect();
        assert_ne!(
            runs[0].doc.to_string(),
            runs[1].doc.to_string(),
            "different seeds should not produce identical reports"
        );
    }

    #[test]
    fn plan_fingerprint_tracks_the_grid() {
        let a = plan_fingerprint(&small_plan());
        assert_eq!(a, plan_fingerprint(&small_plan()));
        let mut other = small_plan();
        other.seeds.push(99);
        assert_ne!(a, plan_fingerprint(&other));
        assert_eq!(a.len(), 16);
    }
}
