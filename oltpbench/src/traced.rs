//! The traced phase: each workload's configurations built in-process,
//! the way `csim` builds them, with spans around the calls into each
//! layer and a timing wrapper around every reference stream.
//!
//! Per configuration (one, or each point of the sweep) it
//! * times `OltpWorkload::build` and `Simulation::try_new` (set-up);
//! * runs the configuration traced: every stream wrapped in [`Timed`],
//!   which times each `next_burst` call, so workload generation splits
//!   from the rest of the dispatch loop;
//! * runs it untraced through `Simulation::with_oltp`, for the tracing
//!   overhead, the export time, and a check that the wrapper changed no
//!   simulated statistic;
//! * runs it traced again with the observation arms (histograms, epochs,
//!   attribution) flipped, for the observed arm's cost per reference;
//! * captures a window of references after warm-up in an untimed run
//!   and replays it layer by layer ([`crate::replay`]).
//!
//! The sweep workload also runs its plan through the sweep engine's
//! worker pool with per-point timing. A single-run workload instead
//! repeats the three comparison runs until the time budget is spent.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;

use csim_config::SystemConfig;
use csim_core::{run_report_json, SimReport, Simulation};
use csim_obs::json::Json;
use csim_obs::{LatencyHistogram, RunManifest};
use csim_prof::prof_report_json;
use csim_sweep::{run_sweep_cfg, RunSpec, SweepConfig};
use csim_trace::{MemRef, ReferenceStream};
use csim_workload::{NodeWorkload, OltpParams, OltpWorkload};

use crate::clock::{Clock, Spans};
use crate::replay::{self, LayerTimes};
use crate::stats::median;
use crate::stats::Better::{self, Higher, Lower};
use crate::workload::{Instance, SWEEP_JOBS};

/// A per-layer metric as `BENCHMARK.json` declares it.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// The per-layer metrics, in report order.
pub const LAYER_METRICS: [LayerDef; 27] = [
    def("workload.build_ms", "ms", Lower),
    def("core.new_ms", "ms", Lower),
    def("core.export_ms", "ms", Lower),
    def("workload.ns_per_ref", "ns", Lower),
    def("workload.burst_ns_p50", "ns", Lower),
    def("workload.burst_ns_p99", "ns", Lower),
    def("workload.refs_per_burst", "refs", Higher),
    def("core.self_ns_per_ref", "ns", Lower),
    def("obs.ns_per_ref", "ns", Lower),
    def("cache.l1.ns_per_ref", "ns", Lower),
    def("cache.l2.ns_per_access", "ns", Lower),
    def("cache.rac.ns_per_ref", "ns", Lower),
    def("coherence.ns_per_op", "ns", Lower),
    def("proc.ns_per_ref", "ns", Lower),
    def("cache.l1.replay_vs_sim", "ratio", Higher),
    def("cache.l1i.misses_per_kref", "1/kref", Lower),
    def("cache.l1d.misses_per_kref", "1/kref", Lower),
    def("cache.l2.misses_per_kref", "1/kref", Lower),
    def("cache.rac.hit_frac", "fraction", Higher),
    def("coherence.remote_frac", "fraction", Lower),
    def("coherence.three_hop_per_kref", "1/kref", Lower),
    def("coherence.invals_per_kref", "1/kref", Lower),
    def("fault.nacks_per_kref", "1/kref", Lower),
    def("proc.cpi", "cycles/instr", Lower),
    def("sweep.point_s_p50", "s", Lower),
    def("sweep.worker_busy_frac", "fraction", Higher),
    def("trace.overhead_frac", "fraction", Lower),
];

/// Set-up is short and noisy, so it is timed this many times per
/// configuration and the median kept.
const SETUP_REPS: usize = 5;

/// References per node captured for the layer replay (split across the
/// sweep's points; half warms the replayed structures, half is timed).
const CAPTURE_REFS_PER_NODE: u64 = 1_000_000;

/// `next_burst` timing shared by every stream of one simulation.
#[derive(Default)]
struct BurstProbe {
    calls: u64,
    refs: u64,
    ns: u64,
    hist: LatencyHistogram,
}

/// A pass-through stream that times each `next_burst` call. `next_ref`
/// is passed through untimed: batched dispatch, the simulator's only
/// dispatch mode here, never calls it.
struct Timed<S> {
    inner: S,
    probe: Rc<RefCell<BurstProbe>>,
}

impl<S: ReferenceStream> ReferenceStream for Timed<S> {
    fn next_ref(&mut self) -> MemRef {
        self.inner.next_ref()
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        let clock = Clock::start();
        let n = self.inner.next_burst(out);
        let ns = clock.nanos();
        let mut p = self.probe.borrow_mut();
        p.calls += 1;
        p.refs += n as u64;
        p.ns += ns;
        p.hist.record(ns);
        n
    }
}

/// A pass-through stream that records every word it hands out while
/// `on` is set.
struct Tap<S> {
    inner: S,
    on: Rc<Cell<bool>>,
    words: Rc<RefCell<Vec<u64>>>,
}

impl<S: ReferenceStream> ReferenceStream for Tap<S> {
    fn next_ref(&mut self) -> MemRef {
        let r = self.inner.next_ref();
        if self.on.get() {
            self.words.borrow_mut().push(r.pack());
        }
        r
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        let n = self.inner.next_burst(out);
        if self.on.get() {
            self.words.borrow_mut().extend_from_slice(&out[..n]);
        }
        n
    }
}

/// One configuration of a workload, ready to simulate.
struct Point<'a> {
    inst: &'a Instance,
    spec: &'a RunSpec,
    cfg: SystemConfig,
    params: OltpParams,
}

/// What one warmed-and-measured simulation produced.
struct Outcome {
    report: SimReport,
    observations: String,
    attribution: Option<String>,
    /// Wall seconds of warm-up plus measurement.
    wall_s: f64,
}

/// One round of comparisons on a configuration.
struct Round {
    /// The traced run, armed as `csim` arms it.
    traced: Outcome,
    probe: BurstProbe,
    times: RoundTimes,
}

/// The times of a round of comparisons (summed over a workload's
/// configurations).
#[derive(Clone, Copy, Default)]
struct RoundTimes {
    /// Wall seconds of the traced run and of the same run untraced.
    traced_s: f64,
    bare_s: f64,
    /// Non-workload ns of the traced runs with the observation arms on
    /// and off.
    self_on_ns: f64,
    self_off_ns: f64,
}

impl RoundTimes {
    fn add(&mut self, o: &RoundTimes) {
        self.traced_s += o.traced_s;
        self.bare_s += o.bare_s;
        self.self_on_ns += o.self_on_ns;
        self.self_off_ns += o.self_off_ns;
    }
}

impl Point<'_> {
    fn streams(&self) -> Result<Vec<NodeWorkload>, String> {
        OltpWorkload::build(self.params.clone(), self.cfg.total_cores()).map_err(|e| e.to_string())
    }

    fn simulate<S: ReferenceStream>(
        &self,
        mut sim: Simulation<S>,
        observe: bool,
        spans: &mut Spans,
        tid: u64,
    ) -> Result<(Outcome, Simulation<S>), String> {
        self.inst.arm(&mut sim, observe)?;
        let start = spans.now();
        spans.time("warm_up", tid, 2, || sim.warm_up(self.spec.warm));
        let (report, _) = spans.time("run", tid, 2, || sim.run(self.spec.meas));
        let wall_s = spans.now() - start;
        let observations = sim.observer().to_json().to_string();
        let attribution = sim.attribution().map(|a| a.to_json().to_string());
        Ok((
            Outcome {
                report,
                observations,
                attribution,
                wall_s,
            },
            sim,
        ))
    }

    /// A run with every stream behind the burst timer.
    fn traced(
        &self,
        observe: bool,
        spans: &mut Spans,
        tid: u64,
    ) -> Result<(Outcome, BurstProbe), String> {
        let probe = Rc::new(RefCell::new(BurstProbe::default()));
        let streams = self
            .streams()?
            .into_iter()
            .map(|inner| Timed {
                inner,
                probe: Rc::clone(&probe),
            })
            .collect();
        let sim = Simulation::try_new(&self.cfg, streams).map_err(|e| e.to_string())?;
        let start = spans.now();
        let (out, sim) = self.simulate(sim, observe, spans, tid)?;
        drop(sim);
        spans.push("traced", tid, 1, start);
        let probe = Rc::try_unwrap(probe)
            .map_err(|_| "burst probe still shared")?
            .into_inner();
        Ok((out, probe))
    }

    /// The plain library path `csim` takes, plus the export `csim`
    /// performs on its result (timed into `export_ms`).
    fn untraced(
        &self,
        observe: bool,
        spans: &mut Spans,
        tid: u64,
        export_ms: &mut f64,
    ) -> Result<Outcome, String> {
        let start = spans.now();
        let sim =
            Simulation::with_oltp(&self.cfg, self.params.clone()).map_err(|e| e.to_string())?;
        let (out, sim) = self.simulate(sim, observe, spans, tid)?;
        let (_, secs) = spans.time("core.export", tid, 2, || {
            let manifest = RunManifest::default();
            black_box(run_report_json(&out.report, sim.observer(), &manifest, None).to_string());
            black_box(
                sim.attribution()
                    .map(|a| prof_report_json(a, &manifest).to_string()),
            );
        });
        *export_ms += secs * 1e3;
        spans.push("untraced", tid, 1, start);
        Ok(out)
    }

    /// A traced run armed as `csim` arms it, the same run untraced, and
    /// a traced run with the observation arms flipped. Checks that
    /// neither the burst timer nor the arms changed a simulated statistic.
    fn round(&self, spans: &mut Spans, tid: u64, export_ms: &mut f64) -> Result<Round, String> {
        let observe = self.inst.observed();
        let (traced, probe) = self.traced(observe, spans, tid)?;
        let bare = self.untraced(observe, spans, tid, export_ms)?;
        if sans_transactions(bare.report.clone()) != traced.report
            || bare.observations != traced.observations
            || bare.attribution != traced.attribution
        {
            return Err(format!(
                "{}: the burst timer changed the simulated statistics",
                self.spec.label()
            ));
        }
        let (other, other_probe) = self.traced(!observe, spans, tid)?;
        if other.report != traced.report {
            return Err(format!(
                "{}: the observation arms changed the simulated statistics",
                self.spec.label()
            ));
        }
        let self_ns = |o: &Outcome, b: &BurstProbe| o.wall_s * 1e9 - b.ns as f64;
        let (as_run, flipped) = (self_ns(&traced, &probe), self_ns(&other, &other_probe));
        let (self_on_ns, self_off_ns) = if observe {
            (as_run, flipped)
        } else {
            (flipped, as_run)
        };
        let times = RoundTimes {
            traced_s: traced.wall_s,
            bare_s: bare.wall_s,
            self_on_ns,
            self_off_ns,
        };
        Ok(Round {
            traced,
            probe,
            times,
        })
    }

    /// Captures a window after warm-up and replays it layer by layer.
    /// Returns the replay's times and the simulator's L1 misses over the
    /// replay's timed half.
    fn capture_and_replay(
        &self,
        window: u64,
        spans: &mut Spans,
        tid: u64,
    ) -> Result<(LayerTimes, u64), String> {
        let start = spans.now();
        let on = Rc::new(Cell::new(false));
        let bufs: Vec<Rc<RefCell<Vec<u64>>>> = (0..self.cfg.total_cores())
            .map(|_| Rc::new(RefCell::new(Vec::with_capacity(window as usize))))
            .collect();
        let streams = self
            .streams()?
            .into_iter()
            .zip(&bufs)
            .map(|(inner, words)| Tap {
                inner,
                on: Rc::clone(&on),
                words: Rc::clone(words),
            })
            .collect();
        let mut sim = Simulation::try_new(&self.cfg, streams).map_err(|e| e.to_string())?;
        sim.warm_up(self.spec.warm);
        on.set(true);
        // Statistics of the first half are dropped; the report covers
        // exactly the half the replay times.
        sim.warm_up(window / 2);
        let rep = sim.run(window - window / 2);
        drop(sim);
        let words: Vec<Vec<u64>> = bufs
            .iter()
            .map(|b| std::mem::take(&mut *b.borrow_mut()))
            .collect();
        spans.push("capture", tid, 1, start);
        let start = spans.now();
        let times = replay::replay(&self.cfg, &words, !self.inst.observed(), spans, tid);
        spans.push("replay", tid, 1, start);
        Ok((times, rep.l1i.misses + rep.l1d.misses))
    }
}

fn sans_transactions(mut r: SimReport) -> SimReport {
    r.transactions = 0;
    r
}

/// Counters summed over a workload's configurations.
#[derive(Default)]
struct Totals {
    build_ms: f64,
    new_ms: f64,
    export_ms: f64,
    /// References of the traced runs (warm-up + measurement).
    refs: u64,
    calls: u64,
    burst_ns: u64,
    hist: LatencyHistogram,
    traced_ns: f64,
    /// One entry per round of comparisons.
    rounds: Vec<RoundTimes>,
    layers: LayerTimes,
    sim_l1_misses: u64,
    /// The as-run reports, one per configuration.
    reports: Vec<SimReport>,
}

/// Traces every configuration of `inst`; `budget_s` is the time the
/// phase may take, filled with extra rounds of comparisons (which steady
/// `trace.overhead_frac` and `obs.ns_per_ref`) once the mandatory runs
/// are done. Checks on the way that neither wrapper nor arms changed a
/// simulated statistic.
pub fn trace(
    inst: &Instance,
    spans: &mut Spans,
    tid: u64,
    budget_s: f64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let clock = Clock::start();
    let mut t = Totals::default();
    let window = (CAPTURE_REFS_PER_NODE / inst.specs.len() as u64)
        .min(inst.specs[0].meas)
        .max(2);
    let points: Vec<Point> = inst
        .specs
        .iter()
        .map(|spec| {
            let cfg = spec.build_config().map_err(|e| e.to_string())?;
            Ok(Point {
                inst,
                spec,
                cfg,
                params: OltpParams {
                    seed: spec.seed,
                    ..OltpParams::default()
                },
            })
        })
        .collect::<Result<_, String>>()?;
    let (mut first, mut round_s) = (RoundTimes::default(), 0.0);
    for p in &points {
        let (mut builds, mut news) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_REPS {
            let (streams, b) = spans.time("workload.build", tid, 1, || p.streams());
            let (sim, n) = spans.time("core.new", tid, 1, || {
                Simulation::try_new(&p.cfg, streams?).map_err(|e| e.to_string())
            });
            drop(sim?);
            builds.push(b * 1e3);
            news.push(n * 1e3);
        }
        t.build_ms += median(&builds);
        t.new_ms += median(&news);

        let round = Clock::start();
        let r = p.round(spans, tid, &mut t.export_ms)?;
        round_s = round.secs();
        first.add(&r.times);
        t.refs += r.probe.refs;
        t.calls += r.probe.calls;
        t.burst_ns += r.probe.ns;
        t.traced_ns += r.traced.wall_s * 1e9;
        t.hist.merge(&r.probe.hist);
        t.reports.push(r.traced.report);

        let (layers, sim_misses) = p.capture_and_replay(window, spans, tid)?;
        t.layers.add(&layers);
        t.sim_l1_misses += sim_misses;
    }
    t.rounds.push(first);

    let (point_s, busy_frac) = match &inst.plan {
        Some(plan) => sweep_pool(plan, &t.reports, spans, tid, &mut t.export_ms)?,
        None => {
            // A single run is one point on one worker; fill the budget
            // with more rounds.
            let p = &points[0];
            while clock.secs() + round_s <= budget_s {
                let round = Clock::start();
                let r = p.round(spans, tid, &mut 0.0)?;
                round_s = round.secs();
                t.rounds.push(r.times);
            }
            (
                median(&t.rounds.iter().map(|r| r.bare_s).collect::<Vec<_>>()),
                1.0,
            )
        }
    };
    Ok(metrics(&t, point_s, busy_frac))
}

/// Runs the sweep plan through the engine's worker pool with per-point
/// timing; checks each point against the traced serial run and returns
/// the median point seconds and the workers' busy fraction.
fn sweep_pool(
    plan: &csim_sweep::SweepPlan,
    traced: &[SimReport],
    spans: &mut Spans,
    tid: u64,
    export_ms: &mut f64,
) -> Result<(f64, f64), String> {
    let cfg = SweepConfig {
        jobs: SWEEP_JOBS,
        time_points: true,
        ..SweepConfig::default()
    };
    let (outcome, _) = spans.time("sweep.pool", tid, 1, || run_sweep_cfg(plan, &cfg));
    let outcome = outcome.map_err(|e| e.to_string())?;
    let (_, secs) = spans.time("core.export", tid, 1, || {
        black_box(outcome.to_json().to_string())
    });
    *export_ms += secs * 1e3;
    for (point, report) in outcome.points.iter().zip(traced) {
        let doc = point
            .as_run()
            .map(|r| &r.doc)
            .ok_or_else(|| format!("{} failed", point.label()))?;
        let pooled = doc.get("report").map(report_sans_transactions);
        if pooled.as_deref() != Some(report.to_json().to_string().as_str()) {
            return Err(format!(
                "{}: the pooled run differs from the serial traced run",
                point.label()
            ));
        }
    }
    let timing = outcome
        .timing
        .as_ref()
        .ok_or("the pool did not time its points")?;
    let millis: Vec<f64> = timing.points.iter().map(|p| p.millis).collect();
    let first = timing
        .points
        .iter()
        .map(|p| p.start_millis)
        .fold(f64::INFINITY, f64::min);
    let last = timing
        .points
        .iter()
        .map(|p| p.start_millis + p.millis)
        .fold(0.0, f64::max);
    let busy = millis.iter().sum::<f64>() / (SWEEP_JOBS as f64 * (last - first));
    Ok((median(&millis) / 1e3, busy))
}

fn report_sans_transactions(report: &Json) -> String {
    let mut r = report.clone();
    if let Json::Obj(pairs) = &mut r {
        for (k, v) in pairs {
            if k == "transactions" {
                *v = Json::UInt(0);
            }
        }
    }
    r.to_string()
}

fn metrics(t: &Totals, point_s: f64, busy_frac: f64) -> Vec<(&'static str, f64)> {
    let refs = t.refs as f64;
    let self_ns = (t.traced_ns - t.burst_ns as f64) / refs;
    let l = &t.layers;
    let per_ref = |ns: u64| ns as f64 / l.refs as f64;
    // Counters of the measured windows, summed over configurations.
    let sum = |f: &dyn Fn(&SimReport) -> u64| t.reports.iter().map(f).sum::<u64>() as f64;
    let meas = sum(&|r| r.refs_per_node * r.per_node.len() as u64);
    let per_kref = |x: f64| 1e3 * x / meas;
    let l2_misses = sum(&|r| r.misses.total());
    let rac_probes = sum(&|r| r.rac.hits + r.rac.misses);
    let instructions = sum(&|r| r.breakdown.instructions);
    let cycles: f64 = t.reports.iter().map(|r| r.breakdown.total_cycles()).sum();
    // The fastest round of each kind of run, as end-to-end times take
    // the best run: other tenants of the host only ever add time.
    let best =
        |time: fn(&RoundTimes) -> f64| t.rounds.iter().map(time).fold(f64::INFINITY, f64::min);
    vec![
        ("workload.build_ms", t.build_ms),
        ("core.new_ms", t.new_ms),
        ("core.export_ms", t.export_ms),
        ("workload.ns_per_ref", t.burst_ns as f64 / refs),
        ("workload.burst_ns_p50", t.hist.quantile(0.5) as f64),
        ("workload.burst_ns_p99", t.hist.quantile(0.99) as f64),
        ("workload.refs_per_burst", refs / t.calls as f64),
        ("core.self_ns_per_ref", self_ns),
        (
            "obs.ns_per_ref",
            (best(|r| r.self_on_ns) - best(|r| r.self_off_ns)) / refs,
        ),
        ("cache.l1.ns_per_ref", per_ref(l.l1_ns)),
        (
            "cache.l2.ns_per_access",
            l.l2_ns as f64 / l.l2_accesses as f64,
        ),
        ("cache.rac.ns_per_ref", per_ref(l.rac_ns)),
        ("coherence.ns_per_op", l.dir_ns as f64 / l.dir_ops as f64),
        ("proc.ns_per_ref", per_ref(l.proc_ns)),
        (
            "cache.l1.replay_vs_sim",
            l.l1_misses as f64 / t.sim_l1_misses as f64,
        ),
        (
            "cache.l1i.misses_per_kref",
            per_kref(sum(&|r| r.l1i.misses)),
        ),
        (
            "cache.l1d.misses_per_kref",
            per_kref(sum(&|r| r.l1d.misses)),
        ),
        ("cache.l2.misses_per_kref", per_kref(l2_misses)),
        (
            "cache.rac.hit_frac",
            if rac_probes > 0.0 {
                sum(&|r| r.rac.hits) / rac_probes
            } else {
                0.0
            },
        ),
        (
            "coherence.remote_frac",
            sum(&|r| r.misses.remote()) / l2_misses,
        ),
        (
            "coherence.three_hop_per_kref",
            per_kref(sum(&|r| r.directory.three_hop_fills)),
        ),
        (
            "coherence.invals_per_kref",
            per_kref(sum(&|r| r.directory.invalidations_sent)),
        ),
        ("fault.nacks_per_kref", per_kref(sum(&|r| r.faults.nacks))),
        ("proc.cpi", cycles / instructions),
        ("sweep.point_s_p50", point_s),
        ("sweep.worker_busy_frac", busy_frac),
        (
            "trace.overhead_frac",
            best(|r| r.traced_s) / best(|r| r.bare_s) - 1.0,
        ),
    ]
}
