//! Simulator throughput harness: measures simulation speed (simulated
//! references per wall-clock second) and records it in `BENCH_sweep.json`
//! so performance regressions are caught in CI.
//!
//! Three measurements:
//!
//! * **single** — the default OLTP configuration (`csim` with no flags:
//!   Base integration, 8M1w off-chip L2, one node), best-of-N timed
//!   `Simulation::run` after warm-up. The recorded
//!   `baseline_seed_refs_per_sec` is the same loop measured against the
//!   pre-optimization engine on the same machine; `speedup_vs_seed` is
//!   the hot-path optimization win.
//! * **cache_kernel** — the slot-word [`Cache`] (one host line per set) vs
//!   [`ReferenceCache`] (the retained seed implementation) on an
//!   identical access stream over the default 8 MB direct-mapped L2
//!   geometry. Both kernels' statistics are compared after timing —
//!   a differential check that doubles as the optimization barrier
//!   keeping the compiler from stripping the accounting out of one
//!   loop but not the other (see `measure_cache_kernel`).
//! * **sweep** — the smoke grid from `examples/sweep_smoke.toml`'s shape
//!   through `csim-sweep`'s worker pool, checking the engine scales.
//! * **kernel_attribution** — the cache-kernel loop rerun with
//!   `csim-trace` host region markers under `csim-prof`'s sampling
//!   profiler: how each kernel's wall time splits between RNG/address
//!   generation and the probe itself (the evidence behind ROADMAP item
//!   1's 0.89x analysis).
//!
//! The report also carries a **history** array: each re-record appends
//! the previous report's headline numbers (single refs/sec, its seed
//! baseline, both speedups) before overwriting them, so the file keeps
//! the optimization lineage across PRs instead of losing it.
//!
//! Usage:
//!   throughput [--meas N] [--reps K] [--jobs J] [--out FILE]
//!   throughput --check FILE     # re-measure and fail (exit 1) on a
//!                               # >20% refs/sec regression vs FILE, or
//!                               # on the slot-word cache kernel dropping
//!                               # below 1.0x vs ReferenceCache
//!
//! Timing uses `Instant::now`, which the workspace lint bans from
//! simulation code; this harness measures the simulator from outside, so
//! the readings never touch a report that must be deterministic.

use std::time::Instant;

use csim_cache::{Cache, ReferenceCache};
use csim_config::{CacheGeometry, IntegrationLevel, SystemConfig};
use csim_core::Simulation;
use csim_prof::{HostSampler, RegionReport};
use csim_sweep::{run_sweep, SweepPlan};
use csim_trace::hostprof::{set_region, Region};
use csim_trace::SimRng;
use csim_workload::OltpParams;

/// Best-of-N wall-clock seconds for one closure invocation.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // lint: allow(no-wallclock) — throughput is a wall-clock quantity; never feeds a report
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
    }
    best
}

/// The `csim` no-flags configuration: Base integration, 8M1w off-chip L2.
fn default_config() -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.nodes(1).cores_per_node(1).integration(IntegrationLevel::Base).l2_off_chip(8 << 20, 1);
    b.build().expect("the default configuration is valid")
}

/// Refs/sec of the default configuration: warm once, then time
/// `run(meas)` best-of-`reps` on the same simulation (statistics reset
/// per run keeps every repetition identical work).
fn measure_single(meas: u64, reps: usize) -> f64 {
    let cfg = default_config();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid workload");
    sim.warm_up(500_000);
    let best = best_of(reps, || {
        sim.run(meas);
    });
    meas as f64 / best
}

/// Ops/sec of a cache model under a deterministic access/insert stream.
/// Generic over the implementation so the optimized and reference caches
/// run literally the same loop. `inline(never)` pins each instantiation
/// to its own isolated codegen context: inlined into `main` next to the
/// attribution copies of the same loop, the optimizer was able to
/// specialize the reference kernel against the rest of the run and
/// deflate its timed work (it clocked above even a hand-inlined
/// stats-free reimplementation of the same probe).
#[inline(never)]
fn cache_ops_per_sec(
    reps: usize,
    ops: u64,
    line_mask: u64,
    mut access: impl FnMut(u64, bool) -> bool,
) -> f64 {
    let best = best_of(reps, || {
        let mut rng = SimRng::seed_from_u64(0xCAFE);
        for _ in 0..ops {
            let r = rng.next_u64();
            let line = r >> 32 & line_mask;
            access(line, r & 1 == 0);
        }
    });
    ops as f64 / best
}

fn measure_cache_kernel(reps: usize) -> (f64, f64) {
    // The default configuration's 8 MB direct-mapped off-chip L2: the
    // largest slot array the simulator probes, where the slot-word
    // layout's footprint (1 MB of 8-byte slots vs 2 MB of slot structs)
    // governs the host's cache behaviour.
    let geometry = CacheGeometry::new(8 << 20, 1, 64).expect("valid geometry");
    // 2x the cache's line capacity: hits, misses and evictions all stay
    // frequent, so both the probe and the insert/evict paths weigh in.
    let line_mask = 2 * geometry.lines() - 1;
    let ops = 4_000_000u64;
    let mut fast = Cache::new(geometry);
    let mut slow = ReferenceCache::new(geometry);
    // Interleave the two measurements rep by rep instead of timing one
    // implementation's full best-of after the other: host frequency and
    // cache state drift over a run, and back-to-back blocks hand the
    // second implementation a warmer machine than the first.
    let (mut best_fast, mut best_slow) = (0.0f64, 0.0f64);
    for _ in 0..reps.max(1) {
        let rate_fast = cache_ops_per_sec(1, ops, line_mask, |line, write| {
            if fast.access(line, write).is_hit() {
                true
            } else {
                fast.insert(line, write);
                false
            }
        });
        let rate_slow = cache_ops_per_sec(1, ops, line_mask, |line, write| {
            if slow.access(line, write).is_hit() {
                true
            } else {
                slow.insert(line, write);
                false
            }
        });
        best_fast = best_fast.max(rate_fast);
        best_slow = best_slow.max(rate_slow);
    }
    // Both counter blocks are observed AFTER timing, and compared. This
    // is a differential check on the measured work, and deliberately
    // also an optimization barrier: with the caches dropped unread, the
    // compiler is free to strip the statistics accounting out of
    // whichever kernel it can fully analyze (it did — for the
    // reference's simpler loop, deflating it by ~2.5x and making the
    // packed kernel look slower than the code it replaced).
    assert_eq!(
        fast.stats(),
        slow.stats(),
        "the two kernels must have done identical logical work"
    );
    (best_fast, best_slow)
}

/// Sampling rate for the kernel-attribution profile: fast enough for a
/// few thousand samples over a multi-million-op loop, slow enough that
/// `thread::sleep` granularity still paces the watcher.
const ATTRIBUTION_SAMPLE_HZ: u32 = 10_000;

/// Runs the cache-kernel loop with host region markers published
/// per-op: the RNG/address work and the probe itself become separately
/// sampleable, answering *where the kernel's wall time goes* instead of
/// only how fast it runs end to end.
fn attributed_cache_loop(
    ops: u64,
    line_mask: u64,
    probe: Region,
    mut access: impl FnMut(u64, bool) -> bool,
) {
    let mut rng = SimRng::seed_from_u64(0xCAFE);
    for _ in 0..ops {
        set_region(Region::Rng);
        let r = rng.next_u64();
        let line = r >> 32 & line_mask;
        set_region(probe);
        access(line, r & 1 == 0);
    }
    set_region(Region::Idle);
}

/// Wall-time-by-region profiles of the packed and reference cache
/// kernels (same geometry and stream as [`measure_cache_kernel`]).
fn measure_kernel_attribution(ops: u64) -> (RegionReport, RegionReport) {
    let geometry = CacheGeometry::new(8 << 20, 1, 64).expect("valid geometry");
    let line_mask = 2 * geometry.lines() - 1;

    let mut fast = Cache::new(geometry);
    let sampler = HostSampler::start(ATTRIBUTION_SAMPLE_HZ);
    attributed_cache_loop(ops, line_mask, Region::PackedProbe, |line, write| {
        if fast.access(line, write).is_hit() {
            true
        } else {
            fast.insert(line, write);
            false
        }
    });
    let packed = sampler.stop();

    let mut slow = ReferenceCache::new(geometry);
    let sampler = HostSampler::start(ATTRIBUTION_SAMPLE_HZ);
    attributed_cache_loop(ops, line_mask, Region::ReferenceProbe, |line, write| {
        if slow.access(line, write).is_hit() {
            true
        } else {
            slow.insert(line, write);
            false
        }
    });
    let reference = sampler.stop();
    (packed, reference)
}

/// The `kernel_attribution` report section: the two kernels' sampled
/// wall-time split between RNG/address generation, the probe itself,
/// and idle (loop overhead the markers don't cover).
fn kernel_attribution_json(packed: &RegionReport, reference: &RegionReport) -> String {
    let one = |name: &str, r: &RegionReport, probe: Region| {
        format!(
            "    \"{name}\": {{\"ticks\": {}, \"rng_share\": {:.3}, \"probe_share\": {:.3}, \"idle_share\": {:.3}}}",
            r.ticks,
            r.share(Region::Rng),
            r.share(probe),
            r.share(Region::Idle),
        )
    };
    format!(
        "  \"kernel_attribution\": {{\n    \"sample_hz\": {},\n{},\n{}\n  }}\n",
        packed.hz,
        one("packed", packed, Region::PackedProbe),
        one("reference", reference, Region::ReferenceProbe),
    )
}

/// Aggregate refs/sec of a small sweep grid on `jobs` workers.
fn measure_sweep(jobs: usize) -> (f64, u64) {
    let plan = SweepPlan::from_toml_str(
        r#"
        [sweep]
        name = "throughput-smoke"
        warm = 50_000
        meas = 200_000

        [grid]
        integration = ["base", "l2"]
        nodes = [1, 2]
        base_seed = 42
        runs_per_config = 1
        "#,
    )
    .expect("the smoke plan is valid");
    // Total simulated refs across the grid: meas × nodes per run.
    let total_refs: u64 = plan.expand().iter().map(|s| s.meas * s.nodes as u64).sum();
    let secs = best_of(1, || {
        run_sweep(&plan, jobs).expect("smoke sweep runs");
    });
    (total_refs as f64 / secs, total_refs)
}

/// Refs/sec of the seed (pre-optimization) engine, measured with the
/// `measure_single` loop on the machine the checked-in numbers were
/// produced on: the seed commit built with its own build configuration,
/// run as three rounds of 4M refs best-of-5, taking the median round.
/// Re-record when re-baselining on new hardware — interleave seed and
/// optimized runs, because this host's throughput drifts by several
/// percent over minutes and a one-sided measurement session biases the
/// ratio either way.
const BASELINE_SEED_REFS_PER_SEC: f64 = 24_532_347.0;

/// Scans `text` for `"key": <number>` and parses the number. Shared by
/// the regression check and the history carry-over; the workspace has a
/// JSON validator but no parser, and flat numeric fields do not justify
/// one.
fn scan_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The `history` array for the next report: the previous report's
/// history entries (carried verbatim) plus one new entry holding the
/// previous report's own headline numbers. Each entry records the seed
/// baseline it was measured against, so entries stay comparable across
/// re-baselines. Returns the bracketed JSON array, indented for the
/// report layout.
fn history_with_previous(previous: Option<&str>) -> String {
    let mut entries: Vec<String> = Vec::new();
    if let Some(prev) = previous {
        if let Some(open) = prev.find("\"history\": [") {
            let body = &prev[open + "\"history\": [".len()..];
            if let Some(close) = body.find(']') {
                for line in body[..close].lines() {
                    let line = line.trim().trim_end_matches(',');
                    if line.starts_with('{') {
                        entries.push(line.to_string());
                    }
                }
            }
        }
        // The previous headline numbers become the newest history entry.
        let single = prev
            .find("\"single\"")
            .and_then(|at| scan_number(&prev[at..], "refs_per_sec"));
        if let Some(single) = single {
            let base = scan_number(prev, "baseline_seed_refs_per_sec").unwrap_or(0.0);
            let speedup = scan_number(prev, "speedup_vs_seed").unwrap_or(0.0);
            let kernel = prev
                .find("\"cache_kernel\"")
                .and_then(|at| scan_number(&prev[at..], "speedup"))
                .unwrap_or(0.0);
            entries.push(format!(
                "{{\"refs_per_sec\": {single:.0}, \"baseline_seed_refs_per_sec\": {base:.0}, \
                 \"speedup_vs_seed\": {speedup}, \"kernel_speedup\": {kernel}}}"
            ));
        }
    }
    if entries.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n    {}\n  ]", entries.join(",\n    "))
    }
}

/// Measurement-protocol knobs echoed into the report's `config` section.
struct RunConfig {
    meas: u64,
    reps: usize,
    jobs: usize,
}

fn report_json(
    run: &RunConfig,
    single: f64,
    kernel: (f64, f64),
    sweep: (f64, u64),
    attribution: &str,
    history: &str,
) -> String {
    let (opt, reference) = kernel;
    let (sweep_rps, sweep_refs) = sweep;
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"csim-bench-sweep/v1\",\n",
            "  \"config\": {{\"meas_refs\": {meas}, \"reps\": {reps}, \"jobs\": {jobs}}},\n",
            "  \"single\": {{\n",
            "    \"label\": \"base/8M1w/1n1c\",\n",
            "    \"refs_per_sec\": {single:.0},\n",
            "    \"baseline_seed_refs_per_sec\": {base:.0},\n",
            "    \"speedup_vs_seed\": {speedup:.3},\n",
            "    \"baseline_note\": \"seed engine measured with the identical loop on the same machine; re-record when re-baselining\"\n",
            "  }},\n",
            "  \"cache_kernel\": {{\n",
            "    \"optimized_ops_per_sec\": {opt:.0},\n",
            "    \"reference_ops_per_sec\": {refc:.0},\n",
            "    \"speedup\": {kspeed:.3}\n",
            "  }},\n",
            "  \"sweep\": {{\"total_refs\": {srefs}, \"refs_per_sec\": {srps:.0}}},\n",
            "  \"history\": {hist},\n",
            "{attr}",
            "}}\n",
        ),
        hist = history,
        meas = run.meas,
        reps = run.reps,
        jobs = run.jobs,
        single = single,
        base = BASELINE_SEED_REFS_PER_SEC,
        speedup = single / BASELINE_SEED_REFS_PER_SEC,
        opt = opt,
        refc = reference,
        kspeed = opt / reference,
        srefs = sweep_refs,
        srps = sweep_rps,
        attr = attribution,
    )
}

/// Pulls `"refs_per_sec": <number>` out of the `"single"` section of a
/// recorded report.
fn recorded_single_refs_per_sec(text: &str) -> Option<f64> {
    let single = text.find("\"single\"")?;
    scan_number(&text[single..], "refs_per_sec")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut meas = 2_000_000u64;
    let mut reps = 5usize;
    let mut jobs = 4usize;
    let mut out = "BENCH_sweep.json".to_string();
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--meas" => meas = value("--meas").parse().expect("--meas: integer"),
            "--reps" => reps = value("--reps").parse().expect("--reps: integer"),
            "--jobs" => jobs = value("--jobs").parse().expect("--jobs: integer"),
            "--out" => out = value("--out").clone(),
            "--check" => check = Some(value("--check").clone()),
            other => {
                eprintln!("unknown flag '{other}' (see the module docs in throughput.rs)");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check {
        let recorded_text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read recorded report '{path}': {e}"));
        let recorded = recorded_single_refs_per_sec(&recorded_text)
            .unwrap_or_else(|| panic!("no single.refs_per_sec in '{path}'"));
        eprintln!("measuring (check mode: {meas} refs best-of-{reps}) ...");
        let current = measure_single(meas, reps);
        let ratio = current / recorded;
        println!("recorded {recorded:.0} refs/s, current {current:.0} refs/s ({ratio:.2}x)");
        // Machine-to-machine variance is larger than run-to-run variance;
        // the gate is a backstop against large regressions, not a
        // micro-benchmark.
        if ratio < 0.8 {
            eprintln!("FAIL: >20% throughput regression vs {path}");
            std::process::exit(1);
        }
        // The slot-word kernel must never lose to the reference
        // implementation it replaced — that would mean the optimized
        // probe regressed into net overhead.
        eprintln!("cache kernel gate: optimized vs reference ...");
        let (opt, reference) = measure_cache_kernel(reps);
        let kernel_ratio = opt / reference;
        println!("cache kernel {opt:.0} vs {reference:.0} ops/s ({kernel_ratio:.2}x)");
        if kernel_ratio < 1.0 {
            eprintln!("FAIL: slot-word cache kernel slower than ReferenceCache");
            std::process::exit(1);
        }
        println!("ok: within the 20% regression budget, kernel >= 1.0x");
        return;
    }

    eprintln!("single: {meas} refs best-of-{reps} ...");
    let single = measure_single(meas, reps);
    eprintln!("  {single:.0} refs/s ({:.2}x vs seed engine)", single / BASELINE_SEED_REFS_PER_SEC);
    eprintln!("cache kernel: optimized vs reference ...");
    let kernel = measure_cache_kernel(reps);
    eprintln!("  {:.0} vs {:.0} ops/s ({:.2}x)", kernel.0, kernel.1, kernel.0 / kernel.1);
    eprintln!("sweep grid on {jobs} worker(s) ...");
    let sweep = measure_sweep(jobs);
    eprintln!("  {:.0} refs/s over {} refs", sweep.0, sweep.1);
    eprintln!("kernel attribution: sampling at {ATTRIBUTION_SAMPLE_HZ} Hz ...");
    let (packed, reference) = measure_kernel_attribution(4_000_000);
    eprintln!(
        "  packed: {:.0}% rng / {:.0}% probe; reference: {:.0}% rng / {:.0}% probe",
        100.0 * packed.share(Region::Rng),
        100.0 * packed.share(Region::PackedProbe),
        100.0 * reference.share(Region::Rng),
        100.0 * reference.share(Region::ReferenceProbe),
    );
    let attribution = kernel_attribution_json(&packed, &reference);
    let previous = std::fs::read_to_string(&out).ok();
    let history = history_with_previous(previous.as_deref());
    let run = RunConfig { meas, reps, jobs };
    let doc = report_json(&run, single, kernel, sweep, &attribution, &history);
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("cannot write '{out}': {e}"));
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::{history_with_previous, kernel_attribution_json, recorded_single_refs_per_sec};

    #[test]
    fn scan_finds_the_single_section_number() {
        let text = "{\n \"single\": {\n \"label\": \"x\",\n \"refs_per_sec\": 123456,\n}}";
        assert_eq!(recorded_single_refs_per_sec(text), Some(123456.0));
        assert_eq!(recorded_single_refs_per_sec("{}"), None);
    }

    #[test]
    fn history_starts_empty_and_accumulates_previous_reports() {
        assert_eq!(history_with_previous(None), "[]");

        // A report with no history yields one entry: its own numbers.
        let first = concat!(
            "{\n \"single\": {\n \"refs_per_sec\": 100,\n",
            " \"baseline_seed_refs_per_sec\": 50,\n \"speedup_vs_seed\": 2,\n },\n",
            " \"cache_kernel\": {\n \"speedup\": 1.5\n }\n}",
        );
        let h1 = history_with_previous(Some(first));
        assert!(h1.contains("\"refs_per_sec\": 100"), "h1: {h1}");
        assert!(h1.contains("\"kernel_speedup\": 1.5"), "h1: {h1}");

        // A report carrying that history yields two entries, oldest first.
        let second = format!(
            concat!(
                "{{\n \"single\": {{\n \"refs_per_sec\": 300,\n",
                " \"baseline_seed_refs_per_sec\": 60,\n \"speedup_vs_seed\": 5,\n }},\n",
                " \"cache_kernel\": {{\n \"speedup\": 1.1\n }},\n",
                " \"history\": {h1}\n}}"
            ),
            h1 = h1
        );
        let h2 = history_with_previous(Some(&second));
        assert!(h2.contains("\"refs_per_sec\": 100"), "h2: {h2}");
        assert!(h2.contains("\"refs_per_sec\": 300"), "h2: {h2}");
        let older = h2.find("\"refs_per_sec\": 100").unwrap();
        let newer = h2.find("\"refs_per_sec\": 300").unwrap();
        assert!(older < newer, "history must stay oldest-first: {h2}");
    }

    #[test]
    fn attribution_section_carries_both_kernels() {
        let sampler = super::HostSampler::start(1000);
        let packed = sampler.stop();
        let sampler = super::HostSampler::start(1000);
        let reference = sampler.stop();
        let s = kernel_attribution_json(&packed, &reference);
        for needle in
            ["\"kernel_attribution\"", "\"packed\"", "\"reference\"", "\"probe_share\""]
        {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
