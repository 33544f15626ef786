//! `csim` — command-line front end for the chip-level-integration
//! simulator.
//!
//! Simulates one system configuration on the synthetic OLTP workload and
//! prints the paper-style execution-time and L2-miss breakdowns.
//!
//! ```text
//! USAGE: csim [OPTIONS]
//!   --nodes N            processor chips (default 1)
//!   --cores N            cores per chip sharing its L2 (default 1)
//!   --integration LEVEL  cons | base | l2 | l2mc | all  (default base)
//!   --l2 SPEC            e.g. 8M1w, 2M8w, 1.25M4w (default: 8M1w
//!                        off-chip, 2M8w for on-chip integration levels)
//!   --dram               use embedded-DRAM for the on-chip L2
//!   --rac                add the paper's 8M8w remote access cache
//!   --replicate          OS instruction-page replication
//!   --ooo                4-wide out-of-order core (default in-order)
//!   --warm N / --meas N  rounds, one reference per core each (default
//!                        2M / 2M)
//!   --seed N             workload seed
//!   --fault-plan FILE    TOML fault plan (see examples/fault_storm.toml)
//!   --fault-seed N       fault-injection seed (default 0, independent
//!                        of the workload seed)
//!   --strict N           re-verify coherence every N rounds
//!   --sanitize           cross-check every directory transition against
//!                        the executable protocol spec (csim-check); the
//!                        report stays bit-identical to a run without it
//!
//! observability (all off by default; see crates/obs):
//!   --histograms         per-class latency histograms: quantile table on
//!                        stdout and full buckets in the JSON report
//!   --epoch N            close a time-series sample every N rounds
//!   --trace-out FILE     write a JSONL event trace to FILE
//!   --trace-filter SPEC  keep only classes SPEC = CLASS[,CLASS] in the
//!                        trace (l2-hit local remote-clean remote-dirty
//!                        upgrade nack-retry)
//!   --trace-cap N        event-ring capacity (default 65536)
//!   --json-report FILE   write the machine-readable run report to FILE
//!   --profile            include the wall-clock phase profile in the
//!                        JSON report (makes it nondeterministic)
//!   --epoch-svg FILE     plot the epoch series (IPC, MPKI, NACK rate)
//!                        as an SVG line chart
//!
//! profiling (see crates/prof):
//!   --prof FILE          attribute every charged cycle to a hardware
//!                        component (L1 probe, L2 array, directory, NoC
//!                        hops, MC queue, fault extra) and write the
//!                        byte-stable csim-prof-report/v1 to FILE; the
//!                        simulation itself stays bit-identical
//!   --prof-svg FILE      with --prof, render the per-miss-class stacked
//!                        attribution bars (the paper's breakdown-figure
//!                        style) as an SVG
//!   --prof-sample-hz N   run the host sampling profiler at N Hz during
//!                        warmup+measure; prints the samples-by-region
//!                        table (one sample per busy thread per tick:
//!                        the simulator and its workload producer) on
//!                        stderr and rides in the JSON report's
//!                        nondeterministic host_profile section
//!   --trace-events FILE  write the run's phase timeline as Chrome
//!                        trace-event JSON (chrome://tracing, Perfetto);
//!                        wall clock, so inherently nondeterministic
//!   --quiet              suppress the human-readable stdout tables
//!                        (implied diagnostics stay on stderr)
//!   --validate-json FILE   check FILE is well-formed JSON and exit
//!   --validate-jsonl FILE  check FILE is well-formed JSONL and exit
//!                        (validate mode takes no other flag)
//!
//! sweep mode (see crates/sweep and examples/fig09_sweep.toml):
//!   --sweep PLAN         run the declarative parameter grid in PLAN
//!                        (TOML: [sweep] scalars, [grid] axes) instead
//!                        of a single configuration
//!   --jobs N             worker threads for the sweep (default 1; the
//!                        merged report is byte-identical for any N)
//!   --shard K/N          run only round-robin slice K of N (0-based);
//!                        needs --checkpoint, whose log is the shard's
//!                        result for --sweep-merge (no --json-report)
//!   --checkpoint FILE    append each completed point to a CRC-guarded
//!                        log; a re-run with the same plan and FILE skips
//!                        completed points and the final report is
//!                        byte-identical to an uninterrupted run
//!   --watchdog MULT      flag points slower than MULT × the median point
//!                        wall time on stderr (implies per-point timing;
//!                        the JSON report stays deterministic)
//!   --profile            with --json-report, append the per-point wall
//!                        profile to the sweep report (nondeterministic)
//!   --trace-events FILE  write the sweep's point lifecycle as Chrome
//!                        trace-event JSON — one timeline track per
//!                        worker thread (implies per-point timing)
//!
//! Sweep mode accepts only the flags above plus --json-report and
//! --quiet; per-run parameters live in the plan file. A point that
//! panics or fails keeps the rest of the sweep alive: it is retried
//! with capped backoff, recorded as a structured `failed` entry, and
//! csim exits 3 (instead of 0) so scripts notice.
//!
//! merge mode:
//!   --sweep-merge OUT --sweep PLAN LOG1 LOG2 ...
//!                        merge the checkpoint logs of PLAN's shards
//!                        into the csim-sweep-report/v1 at OUT —
//!                        byte-identical to a single-process run of
//!                        PLAN; refuses logs of another plan, a shard
//!                        given twice, and any point no log records;
//!                        prints the sweep table unless --quiet and,
//!                        like a sweep, exits 3 on failed points
//! ```

#![forbid(unsafe_code)]

use oltp_chip_integration::obs::{json, REPORT_QUANTILES};
use oltp_chip_integration::prelude::*;
use oltp_chip_integration::prof::chrome::TraceDoc;
use oltp_chip_integration::stats::svg;
use oltp_chip_integration::sweep::{
    default_l2, parse_integration, L2Spec, RunSpec, Shard, SweepConfig, SweepPlan,
};

/// What one invocation asks for. The mode is chosen by its flag —
/// `--sweep-merge` over `--sweep` over `--validate-json(l)` — and each
/// mode rejects every flag it does not use.
#[derive(Debug)]
enum Cli {
    /// Simulate one design point.
    Run(Box<Args>),
    /// Run a sweep plan's grid, or merge its shards' checkpoint logs.
    Sweep(SweepArgs),
    /// Check that a file is well-formed JSON (or JSONL) and exit.
    Validate { path: String, jsonl: bool },
    /// Point at the usage text.
    Help,
}

/// Output flags that single runs and sweeps share.
#[derive(Debug, Default)]
struct Outputs {
    json_report: Option<String>,
    trace_events: Option<String>,
    profile: bool,
    quiet: bool,
}

/// A single run: the design point plus what to observe and export.
#[derive(Debug, Default)]
struct Args {
    spec: RunSpec,
    out: Outputs,
    fault_plan: Option<String>,
    fault_seed: u64,
    strict: Option<u64>,
    sanitize: bool,
    histograms: bool,
    epoch: Option<u64>,
    trace_out: Option<String>,
    trace_filter: Option<TraceFilter>,
    trace_cap: Option<usize>,
    epoch_svg: Option<String>,
    prof: Option<String>,
    prof_svg: Option<String>,
    prof_sample_hz: Option<u32>,
}

/// Sweep and merge modes' flags; per-run parameters live in the plan
/// file.
#[derive(Debug)]
struct SweepArgs {
    plan: String,
    jobs: usize,
    shard: Option<Shard>,
    checkpoint: Option<String>,
    watchdog: Option<f64>,
    out: Outputs,
    /// The shards' checkpoint logs to merge instead of running the grid
    /// (merge mode, whose output path is `out.json_report`).
    logs: Vec<String>,
}

/// Which [`Cli`] the command line asks for.
#[derive(Clone, Copy)]
enum Mode {
    Run,
    Sweep,
    Merge,
    Validate,
}

impl Mode {
    /// The mode a command line selects.
    fn of(argv: &[String]) -> Mode {
        let has = |flag: &str| argv.iter().any(|a| a == flag);
        if has("--sweep-merge") {
            Mode::Merge
        } else if has("--sweep") {
            Mode::Sweep
        } else if has("--validate-json") || has("--validate-jsonl") {
            Mode::Validate
        } else {
            Mode::Run
        }
    }

    /// Why this mode refuses `flag`.
    fn reject(self, flag: &str) -> String {
        let takes = match self {
            Mode::Run => return format!("unknown flag '{flag}'"),
            Mode::Sweep => {
                "--sweep (sweep mode accepts only --sweep, --jobs, --shard, --checkpoint, \
                 --watchdog, --profile, --trace-events, --json-report and --quiet; per-run \
                 parameters belong in the plan file)"
            }
            Mode::Merge => {
                "--sweep-merge (merge mode takes an output path, --sweep with the plan, the \
                 shards' checkpoint logs, and optionally --quiet)"
            }
            Mode::Validate => {
                "--validate-json/--validate-jsonl (validate mode takes only the file to check)"
            }
        };
        format!("flag '{flag}' cannot be combined with {takes}")
    }
}

/// Parses the `--jobs` worker count: a positive integer, hardened the
/// same way as the L2 spec parser (no zero, no trailing junk, a sanity
/// ceiling well above any real machine).
fn parse_jobs(text: &str) -> Result<usize, String> {
    let jobs: usize =
        text.trim().parse().map_err(|_| format!("bad --jobs value '{text}': not an integer"))?;
    if jobs == 0 {
        return Err("bad --jobs value '0': at least one worker is required".to_string());
    }
    if jobs > 1024 {
        return Err(format!("bad --jobs value '{jobs}': exceeds the 1024-worker ceiling"));
    }
    Ok(jobs)
}

/// Parses the `--watchdog` straggler multiple: a finite number strictly
/// above 1 (a point can hardly be flagged for being faster than, or
/// equal to, the median).
fn parse_watchdog(text: &str) -> Result<f64, String> {
    let mult: f64 =
        text.trim().parse().map_err(|_| format!("bad --watchdog value '{text}': not a number"))?;
    if !mult.is_finite() || mult <= 1.0 {
        return Err(format!(
            "bad --watchdog value '{text}': the straggler multiple must be a finite number \
             greater than 1 (e.g. --watchdog 3 flags points 3x slower than the median)"
        ));
    }
    Ok(mult)
}

/// Parses a numeric flag value.
fn number<T: std::str::FromStr>(text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{e}"))
}

/// Parses a count that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let n: T = number(text)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parses the command line (without the program name) in one pass.
fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    use Mode::{Merge, Run, Sweep, Validate};
    let mode = Mode::of(argv);
    let mut args = Args::default();
    let mut l2: Option<L2Spec> = None;
    let mut plan: Option<String> = None;
    let (mut jobs, mut shard, mut checkpoint, mut watchdog) = (1, None, None, None);
    let mut logs: Vec<String> = Vec::new();
    let mut validate: Option<(String, bool)> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let spec = &mut args.spec;
        match (mode, flag.as_str()) {
            (Run, "--nodes") => spec.nodes = number(&value()?)?,
            (Run, "--cores") => spec.cores = number(&value()?)?,
            (Run, "--integration") => spec.integration = parse_integration(&value()?)?,
            (Run, "--l2") => l2 = Some(L2Spec::parse(&value()?)?),
            (Run, "--dram") => spec.dram = true,
            (Run, "--rac") => spec.rac = true,
            (Run, "--replicate") => spec.replicate = true,
            (Run, "--ooo") => spec.ooo = true,
            (Run, "--warm") => spec.warm = number(&value()?)?,
            (Run, "--meas") => spec.meas = number(&value()?)?,
            (Run, "--seed") => spec.seed = number(&value()?)?,
            (Run, "--fault-plan") => args.fault_plan = Some(value()?),
            (Run, "--fault-seed") => args.fault_seed = number(&value()?)?,
            (Run, "--strict") => args.strict = Some(number(&value()?)?),
            (Run, "--sanitize") => args.sanitize = true,
            (Run, "--histograms") => args.histograms = true,
            (Run, "--epoch") => args.epoch = Some(positive(flag, &value()?)?),
            (Run, "--trace-out") => args.trace_out = Some(value()?),
            (Run, "--trace-filter") => {
                args.trace_filter = Some(TraceFilter::parse_classes(&value()?)?)
            }
            (Run, "--trace-cap") => args.trace_cap = Some(number(&value()?)?),
            (Run, "--epoch-svg") => args.epoch_svg = Some(value()?),
            (Run, "--prof") => args.prof = Some(value()?),
            (Run, "--prof-svg") => args.prof_svg = Some(value()?),
            (Run, "--prof-sample-hz") => args.prof_sample_hz = Some(positive(flag, &value()?)?),
            (Run, "--help" | "-h") => return Ok(Cli::Help),
            (Run | Sweep, "--json-report") => args.out.json_report = Some(value()?),
            (Run | Sweep, "--trace-events") => args.out.trace_events = Some(value()?),
            (Run | Sweep, "--profile") => args.out.profile = true,
            (Run | Sweep | Merge, "--quiet") => args.out.quiet = true,
            (Sweep | Merge, "--sweep") => plan = Some(value()?),
            (Sweep, "--jobs") => jobs = parse_jobs(&value()?)?,
            (Sweep, "--shard") => shard = Some(Shard::parse(&value()?)?),
            (Sweep, "--checkpoint") => checkpoint = Some(value()?),
            (Sweep, "--watchdog") => watchdog = Some(parse_watchdog(&value()?)?),
            (Merge, "--sweep-merge") => args.out.json_report = Some(value()?),
            (Merge, file) if !file.starts_with("--") => logs.push(file.to_string()),
            (Validate, "--validate-json") => validate = Some((value()?, false)),
            (Validate, "--validate-jsonl") => validate = Some((value()?, true)),
            (_, other) => return Err(mode.reject(other)),
        }
    }
    match mode {
        Sweep | Merge => {
            // A log binds only the plan's fingerprint, so a merge names
            // the plan file too: it stays the one description of a sweep.
            let plan = plan.ok_or("sweep and merge modes need --sweep <plan.toml>")?;
            if matches!(mode, Merge) && (args.out.json_report.is_none() || logs.is_empty()) {
                return Err(
                    "--sweep-merge needs an output path and at least one checkpoint log".into()
                );
            }
            if shard.is_some() && (checkpoint.is_none() || args.out.json_report.is_some()) {
                return Err("--shard needs --checkpoint <log> and takes no --json-report: the \
                            log is the shard's result, which --sweep-merge turns into the report"
                    .into());
            }
            let out = args.out;
            Ok(Cli::Sweep(SweepArgs { plan, jobs, shard, checkpoint, watchdog, out, logs }))
        }
        Validate => {
            let (path, jsonl) = validate.ok_or("validate mode needs a file")?;
            Ok(Cli::Validate { path, jsonl })
        }
        Run => {
            if args.trace_out.is_none() && (args.trace_filter.is_some() || args.trace_cap.is_some())
            {
                return Err("--trace-filter/--trace-cap require --trace-out".into());
            }
            if args.epoch_svg.is_some() && args.epoch.is_none() {
                return Err("--epoch-svg requires --epoch".into());
            }
            if args.prof_svg.is_some() && args.prof.is_none() {
                return Err("--prof-svg requires --prof".into());
            }
            let l2 = l2.unwrap_or_else(|| default_l2(args.spec.integration));
            args.spec.l2_bytes = l2.bytes;
            args.spec.l2_assoc = l2.assoc;
            args.spec.l2_label = l2.label;
            Ok(Cli::Run(Box::new(args)))
        }
    }
}

fn main() {
    // Print errors through their Display impls (the typed errors carry
    // user-facing messages) rather than the Debug dump a `main() ->
    // Result` would produce, and exit nonzero so scripts can gate on us.
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// The observability configuration the flags ask for.
fn obs_config(args: &Args) -> ObsConfig {
    ObsConfig {
        histograms: args.histograms,
        epoch: args.epoch,
        trace: args.trace_out.as_ref().map(|_| {
            let mut t = TraceConfig::default();
            if let Some(cap) = args.trace_cap {
                t.capacity = cap;
            }
            if let Some(f) = &args.trace_filter {
                t.filter = f.clone();
            }
            t
        }),
    }
}

/// The reproduction manifest for the JSON report: the design point's
/// configuration echo plus every seed the run consumed.
fn run_manifest(args: &Args, cfg: &SystemConfig) -> RunManifest {
    let mut config = args.spec.manifest_config();
    let mut seeds = vec![("workload".to_string(), args.spec.seed)];
    if let Some(plan) = &args.fault_plan {
        config.push(("fault_plan".to_string(), plan.clone()));
        seeds.push(("fault".to_string(), args.fault_seed));
    }
    RunManifest {
        tool: "csim".into(),
        version: version_string(env!("CARGO_PKG_VERSION")),
        config_summary: cfg.summary(),
        config,
        seeds,
    }
}

/// The epoch time-series as a line chart (IPC, MPKI, NACKs per 1000
/// refs per epoch).
fn epoch_chart(samples: &[oltp_chip_integration::obs::EpochSample], epoch_len: u64) -> LineChart {
    let mut ipc = Series::new("IPC");
    let mut mpki = Series::new("MPKI");
    let mut nacks = Series::new("NACKs/kref");
    for s in samples {
        let x = s.index as f64;
        ipc.push(x, s.ipc);
        mpki.push(x, s.mpki);
        nacks.push(x, s.nack_rate_per_kref(epoch_len));
    }
    LineChart::new(format!("epoch series ({epoch_len} refs/node per epoch)"))
        .with_axes("epoch", "value")
        .with_series(ipc)
        .with_series(mpki)
        .with_series(nacks)
}

/// Sweep mode: runs the plan's grid, or merges its shards' checkpoint
/// logs (a resume with nothing left to run), and writes its report.
fn run_sweep(args: SweepArgs) -> Result<(), Box<dyn std::error::Error>> {
    use oltp_chip_integration::sweep::{merge_logs, run_sweep_cfg};

    let SweepArgs { plan: path, jobs, shard, checkpoint, watchdog, out, logs } = args;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read sweep plan '{path}': {e}"))?;
    let plan = SweepPlan::from_toml_str(&text)?;
    let cfg = SweepConfig {
        jobs,
        shard,
        checkpoint,
        // Timing stays off — and the engine deterministic — unless the
        // watchdog, the profile, or the trace timeline asks for it.
        time_points: watchdog.is_some() || out.profile || out.trace_events.is_some(),
        straggler_mult: watchdog,
        ..SweepConfig::default()
    };
    let outcome = if logs.is_empty() {
        eprintln!(
            "sweep '{}': {} run(s){} on {} worker(s), {} warm + {} meas refs/node each",
            plan.name,
            plan.run_count(),
            shard.map(|s| format!(" (shard {s})")).unwrap_or_default(),
            jobs,
            plan.warm,
            plan.meas
        );
        run_sweep_cfg(&plan, &cfg)?
    } else {
        eprintln!("sweep '{}': merging {} checkpoint log(s)", plan.name, logs.len());
        merge_logs(&plan, &logs)?
    };
    for warning in &outcome.warnings {
        eprintln!("warning: {warning}");
    }
    if outcome.resumed > 0 {
        eprintln!(
            "checkpoint: {} point(s) restored, {} executed",
            outcome.resumed,
            outcome.points.len().saturating_sub(outcome.resumed)
        );
    }
    if let Some(timing) = &outcome.timing {
        for t in &timing.points {
            if timing.stragglers.contains(&t.index) {
                eprintln!(
                    "watchdog: straggler {} took {:.0} ms ({:.1}x the {:.0} ms median, {:.0} krefs/s)",
                    t.label,
                    t.millis,
                    t.millis / timing.median_millis,
                    timing.median_millis,
                    t.krefs_per_sec
                );
            }
        }
    }
    if let Some(path) = &out.trace_events {
        // One timeline track per worker thread (tid = worker + 1; tid 0
        // is reserved for whole-run markers), each point a complete
        // span at its measured offset. Resumed points never executed,
        // so they appear as a single instant marker at t = 0.
        let mut doc = TraceDoc::new();
        if outcome.resumed > 0 {
            doc.push_instant_ms(
                &format!("{} point(s) restored from checkpoint", outcome.resumed),
                "sweep",
                0.0,
                0,
            );
        }
        if let Some(timing) = &outcome.timing {
            for t in &timing.points {
                doc.push_span_ms(&t.label, "point", t.start_millis, t.millis, t.worker as u64 + 1);
            }
        }
        std::fs::write(path, format!("{}\n", doc.to_json()))
            .map_err(|e| format!("cannot write trace events '{path}': {e}"))?;
        eprintln!("trace events: {path} ({} event(s))", doc.len());
    }
    if let Some(path) = &out.json_report {
        let mut doc = outcome.to_json();
        if out.profile {
            if let Some(timing) = &outcome.timing {
                // Deliberately opt-in: wall clock makes the document
                // nondeterministic, exactly like --profile on a single run.
                doc.push("profile", timing.to_profile().to_json());
            }
        }
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write report '{path}': {e}"))?;
        eprintln!("report: {path}");
    }
    let failures = outcome.failures().count();
    if !out.quiet {
        let mut t = TextTable::new(vec!["run", "CPI", "MPKI", "L2 misses", "transactions"]);
        for p in &outcome.points {
            match p.as_run() {
                Some(r) => {
                    t.row(vec![
                        r.label.clone(),
                        format!("{:.3}", r.summary.cpi),
                        format!("{:.3}", r.summary.mpki),
                        r.summary.l2_misses.to_string(),
                        r.summary.transactions.to_string(),
                    ]);
                }
                None => {
                    t.row(vec![
                        p.label().to_string(),
                        "failed".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
            }
        }
        println!("{}", t.render());
    }
    if failures > 0 {
        for f in outcome.failures() {
            eprintln!("failed: {} after {} attempt(s): {}", f.label, f.attempts, f.error);
        }
        eprintln!("sweep finished with {failures} failed point(s) out of {}", outcome.points.len());
        // The report (with its structured failure entries) is already on
        // disk; the exit code tells scripts the grid is incomplete.
        std::process::exit(3);
    }
    Ok(())
}

/// Validate mode: checks `path` holds one JSON document, or one per line.
fn run_validate(path: &str, jsonl: bool) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let checked = if jsonl { json::validate_jsonl(&text) } else { json::validate(&text) };
    checked.map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: ok");
    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&argv).map_err(|e| format!("{e} (try --help)"))? {
        Cli::Run(args) => run_single(&args),
        Cli::Sweep(args) => run_sweep(args),
        Cli::Validate { path, jsonl } => run_validate(&path, jsonl),
        Cli::Help => {
            println!("see the module docs at the top of src/bin/csim.rs for usage");
            Ok(())
        }
    }
}

/// Single-run mode: simulates one design point and exports what the
/// flags ask for.
fn run_single(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = &args.spec;
    let cfg = spec.system_config()?;
    let params = OltpParams { seed: spec.seed, ..OltpParams::default() };

    eprintln!("config: {}", cfg.summary());
    let lat = cfg.latencies();
    eprintln!(
        "latencies: L2 hit {}, local {}, remote {}, remote dirty {} cycles",
        lat.l2_hit, lat.local, lat.remote_clean, lat.remote_dirty
    );
    eprintln!("warming {} refs/node, measuring {} refs/node ...", spec.warm, spec.meas);

    let mut profile = PhaseProfile::new();
    let mut sim = profile.time("build", || Simulation::with_oltp(&cfg, params))?;
    let obs_cfg = obs_config(args);
    if !obs_cfg.is_off() {
        sim.set_observer(Observer::new(obs_cfg));
    }
    if args.prof.is_some() {
        // Read-only attribution: the simulated run stays bit-identical
        // (tests/prof_identity.rs holds csim to that).
        sim.set_attribution(true);
    }
    if let Some(path) = &args.fault_plan {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan '{path}': {e}"))?;
        let plan = FaultPlan::from_toml_str(&text)?;
        eprintln!(
            "fault plan: {path} (nack prob {}, {} link window(s), {} MC window(s)), seed {}",
            plan.nack.prob,
            plan.link_faults.len(),
            plan.mc_faults.len(),
            args.fault_seed
        );
        sim.set_fault_injector(FaultInjector::new(plan, args.fault_seed)?);
    }
    if args.sanitize {
        // Before warm-up: the shadow directory must see every transition
        // from reset to vouch for the run.
        sim.set_sanitize(true);
    }
    // The host sampler brackets exactly the phases whose wall time the
    // region markers describe (warmup + measure).
    let sampler = args.prof_sample_hz.map(HostSampler::start);
    profile.time("warmup", || sim.warm_up(spec.warm));
    let rep = match args.strict {
        Some(every) => profile.time("measure", || sim.run_verified(spec.meas, every))?,
        None => profile.time("measure", || sim.run(spec.meas)),
    };
    let regions = sampler.map(HostSampler::stop);
    if let Some(regions) = &regions {
        eprint!("{}", regions.to_table());
    }
    if args.sanitize {
        sim.verify_sanitizer()?;
        if let Some(checks) = sim.sanitizer_checks() {
            eprintln!("sanitizer: {checks} directory transitions cross-checked, no divergence");
        }
    }

    if let Some(path) = &args.trace_out {
        let jsonl = sim.observer().trace_jsonl();
        std::fs::write(path, &jsonl).map_err(|e| format!("cannot write trace '{path}': {e}"))?;
        #[expect(
            clippy::expect_used,
            reason = "the observer was configured from this same flag a few lines up"
        )]
        let ring = sim.observer().events().expect("--trace-out enables tracing");
        eprintln!("trace: {path} ({} events, {} dropped)", ring.len(), ring.dropped());
    }
    if let Some(path) = &args.epoch_svg {
        #[expect(
            clippy::expect_used,
            reason = "the observer was configured from this same flag a few lines up"
        )]
        let epoch_len = sim.observer().epoch_len().expect("--epoch-svg requires --epoch");
        let chart = epoch_chart(sim.observer().epoch_samples(), epoch_len);
        svg::write_lines_file(&chart, path)
            .map_err(|e| format!("cannot write epoch chart '{path}': {e}"))?;
        eprintln!("epoch chart: {path} ({} epochs)", sim.observer().epoch_samples().len());
    }
    if let Some(path) = &args.prof {
        #[expect(
            clippy::expect_used,
            reason = "attribution was enabled from this same flag a few lines up"
        )]
        let attr = sim.attribution().expect("--prof enables attribution");
        let manifest = run_manifest(args, &cfg);
        let doc = prof_report_json(attr, &manifest);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write prof report '{path}': {e}"))?;
        eprintln!("prof report: {path}");
        if let Some(svg_path) = &args.prof_svg {
            let mut chart = BarChart::new("cycle attribution by miss class (cycles)");
            for class in MissClass::ALL {
                if attr.class_count(class) == 0 {
                    continue;
                }
                let mut bar = Bar::new(class.as_str());
                for comp in Component::ALL {
                    bar = bar.with(comp.as_str(), attr.cell(class, comp) as f64);
                }
                chart.push(bar);
            }
            svg::write_file(&chart, svg_path)
                .map_err(|e| format!("cannot write prof chart '{svg_path}': {e}"))?;
            eprintln!("prof chart: {svg_path}");
        }
    }
    if let Some(path) = &args.out.trace_events {
        let doc = TraceDoc::from_phases(&profile, "csim");
        std::fs::write(path, format!("{}\n", doc.to_json()))
            .map_err(|e| format!("cannot write trace events '{path}': {e}"))?;
        eprintln!("trace events: {path} ({} span(s))", doc.len());
    }
    if let Some(path) = &args.out.json_report {
        let manifest = run_manifest(args, &cfg);
        // Wall clock only enters the report when explicitly asked for.
        let host = (args.out.profile || regions.is_some())
            .then(|| HostProfile { phases: profile.clone(), regions: regions.clone() });
        let doc = run_report_json(&rep, sim.observer(), &manifest, host.as_ref());
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write report '{path}': {e}"))?;
        eprintln!("report: {path}");
    }
    if args.out.quiet {
        return Ok(());
    }

    let chart = BarChart::new("execution time breakdown")
        .with_bar(rep.exec_bar("cycles"))
        .normalized_to_first();
    println!("{}", chart.render(60));
    let chart =
        BarChart::new("L2 miss breakdown").with_bar(rep.miss_bar("misses")).normalized_to_first();
    println!("{}", chart.render(60));

    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["instructions".into(), rep.breakdown.instructions.to_string()]);
    t.row(vec!["CPI".into(), format!("{:.3}", rep.breakdown.cpi())]);
    t.row(vec![
        "CPU utilization".into(),
        format!("{:.1}%", 100.0 * rep.breakdown.cpu_utilization()),
    ]);
    t.row(vec!["L2 misses".into(), rep.misses.total().to_string()]);
    t.row(vec![
        "  instruction / data".into(),
        format!("{} / {}", rep.misses.instr(), rep.misses.data()),
    ]);
    t.row(vec![
        "  local / 2-hop / 3-hop".into(),
        format!(
            "{} / {} / {}",
            rep.misses.instr_local + rep.misses.data_local,
            rep.misses.instr_remote + rep.misses.data_remote_clean,
            rep.misses.data_remote_dirty
        ),
    ]);
    t.row(vec!["  cold".into(), rep.misses.cold.to_string()]);
    t.row(vec!["mpki".into(), format!("{:.3}", rep.mpki())]);
    t.row(vec!["upgrades".into(), rep.upgrades.to_string()]);
    if cfg.rac().is_some() {
        t.row(vec!["RAC hit rate".into(), format!("{:.1}%", 100.0 * rep.rac.hit_rate())]);
    }
    t.row(vec!["transactions".into(), rep.transactions.to_string()]);
    t.row(vec!["writebacks".into(), rep.directory.writebacks.to_string()]);
    t.row(vec!["invalidations sent".into(), rep.directory.invalidations_sent.to_string()]);
    if args.fault_plan.is_some() {
        let f = &rep.faults;
        t.row(vec!["NACKs / retries".into(), format!("{} / {}", f.nacks, f.retries)]);
        t.row(vec!["backoff cycles".into(), f.backoff_cycles.to_string()]);
        t.row(vec!["retry cycles (total)".into(), f.retry_cycles.to_string()]);
        t.row(vec!["watchdog trips".into(), f.watchdog_trips.to_string()]);
        t.row(vec![
            "degraded txns / cycles".into(),
            format!("{} / {}", f.degraded_txns, f.degraded_extra_cycles),
        ]);
        t.row(vec![
            "MC-busy txns / cycles".into(),
            format!("{} / {}", f.mc_busy_txns, f.mc_extra_cycles),
        ]);
        t.row(vec!["fault extra cycles".into(), f.total_extra_cycles().to_string()]);
    }
    println!("{}", t.render());

    if args.histograms {
        let mut t = TextTable::new(vec![
            "class", "count", "min", "mean", "p50", "p90", "p99", "p999", "max",
        ]);
        for class in MissClass::ALL {
            #[expect(
                clippy::expect_used,
                reason = "the observer was configured from this same flag a few lines up"
            )]
            let h = sim.observer().histogram(class).expect("--histograms enables histograms");
            if h.count() == 0 {
                continue;
            }
            let mut row = vec![
                class.to_string(),
                h.count().to_string(),
                h.min().to_string(),
                format!("{:.1}", h.mean()),
            ];
            row.extend(REPORT_QUANTILES.iter().map(|&(_, q)| h.quantile(q).to_string()));
            row.push(h.max().to_string());
            t.row(row);
        }
        println!("serviced latency by miss class (cycles)");
        println!("{}", t.render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use oltp_chip_integration::trace::SimRng;

    use super::{parse_cli, parse_jobs, parse_watchdog, Args, Cli};

    fn cli(line: &str) -> Result<Cli, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_cli(&argv)
    }

    fn run_args(line: &str) -> Args {
        match cli(line) {
            Ok(Cli::Run(args)) => *args,
            other => panic!("{line}: not a single run: {other:?}"),
        }
    }

    #[test]
    fn the_mode_flag_selects_the_mode() {
        assert!(matches!(cli(""), Ok(Cli::Run(_))));
        assert!(matches!(cli("--nodes 8 --rac"), Ok(Cli::Run(_))));
        assert!(matches!(cli("--help"), Ok(Cli::Help)));
        match cli("--sweep p.toml --jobs 4 --shard 1/2 --checkpoint s1.log --quiet") {
            Ok(Cli::Sweep(s)) => {
                assert_eq!((s.plan.as_str(), s.jobs), ("p.toml", 4));
                assert!(s.shard.is_some() && s.checkpoint.is_some() && s.out.quiet);
            }
            other => panic!("{other:?}"),
        }
        match cli("--sweep-merge out.json --sweep p.toml a.log b.log --quiet") {
            Ok(Cli::Sweep(s)) => {
                assert_eq!(s.out.json_report.as_deref(), Some("out.json"));
                assert!(s.plan == "p.toml" && s.logs.len() == 2 && s.out.quiet);
            }
            other => panic!("{other:?}"),
        }
        // `--sweep-merge` outranks `--sweep`, which names the plan.
        let merge = cli("--sweep-merge o a --sweep p");
        assert!(matches!(merge, Ok(Cli::Sweep(s)) if s.logs == ["a"] && s.plan == "p"));
        assert!(matches!(cli("--validate-json r.json"), Ok(Cli::Validate { jsonl: false, .. })));
        assert!(matches!(cli("--validate-jsonl t.jsonl"), Ok(Cli::Validate { jsonl: true, .. })));
    }

    #[test]
    fn each_mode_rejects_the_flags_it_does_not_use() {
        let err = cli("--sweep examples/sweep_smoke.toml --nodes 2").unwrap_err();
        assert!(err.contains("'--nodes' cannot be combined with --sweep"), "{err}");
        let err = cli("--sweep-merge out.json a.json --jobs 2").unwrap_err();
        assert!(err.contains("'--jobs' cannot be combined with --sweep-merge"), "{err}");
        let err = cli("--sweep-merge out.json --sweep p.toml").unwrap_err();
        assert!(err.contains("at least one checkpoint log"), "{err}");
        let err = cli("--sweep-merge out.json a.log").unwrap_err();
        assert!(err.contains("need --sweep <plan.toml>"), "{err}");
        let err = cli("--sweep p.toml --shard 0/2").unwrap_err();
        assert!(err.contains("--shard needs --checkpoint"), "{err}");
        let err =
            cli("--sweep p.toml --shard 0/2 --checkpoint s.log --json-report r.json").unwrap_err();
        assert!(err.contains("takes no --json-report"), "{err}");
        let err = cli("--validate-json r.json --quiet").unwrap_err();
        assert!(err.contains("'--quiet' cannot be combined with --validate-json"), "{err}");
        assert!(cli("--jobs 2").unwrap_err().contains("unknown flag '--jobs'"));
        assert!(cli("stray").unwrap_err().contains("unknown flag 'stray'"));
        assert!(cli("--nodes").unwrap_err().contains("--nodes needs a value"));
    }

    #[test]
    fn an_absent_l2_takes_the_integration_levels_default() {
        let off = run_args("--integration base").spec;
        assert_eq!((off.l2_bytes, off.l2_assoc), (8 << 20, 1));
        let on = run_args("--integration all").spec;
        assert_eq!((on.l2_bytes, on.l2_assoc), (2 << 20, 8));
        let given = run_args("--integration all --l2 1M4w").spec;
        assert_eq!((given.l2_bytes, given.l2_assoc), (1 << 20, 4));
        assert!(cli("--l2 2M3w").unwrap_err().contains("power of two"));
    }

    #[test]
    fn zero_epochs_and_sample_rates_are_rejected() {
        assert!(cli("--epoch 0").unwrap_err().contains("--epoch must be at least 1"));
        let err = cli("--prof-sample-hz 0").unwrap_err();
        assert!(err.contains("--prof-sample-hz must be at least 1"), "{err}");
        assert_eq!(run_args("--epoch 5").epoch, Some(5));
    }

    #[test]
    fn dependent_flags_require_their_base() {
        assert!(cli("--trace-cap 8").unwrap_err().contains("require --trace-out"));
        assert!(cli("--trace-filter local").unwrap_err().contains("require --trace-out"));
        assert!(cli("--epoch-svg e.svg").unwrap_err().contains("requires --epoch"));
        assert!(cli("--prof-svg p.svg").unwrap_err().contains("requires --prof"));
        assert!(matches!(cli("--prof p.json --prof-svg p.svg"), Ok(Cli::Run(_))));
    }

    #[test]
    fn parse_jobs_accepts_positive_counts() {
        assert_eq!(parse_jobs("1").unwrap(), 1);
        assert_eq!(parse_jobs(" 8 ").unwrap(), 8);
        assert_eq!(parse_jobs("1024").unwrap(), 1024);
    }

    #[test]
    fn parse_jobs_rejects_degenerate_counts() {
        assert!(parse_jobs("0").unwrap_err().contains("at least one"));
        assert!(parse_jobs("-2").unwrap_err().contains("not an integer"));
        assert!(parse_jobs("four").unwrap_err().contains("not an integer"));
        assert!(parse_jobs("4x").unwrap_err().contains("not an integer"));
        assert!(parse_jobs("2048").unwrap_err().contains("ceiling"));
    }

    #[test]
    fn parse_watchdog_accepts_sane_multiples() {
        assert_eq!(parse_watchdog("3").unwrap(), 3.0);
        assert_eq!(parse_watchdog(" 1.5 ").unwrap(), 1.5);
    }

    #[test]
    fn parse_watchdog_rejects_degenerate_multiples() {
        assert!(parse_watchdog("1").unwrap_err().contains("greater than 1"));
        assert!(parse_watchdog("0.5").unwrap_err().contains("greater than 1"));
        assert!(parse_watchdog("-3").unwrap_err().contains("greater than 1"));
        assert!(parse_watchdog("inf").unwrap_err().contains("greater than 1"));
        assert!(parse_watchdog("nan").unwrap_err().contains("greater than 1"));
        assert!(parse_watchdog("fast").unwrap_err().contains("not a number"));
    }

    /// Valid command lines for all four modes: the mutation seeds.
    const SEED_LINES: [&str; 7] = [
        "--nodes 8 --cores 2 --integration all --l2 2M8w --dram --rac --replicate --ooo \
         --warm 100 --meas 200 --seed 7 --fault-plan f.toml --fault-seed 3 --strict 50 \
         --sanitize --histograms --epoch 10 --epoch-svg e.svg --trace-out t.jsonl \
         --trace-filter local,remote-dirty --trace-cap 64 --prof p.json --prof-svg p.svg \
         --prof-sample-hz 99 --json-report r.json --trace-events te.json --profile --quiet",
        "--integration l2 --l2 1M4w --nodes 2",
        "--l2 8M1w --warm 0 --meas 1",
        "--sweep p.toml --jobs 4 --checkpoint c.log --watchdog 3 --profile \
         --trace-events te.json --json-report r.json --quiet",
        "--sweep p.toml --shard 1/2 --checkpoint c.log",
        "--sweep-merge out.json --sweep p.toml a.log b.log --quiet",
        "--validate-jsonl t.jsonl",
    ];

    /// Values at and past the edges of every numeric and spec parser.
    const EXTREMES: [&str; 24] = [
        "0",
        "1",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "1e400",
        "-1e400",
        "NaN",
        "inf",
        "0.5",
        "",
        " ",
        "0.001M1w",
        "99999999999999999999M1w",
        "1e400M1w",
        "NaNM1w",
        "2M18446744073709551616w",
        "2M2147483648w",
        "0/0",
        "1/0",
        "18446744073709551616/2",
        "--",
        "-",
        "\u{e9}",
    ];

    /// Applies one random mutation to `argv`: a token flipped to an
    /// extreme, a bit flipped inside a token, a truncation, a splice
    /// from another seed, a duplicated flag, or a flag's value set to
    /// an extreme.
    fn mutate(rng: &mut SimRng, argv: &mut Vec<String>, seeds: &[Vec<String>]) {
        let pick = |rng: &mut SimRng, n: usize| rng.gen_range_usize(0..n.max(1));
        let extreme = |rng: &mut SimRng| EXTREMES[pick(rng, EXTREMES.len())].to_string();
        let flags: Vec<usize> = (0..argv.len()).filter(|&i| argv[i].starts_with("--")).collect();
        match rng.gen_range(0..6) {
            0 if !argv.is_empty() => {
                let i = pick(rng, argv.len());
                argv[i] = extreme(rng);
            }
            1 if !argv.is_empty() => {
                let i = pick(rng, argv.len());
                let mut bytes = argv[i].clone().into_bytes();
                if !bytes.is_empty() {
                    let j = pick(rng, bytes.len());
                    bytes[j] ^= 1 << rng.gen_range(0..7);
                }
                argv[i] = String::from_utf8_lossy(&bytes).into_owned();
            }
            2 => argv.truncate(pick(rng, argv.len() + 1)),
            3 => {
                let other = &seeds[pick(rng, seeds.len())];
                let from = pick(rng, other.len());
                let to = from + pick(rng, other.len() - from + 1);
                let at = pick(rng, argv.len() + 1);
                argv.splice(at..at, other[from..to].iter().cloned());
            }
            4 if !flags.is_empty() => {
                let i = flags[pick(rng, flags.len())];
                let dup: Vec<String> = argv[i..argv.len().min(i + 2)].to_vec();
                let at = pick(rng, argv.len() + 1);
                argv.splice(at..at, dup);
            }
            5 if !flags.is_empty() => {
                let i = flags[pick(rng, flags.len())];
                let value = extreme(rng);
                match argv.get_mut(i + 1) {
                    Some(v) => *v = value,
                    None => argv.push(value),
                }
            }
            _ => {}
        }
    }

    /// Adversarial driver: mutated command lines for every mode must make
    /// `parse_cli` return a value or an error, never panic, and every
    /// single run it accepts must map to a machine or a config error.
    #[test]
    fn mutated_command_lines_parse_or_fail_without_panicking() {
        let seeds: Vec<Vec<String>> =
            SEED_LINES.iter().map(|l| l.split_whitespace().map(String::from).collect()).collect();
        for argv in &seeds {
            let parsed = parse_cli(argv);
            assert!(parsed.is_ok(), "seed {argv:?} must parse: {parsed:?}");
        }
        let mut rng = SimRng::seed_from_u64(0x0C11_F022);
        let (mut accepted, mut rejected, mut unbuildable) = (0, 0, 0);
        for case in 0..20_000 {
            let mut argv = seeds[rng.gen_range_usize(0..seeds.len())].clone();
            for _ in 0..1 + rng.gen_range(0..4) {
                mutate(&mut rng, &mut argv, &seeds);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| match parse_cli(&argv) {
                Ok(Cli::Run(args)) => Some(args.spec.system_config().is_ok()),
                Ok(_) => Some(true),
                Err(_) => None,
            }));
            match outcome {
                Ok(Some(true)) => accepted += 1,
                Ok(Some(false)) => unbuildable += 1,
                Ok(None) => rejected += 1,
                Err(_) => panic!("case {case}: {argv:?} panicked"),
            }
        }
        // Each outcome class is reached, so the driver is not vacuous.
        let counts = (accepted, rejected, unbuildable);
        assert!(accepted > 0 && rejected > 0 && unbuildable > 0, "{counts:?}");
    }
}
