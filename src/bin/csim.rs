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
//!                        warmup+measure; prints the wall-time-by-region
//!                        table on stderr and rides in the JSON report's
//!                        nondeterministic host_profile section
//!   --trace-events FILE  write the run's phase timeline as Chrome
//!                        trace-event JSON (chrome://tracing, Perfetto);
//!                        wall clock, so inherently nondeterministic
//!   --quiet              suppress the human-readable stdout tables
//!                        (implied diagnostics stay on stderr)
//!   --validate-json FILE   check FILE is well-formed JSON and exit
//!   --validate-jsonl FILE  check FILE is well-formed JSONL and exit
//!
//! sweep mode (see crates/sweep and examples/fig09_sweep.toml):
//!   --sweep PLAN         run the declarative parameter grid in PLAN
//!                        (TOML: [sweep] scalars, [grid] axes) instead
//!                        of a single configuration
//!   --jobs N             worker threads for the sweep (default 1; the
//!                        merged report is byte-identical for any N)
//!   --shard K/N          run only round-robin slice K of N (0-based);
//!                        --json-report then writes a csim-sweep-shard/v1
//!                        document for --sweep-merge
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
//!   --sweep-merge OUT SHARD1 SHARD2 ...
//!                        merge csim-sweep-shard/v1 files into the
//!                        csim-sweep-report/v1 at OUT — byte-identical
//!                        to a single-process run of the same plan
//! ```

#![forbid(unsafe_code)]

use oltp_chip_integration::obs::{json, REPORT_QUANTILES};
use oltp_chip_integration::prelude::*;
use oltp_chip_integration::prof::chrome::TraceDoc;
use oltp_chip_integration::stats::svg;
use oltp_chip_integration::sweep::{parse_integration, parse_l2_spec};

#[derive(Debug)]
struct Args {
    nodes: usize,
    cores: usize,
    integration: IntegrationLevel,
    l2_bytes: u64,
    l2_assoc: u32,
    l2_explicit: bool,
    dram: bool,
    rac: bool,
    replicate: bool,
    ooo: bool,
    warm: u64,
    meas: u64,
    seed: Option<u64>,
    fault_plan: Option<String>,
    fault_seed: u64,
    strict: Option<u64>,
    sanitize: bool,
    histograms: bool,
    epoch: Option<u64>,
    trace_out: Option<String>,
    trace_filter: Option<TraceFilter>,
    trace_cap: Option<usize>,
    json_report: Option<String>,
    epoch_svg: Option<String>,
    quiet: bool,
    profile: bool,
    prof: Option<String>,
    prof_svg: Option<String>,
    prof_sample_hz: Option<u32>,
    trace_events: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: 1,
            cores: 1,
            integration: IntegrationLevel::Base,
            l2_bytes: 8 << 20,
            l2_assoc: 1,
            l2_explicit: false,
            dram: false,
            rac: false,
            replicate: false,
            ooo: false,
            warm: 2_000_000,
            meas: 2_000_000,
            seed: None,
            fault_plan: None,
            fault_seed: 0,
            strict: None,
            sanitize: false,
            histograms: false,
            epoch: None,
            trace_out: None,
            trace_filter: None,
            trace_cap: None,
            json_report: None,
            epoch_svg: None,
            quiet: false,
            profile: false,
            prof: None,
            prof_svg: None,
            prof_sample_hz: None,
            trace_events: None,
        }
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

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--nodes" => args.nodes = value("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--cores" => args.cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--integration" => {
                args.integration = parse_integration(&value("--integration")?)?
            }
            "--l2" => {
                let (bytes, assoc) = parse_l2_spec(&value("--l2")?)?;
                args.l2_bytes = bytes;
                args.l2_assoc = assoc;
                args.l2_explicit = true;
            }
            "--dram" => args.dram = true,
            "--rac" => args.rac = true,
            "--replicate" => args.replicate = true,
            "--ooo" => args.ooo = true,
            "--warm" => args.warm = value("--warm")?.parse().map_err(|e| format!("{e}"))?,
            "--meas" => args.meas = value("--meas")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--fault-plan" => args.fault_plan = Some(value("--fault-plan")?),
            "--fault-seed" => {
                args.fault_seed = value("--fault-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--strict" => {
                args.strict = Some(value("--strict")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--sanitize" => args.sanitize = true,
            "--histograms" => args.histograms = true,
            "--epoch" => {
                let n: u64 = value("--epoch")?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--epoch must be at least 1".into());
                }
                args.epoch = Some(n);
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--trace-filter" => {
                args.trace_filter = Some(TraceFilter::parse_classes(&value("--trace-filter")?)?)
            }
            "--trace-cap" => {
                args.trace_cap =
                    Some(value("--trace-cap")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--json-report" => args.json_report = Some(value("--json-report")?),
            "--epoch-svg" => args.epoch_svg = Some(value("--epoch-svg")?),
            "--quiet" => args.quiet = true,
            "--profile" => args.profile = true,
            "--prof" => args.prof = Some(value("--prof")?),
            "--prof-svg" => args.prof_svg = Some(value("--prof-svg")?),
            "--prof-sample-hz" => {
                let hz: u32 =
                    value("--prof-sample-hz")?.parse().map_err(|e| format!("{e}"))?;
                if hz == 0 {
                    return Err("--prof-sample-hz must be at least 1".into());
                }
                args.prof_sample_hz = Some(hz);
            }
            "--trace-events" => args.trace_events = Some(value("--trace-events")?),
            "--validate-json" | "--validate-jsonl" => {
                let path = value(&flag)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read '{path}': {e}"))?;
                let checked = if flag == "--validate-json" {
                    json::validate(&text)
                } else {
                    json::validate_jsonl(&text)
                };
                match checked {
                    Ok(()) => {
                        println!("{path}: ok");
                        std::process::exit(0);
                    }
                    Err(e) => return Err(format!("{path}: {e}")),
                }
            }
            "--help" | "-h" => {
                println!("see the module docs at the top of src/bin/csim.rs for usage");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.trace_out.is_none() && (args.trace_filter.is_some() || args.trace_cap.is_some()) {
        return Err("--trace-filter/--trace-cap require --trace-out".into());
    }
    if args.epoch_svg.is_some() && args.epoch.is_none() {
        return Err("--epoch-svg requires --epoch".into());
    }
    if args.prof_svg.is_some() && args.prof.is_none() {
        return Err("--prof-svg requires --prof".into());
    }
    if !args.l2_explicit && args.integration.l2_on_chip() {
        // The off-chip default (8M1w) does not fit on a die; fall back
        // to the paper's on-chip geometry unless the user chose one.
        args.l2_bytes = 2 << 20;
        args.l2_assoc = 8;
    }
    Ok(args)
}

fn build_config(a: &Args) -> Result<SystemConfig, Box<dyn std::error::Error>> {
    let mut b = SystemConfig::builder();
    b.nodes(a.nodes)
        .cores_per_node(a.cores)
        .integration(a.integration)
        .replicate_instructions(a.replicate);
    if a.integration.l2_on_chip() {
        if a.dram {
            b.l2_dram(a.l2_bytes, a.l2_assoc);
        } else {
            b.l2_sram(a.l2_bytes, a.l2_assoc);
        }
    } else {
        b.l2_off_chip(a.l2_bytes, a.l2_assoc);
    }
    if a.rac {
        b.rac(RacConfig::paper());
    }
    if a.ooo {
        b.out_of_order(OooParams::paper());
    }
    Ok(b.build()?)
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

/// The reproduction manifest for the JSON report: configuration echo
/// plus every seed the run consumed.
fn run_manifest(args: &Args, cfg: &SystemConfig, workload_seed: u64) -> RunManifest {
    let kv = |v: String| v;
    let mut config = vec![
        ("nodes".to_string(), kv(args.nodes.to_string())),
        ("cores_per_node".to_string(), kv(args.cores.to_string())),
        ("integration".to_string(), kv(format!("{:?}", args.integration))),
        ("l2_bytes".to_string(), kv(args.l2_bytes.to_string())),
        ("l2_assoc".to_string(), kv(args.l2_assoc.to_string())),
        ("l2_dram".to_string(), kv(args.dram.to_string())),
        ("rac".to_string(), kv(args.rac.to_string())),
        ("replicate_instructions".to_string(), kv(args.replicate.to_string())),
        ("out_of_order".to_string(), kv(args.ooo.to_string())),
        ("warm_refs_per_node".to_string(), kv(args.warm.to_string())),
        ("meas_refs_per_node".to_string(), kv(args.meas.to_string())),
    ];
    if let Some(plan) = &args.fault_plan {
        config.push(("fault_plan".to_string(), plan.clone()));
    }
    let mut seeds = vec![("workload".to_string(), workload_seed)];
    if args.fault_plan.is_some() {
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

/// Parses the `--watchdog` straggler multiple: a finite number strictly
/// above 1 (a point can hardly be flagged for being faster than, or
/// equal to, the median).
fn parse_watchdog(text: &str) -> Result<f64, String> {
    let mult: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("bad --watchdog value '{text}': not a number"))?;
    if !mult.is_finite() || mult <= 1.0 {
        return Err(format!(
            "bad --watchdog value '{text}': the straggler multiple must be a finite number \
             greater than 1 (e.g. --watchdog 3 flags points 3x slower than the median)"
        ));
    }
    Ok(mult)
}

/// Sweep mode: `--sweep PLAN [--jobs N] [--shard K/N] [--checkpoint F]
/// [--watchdog M] [--profile] [--json-report FILE] [--quiet]`.
/// Per-run parameters come from the plan file, so every other flag is
/// rejected rather than silently ignored.
fn run_sweep_cli(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use oltp_chip_integration::sweep::{run_sweep_cfg, Shard, SweepConfig, SweepPlan};

    let mut plan_path: Option<String> = None;
    let mut json_report: Option<String> = None;
    let mut quiet = false;
    let mut profile = false;
    let mut shard: Option<Shard> = None;
    let mut checkpoint: Option<String> = None;
    let mut watchdog: Option<f64> = None;
    let mut trace_events: Option<String> = None;
    let mut jobs = 1usize;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--sweep" => plan_path = Some(value("--sweep")?),
            "--jobs" => jobs = parse_jobs(&value("--jobs")?)?,
            "--shard" => shard = Some(Shard::parse(&value("--shard")?)?),
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--watchdog" => watchdog = Some(parse_watchdog(&value("--watchdog")?)?),
            "--trace-events" => trace_events = Some(value("--trace-events")?),
            "--json-report" => json_report = Some(value("--json-report")?),
            "--profile" => profile = true,
            "--quiet" => quiet = true,
            other => {
                return Err(format!(
                    "flag '{other}' cannot be combined with --sweep (sweep mode accepts \
                     only --sweep, --jobs, --shard, --checkpoint, --watchdog, --profile, \
                     --trace-events, --json-report and --quiet; per-run parameters belong \
                     in the plan file)"
                )
                .into())
            }
        }
    }
    let path = plan_path.ok_or("sweep mode needs --sweep <plan.toml>")?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read sweep plan '{path}': {e}"))?;
    let plan = SweepPlan::from_toml_str(&text)?;
    let cfg = SweepConfig {
        jobs,
        shard,
        checkpoint,
        // Timing stays off — and the engine deterministic — unless the
        // watchdog, the profile, or the trace timeline asks for it.
        time_points: watchdog.is_some() || profile || trace_events.is_some(),
        straggler_mult: watchdog,
        ..SweepConfig::default()
    };
    eprintln!(
        "sweep '{}': {} run(s){} on {} worker(s), {} warm + {} meas refs/node each",
        plan.name,
        plan.run_count(),
        shard.map(|s| format!(" (shard {s})")).unwrap_or_default(),
        jobs,
        plan.warm,
        plan.meas
    );
    let outcome = run_sweep_cfg(&plan, &cfg)?;
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
    if let Some(path) = &trace_events {
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
    if let Some(path) = &json_report {
        // A shard writes the shard document (input to --sweep-merge);
        // only a whole-grid sweep writes the final report directly.
        let mut doc = if shard.is_some() { outcome.to_shard_json() } else { outcome.to_json() };
        if profile {
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
    if !quiet {
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
        eprintln!(
            "sweep finished with {failures} failed point(s) out of {}",
            outcome.points.len()
        );
        // The report (with its structured failure entries) is already on
        // disk; the exit code tells scripts the grid is incomplete.
        std::process::exit(3);
    }
    Ok(())
}

/// Merge mode: `--sweep-merge OUT SHARD1 SHARD2 ... [--quiet]`. Reads
/// `csim-sweep-shard/v1` files and writes the merged
/// `csim-sweep-report/v1` to OUT.
fn run_sweep_merge_cli(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use oltp_chip_integration::sweep::merge_shard_files;

    let mut out: Option<String> = None;
    let mut shards: Vec<String> = Vec::new();
    let mut quiet = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sweep-merge" => {
                out = Some(
                    it.next().cloned().ok_or("--sweep-merge needs an output path")?,
                );
            }
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "flag '{flag}' cannot be combined with --sweep-merge (merge mode takes \
                     an output path, shard report files, and optionally --quiet)"
                )
                .into())
            }
            shard_file => shards.push(shard_file.to_string()),
        }
    }
    let out = out.ok_or("merge mode needs --sweep-merge <out.json>")?;
    if shards.is_empty() {
        return Err("--sweep-merge needs at least one shard report file".into());
    }
    let doc = merge_shard_files(&shards)?;
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("cannot write merged report '{out}': {e}"))?;
    if !quiet {
        eprintln!("merged {} shard report(s) into {out}", shards.len());
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--sweep-merge") {
        return run_sweep_merge_cli(&argv).map_err(|e| -> Box<dyn std::error::Error> {
            format!("{e} (try --help)").into()
        });
    }
    if argv.iter().any(|a| a == "--sweep") {
        return run_sweep_cli(&argv).map_err(|e| -> Box<dyn std::error::Error> {
            format!("{e} (try --help)").into()
        });
    }
    let args = parse_args().map_err(|e| -> Box<dyn std::error::Error> {
        format!("{e} (try --help)").into()
    })?;
    let cfg = build_config(&args)?;
    let mut params = OltpParams::default();
    if let Some(seed) = args.seed {
        params.seed = seed;
    }
    let workload_seed = params.seed;

    eprintln!("config: {}", cfg.summary());
    let lat = cfg.latencies();
    eprintln!(
        "latencies: L2 hit {}, local {}, remote {}, remote dirty {} cycles",
        lat.l2_hit, lat.local, lat.remote_clean, lat.remote_dirty
    );
    eprintln!("warming {} refs/node, measuring {} refs/node ...", args.warm, args.meas);

    let mut profile = PhaseProfile::new();
    let mut sim = profile.time("build", || Simulation::with_oltp(&cfg, params))?;
    let obs_cfg = obs_config(&args);
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
    profile.time("warmup", || sim.warm_up(args.warm));
    let rep = match args.strict {
        Some(every) => profile.time("measure", || sim.run_verified(args.meas, every))?,
        None => profile.time("measure", || sim.run(args.meas)),
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
        std::fs::write(path, &jsonl)
            .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
        // lint: allow(no-panic) — the observer was configured from this same flag a few lines up
        let ring = sim.observer().events().expect("--trace-out enables tracing");
        eprintln!("trace: {path} ({} events, {} dropped)", ring.len(), ring.dropped());
    }
    if let Some(path) = &args.epoch_svg {
        // lint: allow(no-panic) — the observer was configured from this same flag a few lines up
        let epoch_len = sim.observer().epoch_len().expect("--epoch-svg requires --epoch");
        let chart = epoch_chart(sim.observer().epoch_samples(), epoch_len);
        svg::write_lines_file(&chart, path)
            .map_err(|e| format!("cannot write epoch chart '{path}': {e}"))?;
        eprintln!("epoch chart: {path} ({} epochs)", sim.observer().epoch_samples().len());
    }
    if let Some(path) = &args.prof {
        // lint: allow(no-panic) — attribution was enabled from this same flag a few lines up
        let attr = sim.attribution().expect("--prof enables attribution");
        let manifest = run_manifest(&args, &cfg, workload_seed);
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
    if let Some(path) = &args.trace_events {
        let doc = TraceDoc::from_phases(&profile, "csim");
        std::fs::write(path, format!("{}\n", doc.to_json()))
            .map_err(|e| format!("cannot write trace events '{path}': {e}"))?;
        eprintln!("trace events: {path} ({} span(s))", doc.len());
    }
    if let Some(path) = &args.json_report {
        let manifest = run_manifest(&args, &cfg, workload_seed);
        // Wall clock only enters the report when explicitly asked for.
        let host = (args.profile || regions.is_some()).then(|| HostProfile {
            phases: profile.clone(),
            regions: regions.clone(),
        });
        let doc = run_report_json(&rep, sim.observer(), &manifest, host.as_ref());
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write report '{path}': {e}"))?;
        eprintln!("report: {path}");
    }
    if args.quiet {
        return Ok(());
    }

    let chart = BarChart::new("execution time breakdown")
        .with_bar(rep.exec_bar("cycles"))
        .normalized_to_first();
    println!("{}", chart.render(60));
    let chart = BarChart::new("L2 miss breakdown")
        .with_bar(rep.miss_bar("misses"))
        .normalized_to_first();
    println!("{}", chart.render(60));

    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["instructions".into(), rep.breakdown.instructions.to_string()]);
    t.row(vec!["CPI".into(), format!("{:.3}", rep.breakdown.cpi())]);
    t.row(vec!["CPU utilization".into(), format!("{:.1}%", 100.0 * rep.breakdown.cpu_utilization())]);
    t.row(vec!["L2 misses".into(), rep.misses.total().to_string()]);
    t.row(vec!["  instruction / data".into(), format!("{} / {}", rep.misses.instr(), rep.misses.data())]);
    t.row(vec!["  local / 2-hop / 3-hop".into(), format!(
        "{} / {} / {}",
        rep.misses.instr_local + rep.misses.data_local,
        rep.misses.instr_remote + rep.misses.data_remote_clean,
        rep.misses.data_remote_dirty
    )]);
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
            // lint: allow(no-panic) — the observer was configured from this same flag a few lines up
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
    // The L2 spec parser lives in csim-sweep so the plan loader and this
    // front end accept exactly the same language; these tests pin the
    // behavior `--l2` relies on.
    use super::{parse_jobs, parse_l2_spec, parse_watchdog};

    #[test]
    fn parse_l2_accepts_the_paper_geometries() {
        assert_eq!(parse_l2_spec("8M1w").unwrap(), (8 << 20, 1));
        assert_eq!(parse_l2_spec("2M8w").unwrap(), (2 << 20, 8));
        assert_eq!(parse_l2_spec("1.25M4w").unwrap(), ((5 << 20) / 4, 4));
        assert_eq!(parse_l2_spec(" 16m2W ").unwrap(), (16 << 20, 2));
    }

    #[test]
    fn parse_l2_rejects_degenerate_sizes() {
        assert!(parse_l2_spec("0M4w").unwrap_err().contains("positive"));
        assert!(parse_l2_spec("-2M4w").unwrap_err().contains("positive"));
        assert!(parse_l2_spec("infM4w").unwrap_err().contains("positive"));
    }

    #[test]
    fn parse_l2_rejects_degenerate_associativity() {
        assert!(parse_l2_spec("2M0w").unwrap_err().contains("at least 1"));
        assert!(parse_l2_spec("2M3w").unwrap_err().contains("power of two"));
        assert!(parse_l2_spec("2M6w").unwrap_err().contains("power of two"));
    }

    #[test]
    fn parse_l2_rejects_malformed_specs() {
        assert!(parse_l2_spec("2M8").unwrap_err().contains("missing w"));
        assert!(parse_l2_spec("8w").unwrap_err().contains("missing M"));
        assert!(parse_l2_spec("2M8wx").unwrap_err().contains("trailing"));
        assert!(parse_l2_spec("w2M").unwrap_err().contains("missing w"));
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
}
