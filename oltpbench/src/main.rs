//! `oltpbench` — end-to-end and per-layer host-speed benchmark of the
//! chip-level-integration simulator.
//!
//! ```text
//! USAGE: cargo run --release --manifest-path oltpbench/Cargo.toml -- [OPTIONS]
//!   --workload NAME   run only this workload (repeatable; default: all of
//!                     uni-base, mp8-all-rac, uni-ooo-observed, sweep-fig09)
//!   --seed N          workload seed, also the fault seed and the sweep
//!                     plan's seed (default 212205442179072)
//!   --seconds S       measure each workload for S seconds instead of
//!                     5 repetitions
//!   --trace 0|1       0: end-to-end metrics only; 1: per-layer (traced)
//!                     metrics only (default: both)
//!   --quick           1 repetition at 1/50 of every run length (smoke
//!                     test; its numbers are not comparable)
//!   --csim PATH       the csim binary to time (default: built from this
//!                     checkout with `cargo build --release --bin csim`)
//!   --pair A B        paired mode: alternate two csim binaries, end-to-end
//!   --pairs N         pairs in paired mode (default 10)
//!   --out FILE        write every result as JSON
//!   --trace-out FILE  write the traced phase's spans as Chrome trace-event
//!                     JSON (open in ui.perfetto.dev)
//! ```
//!
//! Every metric is printed as `workload metric median [q1, q3] unit (n=…)`,
//! end-to-end time metrics with their best run first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, where a time metric's value is its best run
//! (`e2e.rs` says why). The exit code is nonzero when any run failed or
//! produced output that differs from the in-process reference.

mod clock;
mod digest;
mod e2e;
mod replay;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use csim_obs::json::Json;

use crate::clock::{Clock, Spans};
use crate::e2e::{MetricDef, Sample, METRICS};
use crate::stats::{verdict, wins, Better, Summary};
use crate::traced::{LayerDef, LAYER_METRICS};
use crate::workload::{Instance, Workload, DEFAULT_SEED, WORKLOADS};

/// Run lengths divide by this under `--quick`.
const QUICK_SCALE: u64 = 50;
/// End-to-end repetitions per workload without a time budget.
const REPS: usize = 5;
/// The fewest end-to-end repetitions a time-budgeted run makes.
const MIN_REPS: usize = 3;
/// A run is a failure when it takes this many times the median of the
/// runs before it.
const TIMEOUT_FACTOR: f64 = 5.0;
/// The timeout of a workload's first run, before a median exists.
const FIRST_TIMEOUT: Duration = Duration::from_secs(150);
/// The shortest timeout: runs take a fraction of a second, and a host
/// stall of a second is not a failure of the program.
const MIN_TIMEOUT: Duration = Duration::from_secs(10);

struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: both phases.
    trace: Option<bool>,
    quick: bool,
    csim: Option<PathBuf>,
    pair: Option<(PathBuf, PathBuf)>,
    pairs: usize,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        quick: false,
        csim: None,
        pair: None,
        pairs: 10,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads.push(
                    workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = Some(number(value()?)? as f64),
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--quick" => o.quick = true,
            "--csim" => o.csim = Some(value()?.into()),
            "--pair" => o.pair = Some((value()?.into(), value()?.into())),
            "--pairs" => o.pairs = number(value()?)?.max(1) as usize,
            "--out" => o.out = Some(value()?.into()),
            "--trace-out" => o.trace_out = Some(value()?.into()),
            other => {
                return Err(format!(
                    "unknown flag '{other}' (see the usage in oltpbench/src/main.rs)"
                ))
            }
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().collect();
    }
    Ok(o)
}

/// The cargo target directory this binary was built into: scratch files
/// and the `csim` build go there, inside the checkout.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| "no target directory".into())
}

/// Builds `csim` from the checkout this benchmark belongs to.
fn build_csim(target: &Path) -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("no repository root")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--bin", "csim"])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building csim failed ({status})"));
    }
    Ok(target.join("release").join("csim"))
}

/// A scratch directory for generated inputs and `csim`'s outputs,
/// removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(target: &Path) -> Result<Scratch, String> {
        let dir = target.join(format!("oltpbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory of one workload, with its inputs written.
    fn workload_dir(&self, inst: &Instance) -> Result<PathBuf, String> {
        let dir = self.0.join(inst.wl.name);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        inst.write_inputs(&dir)
            .map_err(|e| format!("cannot write inputs: {e}"))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end runs of one workload.
#[derive(Default)]
struct Runs {
    /// The digest every run's output must have, from the in-process
    /// reference run.
    reference: Option<String>,
    samples: Vec<Sample>,
    attempted: usize,
    errors: Vec<String>,
    /// Seconds spent on this workload: its reference run and its `csim`
    /// runs.
    spent_s: f64,
}

impl Runs {
    /// The median wall time of the runs so far; 0 before the first.
    fn typical_wall_s(&self) -> f64 {
        let walls: Vec<f64> = self.samples.iter().map(|s| s.wall_s).collect();
        if walls.is_empty() {
            0.0
        } else {
            stats::median(&walls)
        }
    }

    fn timeout(&self) -> Duration {
        if self.samples.is_empty() {
            FIRST_TIMEOUT
        } else {
            Duration::from_secs_f64(TIMEOUT_FACTOR * self.typical_wall_s()).max(MIN_TIMEOUT)
        }
    }

    /// Runs `csim` once more and checks its output digest against the
    /// reference (and the recorded digest, where one exists).
    fn run(&mut self, csim: &Path, inst: &Instance, dir: &Path) {
        self.attempted += 1;
        let timeout = self.timeout();
        let clock = Clock::start();
        let result = e2e::run_child(csim, inst, dir, timeout);
        self.spent_s += clock.secs();
        let checked = result.and_then(|s| {
            for want in [self.reference.as_deref(), inst.recorded_digest()]
                .into_iter()
                .flatten()
            {
                if s.digest != want {
                    return Err(format!(
                        "output digest {} differs from the expected {want}",
                        s.digest
                    ));
                }
            }
            Ok(s)
        });
        match checked {
            Ok(s) => self.samples.push(s),
            Err(e) => {
                eprintln!("{}: run {} failed: {e}", inst.wl.name, self.attempted);
                self.errors.push(e);
            }
        }
    }

    fn failed(&self) -> usize {
        self.attempted - self.samples.len()
    }

    /// Whether this workload has had its share: [`REPS`] runs (1 under
    /// `--quick`), or with a time budget, at least [`MIN_REPS`] runs and
    /// no room for another.
    fn done(&self, quick: bool, seconds: Option<f64>) -> bool {
        match seconds {
            None => self.attempted >= if quick { 1 } else { REPS },
            Some(budget) => {
                self.attempted >= MIN_REPS && self.spent_s + self.typical_wall_s() > budget
            }
        }
    }

    fn summary(&self, metric: &str) -> Summary {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.metric(metric))
            .collect();
        Summary::of(&values)
    }
}

/// Times every workload end to end, round-robin across workloads so
/// host drift hits all of them alike, one `csim` child at a time.
fn measure(
    insts: &[Instance],
    csim: &Path,
    scratch: &Scratch,
    o: &Opts,
) -> Result<Vec<Runs>, String> {
    let mut runs: Vec<Runs> = insts.iter().map(|_| Runs::default()).collect();
    let mut dirs = Vec::new();
    for (inst, r) in insts.iter().zip(&mut runs) {
        dirs.push(scratch.workload_dir(inst)?);
        eprintln!("{}: in-process reference run ...", inst.wl.name);
        let clock = Clock::start();
        let reference = inst.reference_digest();
        r.spent_s += clock.secs();
        match reference {
            Ok(d) => r.reference = Some(d),
            Err(e) => {
                r.attempted += 1;
                r.errors.push(format!("in-process reference failed: {e}"));
            }
        }
    }
    loop {
        let mut ran = false;
        for (k, inst) in insts.iter().enumerate() {
            if runs[k].reference.is_none() || runs[k].done(o.quick, o.seconds) {
                continue;
            }
            runs[k].run(csim, inst, &dirs[k]);
            ran = true;
        }
        if !ran {
            return Ok(runs);
        }
    }
}

/// Paired mode: `pairs` rounds, each running both binaries on every
/// workload, alternating which runs first.
fn paired(
    insts: &[Instance],
    a: &Path,
    b: &Path,
    scratch: &Scratch,
    pairs: usize,
) -> Result<bool, String> {
    let mut sides: Vec<[Runs; 2]> = insts
        .iter()
        .map(|_| [Runs::default(), Runs::default()])
        .collect();
    let dirs: Vec<PathBuf> = insts
        .iter()
        .map(|i| scratch.workload_dir(i))
        .collect::<Result<_, _>>()?;
    for i in 0..pairs {
        for (k, inst) in insts.iter().enumerate() {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let bin = if side == 0 { a } else { b };
                sides[k][side].run(bin, inst, &dirs[k]);
            }
        }
    }
    let mut ok = true;
    println!("workload metric | A median [q1, q3] | B median [q1, q3] | B wins | verdict");
    for (inst, [ra, rb]) in insts.iter().zip(&sides) {
        let digests: Vec<&str> = ra
            .samples
            .iter()
            .chain(&rb.samples)
            .map(|s| s.digest.as_str())
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            eprintln!(
                "{}: the two binaries simulated different statistics",
                inst.wl.name
            );
            ok = false;
        }
        ok &= ra.failed() == 0 && rb.failed() == 0;
        for m in &METRICS {
            let va: Vec<f64> = ra.samples.iter().filter_map(|s| s.metric(m.name)).collect();
            let vb: Vec<f64> = rb.samples.iter().filter_map(|s| s.metric(m.name)).collect();
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            println!(
                "{} {} | {} [{}, {}] | {} [{}, {}] {} | {}/{} | {}",
                inst.wl.name,
                m.name,
                fmt_num(sa.median),
                fmt_num(sa.q1),
                fmt_num(sa.q3),
                fmt_num(sb.median),
                fmt_num(sb.q1),
                fmt_num(sb.q3),
                m.unit,
                wins(&va, &vb, m.better),
                va.len().min(vb.len()),
                verdict(&va, &vb, m.better, m.bound).as_str()
            );
        }
    }
    Ok(ok)
}

/// A number for the human-readable table (the JSON keeps every digit).
fn fmt_num(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

fn print_line(workload: &str, metric: &str, best: Option<f64>, s: &Summary, unit: &str) {
    let best = best.map_or(String::new(), |b| format!("best {}, median ", fmt_num(b)));
    println!(
        "{workload} {metric} {best}{} [{}, {}] {unit} (n={})",
        fmt_num(s.median),
        fmt_num(s.q1),
        fmt_num(s.q3),
        s.n
    );
}

/// One workload's results, for `--out`.
struct WorkloadResult {
    wl: &'static Workload,
    /// The output digest of the in-process reference run.
    digest: Option<String>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    end_to_end: Vec<(&'static MetricDef, Summary)>,
    per_layer: Vec<(&'static LayerDef, f64)>,
}

fn results_json(seed: u64, results: &[WorkloadResult]) -> Json {
    let summary = |s: &Summary, unit: &str, better: Better| {
        Json::obj([
            ("best", Json::Float(s.best(better))),
            ("median", Json::Float(s.median)),
            ("q1", Json::Float(s.q1)),
            ("q3", Json::Float(s.q3)),
            ("n", Json::UInt(s.n as u64)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ])
    };
    let workloads = results
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.wl.name)),
                ("why", Json::str(r.wl.why)),
                ("digest", r.digest.as_ref().map_or(Json::Null, Json::str)),
                ("attempted", Json::UInt(r.attempted as u64)),
                ("failed", Json::UInt(r.failed as u64)),
                (
                    "errors",
                    Json::Arr(r.errors.iter().map(Json::str).collect()),
                ),
                (
                    "end_to_end",
                    Json::Obj(
                        r.end_to_end
                            .iter()
                            .map(|(m, s)| (m.name.to_string(), summary(s, m.unit, m.better)))
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    Json::Obj(
                        r.per_layer
                            .iter()
                            .map(|(d, v)| {
                                (
                                    d.name.to_string(),
                                    summary(&Summary::of(&[*v]), d.unit, d.better),
                                )
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str("oltpbench-results/v1")),
        ("seed", Json::UInt(seed)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The result line: every metric of every result, by bare name for one
/// workload and as `workload:metric` for several.
fn final_line(results: &[WorkloadResult]) -> Json {
    let mut metrics = Vec::new();
    for r in results {
        let values = r
            .end_to_end
            .iter()
            .map(|(m, s)| (m.name, m.unit, m.value(s)));
        for (name, unit, v) in values.chain(r.per_layer.iter().map(|(d, v)| (d.name, d.unit, *v))) {
            let key = if results.len() == 1 {
                name.to_string()
            } else {
                format!("{}:{name}", r.wl.name)
            };
            metrics.push((
                key,
                Json::obj([("value", Json::Float(v)), ("unit", Json::str(unit))]),
            ));
        }
    }
    let failed: usize = results.iter().map(|r| r.failed).sum();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        (
            "attempted",
            Json::UInt(results.iter().map(|r| r.attempted as u64).sum()),
        ),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run(args: &[String]) -> Result<bool, String> {
    let o = parse_args(args)?;
    let scale = if o.quick { QUICK_SCALE } else { 1 };
    let insts: Vec<Instance> = o
        .workloads
        .iter()
        .map(|&w| Instance::new(w, o.seed, scale))
        .collect();
    let target = target_dir()?;
    let scratch = Scratch::new(&target)?;

    if let Some((a, b)) = &o.pair {
        return paired(&insts, a, b, &scratch, o.pairs);
    }

    let mut results: Vec<WorkloadResult> = insts
        .iter()
        .map(|i| WorkloadResult {
            wl: i.wl,
            digest: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        })
        .collect();

    if o.trace != Some(true) {
        let csim = match &o.csim {
            Some(path) => path.clone(),
            None => build_csim(&target)?,
        };
        for (r, runs) in results
            .iter_mut()
            .zip(measure(&insts, &csim, &scratch, &o)?)
        {
            r.attempted += runs.attempted;
            r.failed += runs.failed();
            r.end_to_end = METRICS.iter().map(|m| (m, runs.summary(m.name))).collect();
            r.errors.extend(runs.errors);
            r.digest = runs.reference;
        }
    }

    if o.trace != Some(false) {
        let mut spans = Spans::new();
        for (k, (inst, r)) in insts.iter().zip(&mut results).enumerate() {
            eprintln!("{}: traced phase ...", inst.wl.name);
            let tid = k as u64 + 1;
            let start = spans.now();
            let traced = traced::trace(inst, &mut spans, tid, o.seconds.unwrap_or(0.0));
            spans.push(inst.wl.name, tid, 0, start);
            r.attempted += 1;
            match traced {
                Ok(values) => {
                    r.per_layer = LAYER_METRICS
                        .iter()
                        .zip(values)
                        .map(|(d, (name, v))| {
                            debug_assert_eq!(d.name, name);
                            (d, v)
                        })
                        .collect();
                }
                Err(e) => {
                    eprintln!("{}: traced phase failed: {e}", inst.wl.name);
                    r.failed += 1;
                    r.errors.push(e);
                }
            }
        }
        if let Some(path) = &o.trace_out {
            std::fs::write(path, format!("{}\n", spans.to_json()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }

    for r in &results {
        for (m, s) in &r.end_to_end {
            print_line(
                r.wl.name,
                m.name,
                m.best_run.then(|| s.best(m.better)),
                s,
                m.unit,
            );
        }
        for (d, v) in &r.per_layer {
            print_line(r.wl.name, d.name, None, &Summary::of(&[*v]), d.unit);
        }
    }
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{}\n", results_json(o.seed, &results)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let line = final_line(&results);
    println!("{line}");
    Ok(results.iter().all(|r| r.failed == 0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("oltpbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_obs::json::parse;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_arr).unwrap()
    }

    fn field<'a>(e: &'a Json, key: &str) -> &'a str {
        e.get(key).and_then(Json::as_str).unwrap()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_measures() {
        let doc = benchmark_json();
        let names: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(names, ours);
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), METRICS.len());
        for (e, m) in e2e.iter().zip(&METRICS) {
            assert_eq!(
                (field(e, "name"), field(e, "unit"), field(e, "better")),
                (m.name, m.unit, m.better.as_str())
            );
            assert_eq!(e.get("bound"), Some(&Json::Float(m.bound)));
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), LAYER_METRICS.len());
        for (e, d) in layers.iter().zip(&LAYER_METRICS) {
            assert_eq!(
                (field(e, "name"), field(e, "unit"), field(e, "better")),
                (d.name, d.unit, d.better.as_str())
            );
        }
    }

    #[test]
    fn a_quick_traced_pass_reports_every_per_layer_metric() {
        let doc = benchmark_json();
        let declared: Vec<&str> = entries(&doc, "per_layer")
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        for wl in &WORKLOADS {
            let inst = Instance::new(wl, 5, 2_000);
            let values = traced::trace(&inst, &mut Spans::new(), 1, 0.0).unwrap();
            let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, declared, "{}", wl.name);
        }
    }

    #[test]
    fn final_line_has_exactly_the_result_keys() {
        let r = WorkloadResult {
            wl: &WORKLOADS[0],
            digest: None,
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
            end_to_end: vec![(&METRICS[2], Summary::of(&[0.5, 0.25]))],
            per_layer: Vec::new(),
        };
        let line = final_line(&[r]).to_string();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn args_parse_the_benchmark_json_interface() {
        let args: Vec<String> = [
            "--workload",
            "mp8-all-rac",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]
        .map(String::from)
        .to_vec();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.workloads.len(), 1);
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(20.0), Some(false)));
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
    }
}
