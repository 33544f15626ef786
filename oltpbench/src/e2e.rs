//! End-to-end measurement: the real `csim` binary timed from outside,
//! one child process at a time.
//!
//! A measurement window holds many short runs, and each time metric
//! reports the best of them. On a shared host, other tenants' load only
//! ever slows a run, and it comes and goes within seconds: on a 2-core
//! x86-64 virtual machine, a fixed loop took 20 ms at best and up to
//! 35 ms, with no gaps in the guest's own scheduling. The fastest loop of
//! each 10 s stayed within a 4% quartile spread while the medians spread
//! 25%. The shorter the run, the likelier some run of the window falls in
//! a quiet stretch: over 25 s windows of uni-base, the fastest run spread
//! 18% with 2 s runs, 5% with 0.3 s runs and 4% with 0.1 s runs, while
//! the windows' medians spread 16–26%. So the best run of a window
//! estimates the binary's own speed, and the median measures how much of
//! the window other tenants took. The median and quartiles are printed
//! beside it. Memory is not slowed by other tenants, so `peak_rss_mib`
//! reports the median run.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use csim_obs::json::{parse, Json};

use crate::clock::Clock;
use crate::digest;
use crate::stats::{Better, Summary};
use crate::workload::Instance;

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value the metric may worsen by.
    pub bound: f64,
    /// Report the best run of a window, not the median run.
    pub best_run: bool,
}

impl MetricDef {
    /// The value reported for a window's runs.
    pub fn value(&self, s: &Summary) -> f64 {
        if self.best_run {
            s.best(self.better)
        } else {
            s.median
        }
    }
}

/// The end-to-end metrics, in report order.
pub const METRICS: [MetricDef; 4] = [
    MetricDef {
        name: "refs_per_s",
        unit: "refs/s",
        better: Better::Higher,
        bound: 0.25,
        best_run: true,
    },
    MetricDef {
        name: "sim_refs_per_s",
        unit: "refs/s",
        better: Better::Higher,
        bound: 0.25,
        best_run: true,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        best_run: true,
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        best_run: false,
    },
];

/// What one `csim` run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Spawn to exit, report written.
    pub wall_s: f64,
    /// Thread-seconds spent simulating (warm-up + measurement, summed
    /// over sweep points).
    pub busy_s: f64,
    /// Elapsed seconds during which simulation ran (first point start
    /// to last point end for a sweep; equal to `busy_s` for one run).
    pub window_s: f64,
    pub refs: u64,
    /// The child's peak resident set (`VmHWM`), when it was sampled.
    pub rss_mib: Option<f64>,
    pub digest: String,
}

impl Sample {
    /// The value of end-to-end metric `name` for this run.
    pub fn metric(&self, name: &str) -> Option<f64> {
        match name {
            "refs_per_s" => Some(self.refs as f64 / self.wall_s),
            "sim_refs_per_s" => Some(self.refs as f64 / self.busy_s),
            "setup_s" => Some(self.wall_s - self.window_s),
            "peak_rss_mib" => self.rss_mib,
            _ => None,
        }
    }
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, millis)` of each entry of a `PhaseProfile` JSON object.
fn phases(profile: Option<&Json>) -> Result<Vec<(String, f64)>, String> {
    let list = profile
        .and_then(|p| p.get("phases"))
        .and_then(Json::as_arr)
        .ok_or("report has no phase profile")?;
    list.iter()
        .map(|p| {
            let name = p.get("name").and_then(Json::as_str);
            let ms = p.get("millis").and_then(num);
            name.zip(ms)
                .map(|(n, ms)| (n.to_string(), ms))
                .ok_or_else(|| "malformed phase".into())
        })
        .collect()
}

/// Simulating time of one run: its `warmup` + `measure` phases.
pub fn single_sim_s(report: &Json) -> Result<f64, String> {
    let host = report.get("host_profile").and_then(|h| h.get("phases"));
    let ms: f64 = phases(host)?
        .iter()
        .filter(|(n, _)| n == "warmup" || n == "measure")
        .map(|(_, ms)| ms)
        .sum();
    if ms > 0.0 {
        Ok(ms / 1e3)
    } else {
        Err("report has no warmup/measure phases".into())
    }
}

/// `(busy, window)` seconds of a sweep: Σ point wall from the report's
/// profile, and first point start to last point end from its
/// trace-event timeline.
pub fn sweep_sim_s(report: &Json, trace: &Json) -> Result<(f64, f64), String> {
    let busy_ms: f64 = phases(report.get("profile"))?
        .iter()
        .map(|(_, ms)| ms)
        .sum();
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents")?;
    let (mut first, mut last) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in events {
        let ts = e.get("ts").and_then(num).ok_or("event without ts")?;
        let dur = e.get("dur").and_then(num).unwrap_or(0.0);
        first = first.min(ts);
        last = last.max(ts + dur);
    }
    if busy_ms > 0.0 && last > first {
        Ok((busy_ms / 1e3, (last - first) / 1e6))
    } else {
        Err("sweep timeline is empty".into())
    }
}

/// The child's `VmHWM` in MiB, while it is alive.
fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// How often `VmHWM` is sampled. The high-water mark only grows, so the
/// last sample before exit is the peak up to the allocations of the
/// final few milliseconds.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Runs `csim` once for `inst`, with its inputs and outputs in `dir`,
/// and checks that it exited cleanly and wrote well-formed reports.
pub fn run_child(
    csim: &Path,
    inst: &Instance,
    dir: &Path,
    timeout: Duration,
) -> Result<Sample, String> {
    for out in ["report.json", "prof.json", "trace.json"] {
        let _ = std::fs::remove_file(dir.join(out));
    }
    let stderr = std::fs::File::create(dir.join("stderr.txt")).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(csim);
    cmd.args(inst.csim_args(dir))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr);
    let clock = Clock::start();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", csim.display()))?;
    let mut stdout = child.stdout.take().ok_or("no stdout pipe")?;
    // The pipe reaches end of file when the child exits and its
    // descriptors close: a blocking read times the exit to the
    // microsecond without polling, which would take cycles from `csim`
    // on a 2-core host.
    let (exited, exit) = mpsc::channel();
    let mut rss = None;
    let waited = std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
            let _ = exited.send(clock.secs());
        });
        loop {
            match exit.recv_timeout(RSS_POLL) {
                Ok(wall_s) => return Ok(wall_s),
                Err(RecvTimeoutError::Disconnected) => return Err("lost the csim exit".to_string()),
                Err(RecvTimeoutError::Timeout) if clock.secs() > timeout.as_secs_f64() => {
                    // Killing closes the pipe, which ends the reader
                    // (`csim` starts no processes that could hold it).
                    let _ = child.kill();
                    return Err(format!("timed out after {:.1} s", clock.secs()));
                }
                Err(RecvTimeoutError::Timeout) => rss = peak_rss_mib(child.id()).or(rss),
            }
        }
    });
    let status = child.wait().map_err(|e| e.to_string())?;
    let wall_s = waited?;
    if !status.success() {
        let log = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(3).collect();
        return Err(format!("csim exited with {status}: {}", tail.join(" | ")));
    }
    let report = read_json(&dir.join("report.json"))?;
    let (busy_s, window_s, digest) = if inst.plan.is_some() {
        let (busy, window) = sweep_sim_s(&report, &read_json(&dir.join("trace.json"))?)?;
        (busy, window, digest::sweep_report(&report))
    } else {
        let sim = single_sim_s(&report)?;
        let digest = if inst.observed() {
            digest::observed_run(&report, &read_json(&dir.join("prof.json"))?)
        } else {
            digest::run_report(&report)
        };
        (sim, sim, digest)
    };
    Ok(Sample {
        wall_s,
        busy_s,
        window_s,
        refs: inst.refs(),
        rss_mib: rss,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_wall_minus_the_simulating_phases() {
        let report = parse(
            r#"{"host_profile":{"phases":{"phases":[{"name":"build","millis":3},{"name":"warmup","millis":250.5},{"name":"measure","millis":1749.5}],"total_millis":2003},"regions":null}}"#,
        )
        .unwrap();
        let sim = single_sim_s(&report).unwrap();
        assert_eq!(sim, 2.0);
        let s = Sample {
            wall_s: 2.25,
            busy_s: sim,
            window_s: sim,
            refs: 1000,
            rss_mib: Some(9.5),
            digest: String::new(),
        };
        assert_eq!(s.metric("setup_s"), Some(0.25));
        assert_eq!(s.metric("refs_per_s"), Some(1000.0 / 2.25));
        assert_eq!(s.metric("sim_refs_per_s"), Some(500.0));
        assert_eq!(s.metric("peak_rss_mib"), Some(9.5));
    }

    #[test]
    fn sweep_setup_uses_the_point_window_and_busy_uses_thread_time() {
        let report = parse(r#"{"profile":{"phases":[{"name":"a","millis":1000},{"name":"b","millis":1500}],"total_millis":2500}}"#).unwrap();
        // Two workers: a runs [100 µs, 1.0001 s], b runs [200 µs, 1.5002 s].
        let trace = parse(
            r#"{"traceEvents":[{"name":"a","ph":"X","ts":100,"dur":1000000,"pid":1,"tid":1},{"name":"b","ph":"X","ts":200,"dur":1500000,"pid":1,"tid":2}]}"#,
        )
        .unwrap();
        let (busy, window) = sweep_sim_s(&report, &trace).unwrap();
        assert_eq!(busy, 2.5);
        assert!((window - 1.5001).abs() < 1e-12, "{window}");
        let s = Sample {
            wall_s: 1.6,
            busy_s: busy,
            window_s: window,
            refs: 5000,
            rss_mib: None,
            digest: String::new(),
        };
        assert!((s.metric("setup_s").unwrap() - 0.0999).abs() < 1e-9);
        assert_eq!(s.metric("sim_refs_per_s"), Some(2000.0));
        assert_eq!(s.metric("peak_rss_mib"), None);
    }

    #[test]
    fn reports_without_timings_are_rejected() {
        assert!(single_sim_s(&parse(r#"{"host_profile":null}"#).unwrap()).is_err());
        let empty = parse(r#"{"traceEvents":[]}"#).unwrap();
        let report = parse(r#"{"profile":{"phases":[]}}"#).unwrap();
        assert!(sweep_sim_s(&report, &empty).is_err());
    }

    /// A stand-in for `csim`: a shell script with the given body.
    fn fake_csim(dir: &Path, body: &str) -> std::path::PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let path = dir.join("csim");
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[test]
    fn hung_and_failing_runs_are_failures() {
        let dir = std::env::temp_dir().join(format!("oltpbench-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = Instance::new(crate::workload::by_name("uni-base").unwrap(), 1, 1);
        let clock = Clock::start();
        let hung = run_child(
            &fake_csim(&dir, "exec sleep 30"),
            &inst,
            &dir,
            Duration::from_millis(300),
        );
        assert!(hung.unwrap_err().contains("timed out"));
        assert!(clock.secs() < 10.0, "the hung child was not killed");
        let failing = run_child(
            &fake_csim(&dir, "echo boom >&2; exit 3"),
            &inst,
            &dir,
            Duration::from_secs(30),
        );
        let e = failing.unwrap_err();
        assert!(e.contains("exited") && e.contains("boom"), "{e}");
        let silent = run_child(
            &fake_csim(&dir, "exit 0"),
            &inst,
            &dir,
            Duration::from_secs(30),
        );
        assert!(silent.unwrap_err().contains("report.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
