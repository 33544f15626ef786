//! Property tests of the checkpoint log's crash-safety contract, driven
//! by the workspace's own deterministic [`SimRng`].
//!
//! The contract under test (DESIGN.md §13): whatever happens to the log
//! — a clean shutdown, a SIGKILL mid-write (modeled here as truncation
//! at *every* byte offset), or a flipped bit anywhere in the file — a
//! resumed sweep must (a) never trust damage silently, (b) report it as
//! typed warnings, and (c) still produce a final report byte-identical
//! to an uninterrupted run.
//!
//! A shard's log is also the input of the cross-process merge
//! ([`merge_logs`]), so it crosses machines: the same damage fed to the
//! merge must yield the byte-identical report or a typed error, never a
//! panic, and the merge must leave every input file as it found it.
//!
//! Simulation cost is irrelevant to these properties, so the grid points
//! are executed by a deterministic fake executor: thousands of
//! truncation offsets resume in milliseconds.

use csim_obs::json::Json;
use csim_sweep::{
    merge_logs, run_sweep_with, PointOutcome, RunOutcome, RunSpec, RunSummary, Shard, SweepConfig,
    SweepError, SweepPlan,
};
use csim_trace::SimRng;

use csim_fault::RetryPolicy;

/// A retry policy that never sleeps: failure paths stay fast.
fn instant_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy { max_retries, backoff_base: 0, exponential: false, backoff_cap: 0 }
}

/// An 8-point grid, enough to give the log a header and a spread of
/// records without slowing the every-byte-offset loop.
fn plan() -> SweepPlan {
    SweepPlan::from_toml_str(
        r#"
        [sweep]
        name = "ckpt-props"
        warm = 100
        meas = 100

        [grid]
        integration = ["base", "l2"]
        nodes = [1, 2]
        base_seed = 42
        runs_per_config = 2
        "#,
    )
    .expect("the property plan is valid")
}

/// Deterministic fake point executor: derives a small but varied run
/// document (floats, strings, nesting) from the spec alone, so any
/// re-execution after damage reproduces the original bytes exactly.
fn fake_exec(index: usize, spec: &RunSpec) -> Result<RunOutcome, SweepError> {
    let mut rng = SimRng::seed_from_u64(spec.seed ^ ((index as u64) << 32));
    let cpi = 1.0 + (rng.next_u64() % 4096) as f64 / 512.0;
    let mpki = (rng.next_u64() % 100_000) as f64 / 1000.0;
    let l2_misses = rng.next_u64() % 1_000_000;
    let transactions = rng.next_u64() % 10_000;
    let doc = Json::obj([
        ("schema", Json::str("csim-run-report/v1")),
        ("label", Json::str(spec.label())),
        ("cpi", Json::Float(cpi)),
        ("mpki", Json::Float(mpki)),
        (
            "misses",
            Json::obj([
                ("total", Json::UInt(l2_misses)),
                ("delta", Json::Int(-((rng.next_u64() % 100) as i64))),
            ]),
        ),
        ("note", Json::str("escapes: \"quotes\" and \\ and \n and \u{3bb}")),
    ]);
    Ok(RunOutcome {
        index,
        label: spec.label(),
        seed: spec.seed,
        summary: RunSummary { cpi, mpki, l2_misses, transactions },
        doc,
    })
}

/// A unique temp path per test so parallel test threads never collide.
fn temp_path(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("csim-ckpt-{}-{tag}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

fn cfg_with(checkpoint: &str) -> SweepConfig {
    SweepConfig {
        jobs: 1,
        checkpoint: Some(checkpoint.to_string()),
        retry: instant_retry(0),
        ..SweepConfig::default()
    }
}

#[test]
fn schema_tags_are_pinned() {
    // Consumers key on this string; renaming it is a breaking change
    // that must show up in a test diff.
    assert_eq!(csim_sweep::CHECKPOINT_SCHEMA, "csim-sweep-checkpoint/v1");
    let plan = plan();
    let path = temp_path("schema");
    run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap();
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(
        log.lines().next().is_some_and(|l| l.contains(csim_sweep::CHECKPOINT_SCHEMA)),
        "the log header must carry the schema tag"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn clean_checkpointed_run_matches_an_uncheckpointed_one() {
    let plan = plan();
    let bare = run_sweep_with(&plan, &SweepConfig::default(), &fake_exec).unwrap();
    // One worker, and several workers whose outcomes reach the log in
    // completion order rather than grid order.
    for jobs in [1, 4] {
        let path = temp_path(&format!("clean-j{jobs}"));
        let cfg = SweepConfig { jobs, ..cfg_with(&path) };
        let logged = run_sweep_with(&plan, &cfg, &fake_exec).unwrap();
        assert_eq!(bare.to_json().to_string(), logged.to_json().to_string(), "jobs {jobs}");
        assert!(logged.warnings.is_empty(), "jobs {jobs}: {:?}", logged.warnings);
        assert_eq!(logged.resumed, 0);

        // An immediate re-run restores everything and executes nothing.
        let resumed =
            run_sweep_with(&plan, &cfg, &|_, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
                panic!("point {} must not re-execute on a complete log", spec.label())
            })
            .unwrap();
        assert_eq!(resumed.resumed, plan.run_count(), "jobs {jobs}");
        assert_eq!(resumed.to_json().to_string(), bare.to_json().to_string(), "jobs {jobs}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn truncation_at_every_byte_offset_resumes_byte_identical() {
    let plan = plan();
    let path = temp_path("trunc");
    let reference =
        run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap().to_json().to_string();
    let log = std::fs::read(&path).expect("the log was written");
    assert!(log.len() > 100, "log unexpectedly small ({} bytes)", log.len());

    for cut in 0..=log.len() {
        std::fs::write(&path, &log[..cut]).unwrap();
        let out = run_sweep_with(&plan, &cfg_with(&path), &fake_exec)
            .unwrap_or_else(|e| panic!("resume failed at cut {cut}: {e}"));
        assert_eq!(
            out.to_json().to_string(),
            reference,
            "report diverged after truncation at byte {cut}"
        );
        // Whatever survived the cut was restored, the rest re-ran; a
        // cut strictly inside the log's record area must restore fewer
        // points than a full log but never invent any.
        assert!(out.resumed <= plan.run_count());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn single_bit_corruption_is_detected_reported_and_recovered_past() {
    let plan = plan();
    let path = temp_path("bitflip");
    let reference =
        run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap().to_json().to_string();
    let log = std::fs::read(&path).expect("the log was written");

    let mut rng = SimRng::seed_from_u64(0xC0FF_EE00);
    for trial in 0..200 {
        let byte = (rng.next_u64() % log.len() as u64) as usize;
        let bit = (rng.next_u64() % 8) as u8;
        let mut damaged = log.clone();
        damaged[byte] ^= 1 << bit;
        std::fs::write(&path, &damaged).unwrap();
        let out = run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap_or_else(|e| {
            panic!("trial {trial}: resume failed after flipping bit {bit} of byte {byte}: {e}")
        });
        assert!(
            !out.warnings.is_empty(),
            "trial {trial}: flipping bit {bit} of byte {byte} went undetected"
        );
        assert!(
            out.warnings.iter().all(|w| matches!(w, SweepError::Checkpoint { .. })),
            "trial {trial}: unexpected warning type: {:?}",
            out.warnings
        );
        assert_eq!(
            out.to_json().to_string(),
            reference,
            "trial {trial}: report diverged after flipping bit {bit} of byte {byte}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_points_round_trip_through_the_log() {
    let plan = plan();
    let path = temp_path("failures");
    // Every third point fails permanently.
    let flaky = |index: usize, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
        if index.is_multiple_of(3) {
            return Err(SweepError::Run {
                label: spec.label(),
                message: "deliberate permanent failure".to_string(),
            });
        }
        fake_exec(index, spec)
    };
    let first = run_sweep_with(&plan, &cfg_with(&path), &flaky).unwrap();
    assert!(first.failures().count() > 0);
    let reference = first.to_json().to_string();

    // The resume restores successes AND failures: nothing re-executes,
    // and the report (failure entries included) is byte-identical.
    let resumed = run_sweep_with(&plan, &cfg_with(&path), &|_,
                                                            spec: &RunSpec|
     -> Result<RunOutcome, SweepError> {
        panic!("point {} must not re-execute", spec.label())
    })
    .unwrap();
    assert_eq!(resumed.resumed, plan.run_count());
    assert_eq!(resumed.to_json().to_string(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn logs_of_a_different_plan_or_shard_are_refused_not_resumed() {
    let plan = plan();
    let path = temp_path("mismatch");
    run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap();

    // Different grid, same file: hard error, not silent mixing.
    let mut other = plan.clone();
    other.seeds.push(12345);
    let err = run_sweep_with(&other, &cfg_with(&path), &fake_exec).unwrap_err();
    assert!(matches!(err, SweepError::CheckpointMismatch { .. }), "{err}");

    // Same plan, different shard: also refused.
    let sharded = SweepConfig { shard: Some(Shard { index: 1, count: 2 }), ..cfg_with(&path) };
    let err = run_sweep_with(&plan, &sharded, &fake_exec).unwrap_err();
    assert!(matches!(err, SweepError::CheckpointMismatch { .. }), "{err}");

    // And the intact log still resumes fine afterwards.
    let ok = run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap();
    assert_eq!(ok.resumed, plan.run_count());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sharded_checkpoints_restore_only_their_own_points() {
    let plan = plan();
    let shard = Shard { index: 1, count: 2 };
    let path = temp_path("shard");
    let cfg = SweepConfig { shard: Some(shard), ..cfg_with(&path) };
    let first = run_sweep_with(&plan, &cfg, &fake_exec).unwrap();
    let reference = first.to_json().to_string();
    assert!(first.points.iter().all(|p| shard.owns(p.index())));

    let resumed =
        run_sweep_with(&plan, &cfg, &|_, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
            panic!("point {} must not re-execute", spec.label())
        })
        .unwrap();
    assert_eq!(resumed.resumed, first.points.len());
    assert_eq!(resumed.to_json().to_string(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn outcome_points_expose_the_restored_summaries() {
    // The CLI table is rebuilt from restored summaries; spot-check that
    // the exact f64 bit patterns survive the log.
    let plan = plan();
    let path = temp_path("summaries");
    let first = run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap();
    let resumed = run_sweep_with(&plan, &cfg_with(&path), &|_,
                                                            _: &RunSpec|
     -> Result<RunOutcome, SweepError> {
        unreachable!("all restored")
    })
    .unwrap();
    for (a, b) in first.points.iter().zip(resumed.points.iter()) {
        match (a, b) {
            (PointOutcome::Run(x), PointOutcome::Run(y)) => {
                assert_eq!(x.summary.cpi.to_bits(), y.summary.cpi.to_bits());
                assert_eq!(x.summary.mpki.to_bits(), y.summary.mpki.to_bits());
                assert_eq!(x.summary.l2_misses, y.summary.l2_misses);
                assert_eq!(x.summary.transactions, y.summary.transactions);
            }
            _ => panic!("outcome kind changed across resume"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Runs one shard (`None`: the whole grid) of `plan` into a fresh
/// checkpoint log and returns the log's path.
fn shard_log(plan: &SweepPlan, shard: Option<Shard>, tag: &str) -> String {
    let path = temp_path(tag);
    let cfg = SweepConfig { shard, ..cfg_with(&path) };
    run_sweep_with(plan, &cfg, &fake_exec).expect("the shard runs");
    path
}

/// The report of an uninterrupted single-process sweep of `plan`.
fn single_process_report(plan: &SweepPlan) -> String {
    run_sweep_with(plan, &SweepConfig::default(), &fake_exec).unwrap().to_json().to_string()
}

fn merge_err(plan: &SweepPlan, paths: &[String]) -> SweepError {
    match merge_logs(plan, paths) {
        Ok(_) => panic!("merging {paths:?} must fail"),
        Err(e) => e,
    }
}

fn remove(paths: &[String]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn merged_logs_are_byte_identical_to_a_single_process_run() {
    let plan = plan();
    let reference = single_process_report(&plan);
    for count in 1..=3u32 {
        let mut logs: Vec<String> = (0..count)
            .map(|index| {
                shard_log(&plan, Some(Shard { index, count }), &format!("merge-{index}of{count}"))
            })
            .collect();
        for order in ["forward", "reversed"] {
            let merged = merge_logs(&plan, &logs).unwrap();
            assert_eq!(merged.to_json().to_string(), reference, "{count} shards, {order}");
            assert!(merged.warnings.is_empty(), "{count} shards: {:?}", merged.warnings);
            assert_eq!(merged.resumed, plan.run_count());
            logs.reverse();
        }
        remove(&logs);
    }
    // A whole-grid log is a one-shard merge.
    let whole = vec![shard_log(&plan, None, "merge-whole")];
    assert_eq!(merge_logs(&plan, &whole).unwrap().to_json().to_string(), reference);
    remove(&whole);
}

#[test]
fn merge_refuses_a_log_of_another_plan() {
    let plan = plan();
    let mut other = plan.clone();
    other.seeds.push(12345);
    let logs = vec![
        shard_log(&plan, Some(Shard { index: 0, count: 2 }), "foreign-s0"),
        shard_log(&other, Some(Shard { index: 1, count: 2 }), "foreign-s1"),
    ];
    let err = merge_err(&plan, &logs);
    let refused = matches!(&err, SweepError::CheckpointMismatch { path, .. } if *path == logs[1]);
    assert!(refused, "{err}");
    remove(&logs);
}

#[test]
fn merge_refuses_a_shard_given_twice() {
    let plan = plan();
    let s0 = shard_log(&plan, Some(Shard { index: 0, count: 2 }), "twice-s0");
    let err = merge_err(&plan, &[s0.clone(), s0.clone()]);
    assert!(matches!(err, SweepError::Merge { .. }), "{err}");
    assert!(err.to_string().contains("shard 0/2 was already given"), "{err}");
    remove(&[s0]);
}

#[test]
fn merge_refuses_logs_that_disagree_on_the_shard_count() {
    let plan = plan();
    let logs = vec![
        shard_log(&plan, Some(Shard { index: 0, count: 2 }), "count-s0of2"),
        shard_log(&plan, Some(Shard { index: 1, count: 3 }), "count-s1of3"),
    ];
    let err = merge_err(&plan, &logs);
    assert!(matches!(err, SweepError::Merge { .. }), "{err}");
    assert!(err.to_string().contains("split into 3 shards, but"), "{err}");
    remove(&logs);
}

#[test]
fn merge_refuses_an_absent_shard() {
    let plan = plan();
    let s0 = shard_log(&plan, Some(Shard { index: 0, count: 2 }), "absent-s0");
    let err = merge_err(&plan, std::slice::from_ref(&s0));
    assert!(matches!(err, SweepError::Merge { .. }), "{err}");
    // Point 1 is the first that shard 1/2 owns.
    let label = plan.expand()[1].label();
    let text = err.to_string();
    assert!(text.contains(&label) && text.contains("shard 1/2"), "{text}");
    remove(&[s0]);
}

#[test]
fn merge_refuses_a_torn_shard_log() {
    let plan = plan();
    let logs = vec![
        shard_log(&plan, Some(Shard { index: 0, count: 2 }), "torn-s0"),
        shard_log(&plan, Some(Shard { index: 1, count: 2 }), "torn-s1"),
    ];
    // Cut the last record (shard 1/2's last point, index 7) in half.
    let bytes = std::fs::read(&logs[1]).unwrap();
    let last_start = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    std::fs::write(&logs[1], &bytes[..last_start + (bytes.len() - last_start) / 2]).unwrap();
    let err = merge_err(&plan, &logs);
    assert!(matches!(&err, SweepError::Merge { path, .. } if *path == logs[1]), "{err}");
    let label = plan.expand()[7].label();
    let text = err.to_string();
    assert!(text.contains(&label) && text.contains("shard 1/2"), "{text}");
    remove(&logs);
}

#[test]
fn merge_refuses_an_empty_log_list() {
    let err = merge_err(&plan(), &[]);
    assert!(matches!(err, SweepError::Merge { .. }), "{err}");
}

/// Merges shard 0/2's intact log with `damaged` in place of shard 1/2's
/// log: the result must be the reference bytes or a typed error, and
/// neither input file may change.
fn merge_with_damaged_shard(
    plan: &SweepPlan,
    s0: &str,
    s1: &str,
    damaged: &[u8],
    reference: &str,
) -> bool {
    std::fs::write(s1, damaged).unwrap();
    let s0_before = std::fs::read(s0).unwrap();
    let result = merge_logs(plan, &[s0.to_string(), s1.to_string()]);
    assert_eq!(std::fs::read(s0).unwrap(), s0_before, "the merge wrote its intact input");
    assert_eq!(std::fs::read(s1).unwrap(), damaged, "the merge wrote its damaged input");
    match result {
        Ok(merged) => {
            assert_eq!(merged.to_json().to_string(), reference);
            true
        }
        Err(_) => false,
    }
}

#[test]
fn merge_survives_a_shard_log_truncated_at_every_byte_offset() {
    let plan = plan();
    let reference = single_process_report(&plan);
    let s0 = shard_log(&plan, Some(Shard { index: 0, count: 2 }), "merge-trunc-s0");
    let s1 = shard_log(&plan, Some(Shard { index: 1, count: 2 }), "merge-trunc-s1");
    let log = std::fs::read(&s1).unwrap();
    let mut merged = 0;
    for cut in 0..=log.len() {
        if merge_with_damaged_shard(&plan, &s0, &s1, &log[..cut], &reference) {
            merged += 1;
        }
    }
    // Only the whole log, and the log without its final newline (its
    // last record still CRC-intact), hold every point.
    assert_eq!(merged, 2);
    remove(&[s0, s1]);
}

#[test]
fn merge_survives_single_bit_corruption_of_a_shard_log() {
    let plan = plan();
    let reference = single_process_report(&plan);
    let s0 = shard_log(&plan, Some(Shard { index: 0, count: 2 }), "merge-flip-s0");
    let s1 = shard_log(&plan, Some(Shard { index: 1, count: 2 }), "merge-flip-s1");
    let log = std::fs::read(&s1).unwrap();
    // The flips of the resume property above.
    let mut rng = SimRng::seed_from_u64(0xC0FF_EE00);
    for trial in 0..200 {
        let byte = (rng.next_u64() % log.len() as u64) as usize;
        let bit = (rng.next_u64() % 8) as u8;
        let mut damaged = log.clone();
        damaged[byte] ^= 1 << bit;
        let merged = merge_with_damaged_shard(&plan, &s0, &s1, &damaged, &reference);
        // Every byte belongs to some record, and the CRC catches any
        // single-bit flip, so no damaged log can complete the grid.
        assert!(!merged, "trial {trial}: flipping bit {bit} of byte {byte} went undetected");
    }
    remove(&[s0, s1]);
}

#[test]
fn the_later_of_two_records_for_a_point_wins() {
    // A compaction interrupted mid-write can leave a point twice. Build
    // such a log: point 0's failure record, then its success record.
    let plan = plan();
    let path = temp_path("later-wins");
    let fails_first = |index: usize, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
        if index == 0 {
            return Err(SweepError::Run { label: spec.label(), message: "first".to_string() });
        }
        fake_exec(index, spec)
    };
    run_sweep_with(&plan, &cfg_with(&path), &fails_first).unwrap();
    let clean = temp_path("later-wins-clean");
    run_sweep_with(&plan, &cfg_with(&clean), &fake_exec).unwrap();
    let success = std::fs::read_to_string(&clean).unwrap().lines().nth(1).unwrap().to_string();
    let mut log = std::fs::read_to_string(&path).unwrap();
    log.push_str(&format!("{success}\n"));
    std::fs::write(&path, log).unwrap();

    let merged = merge_logs(&plan, std::slice::from_ref(&path)).unwrap();
    assert_eq!(merged.to_json().to_string(), single_process_report(&plan));
    remove(&[path, clean]);
}
