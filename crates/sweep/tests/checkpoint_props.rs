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
//! Simulation cost is irrelevant to these properties, so the grid points
//! are executed by a deterministic fake executor: thousands of
//! truncation offsets resume in milliseconds.

use csim_obs::json::Json;
use csim_sweep::{
    run_sweep_with, PointOutcome, RunOutcome, RunSpec, RunSummary, Shard, SweepConfig,
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
    // Consumers key on these strings; renaming either is a breaking
    // change that must show up in a test diff.
    assert_eq!(csim_sweep::CHECKPOINT_SCHEMA, "csim-sweep-checkpoint/v1");
    assert_eq!(csim_sweep::SWEEP_SHARD_SCHEMA, "csim-sweep-shard/v1");
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
        let resumed = run_sweep_with(
            &plan,
            &cfg,
            &|_, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
                panic!("point {} must not re-execute on a complete log", spec.label())
            },
        )
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
            out.warnings
                .iter()
                .all(|w| matches!(w, SweepError::Checkpoint { .. })),
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
    let resumed = run_sweep_with(
        &plan,
        &cfg_with(&path),
        &|_, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
            panic!("point {} must not re-execute", spec.label())
        },
    )
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
    let sharded = SweepConfig {
        shard: Some(Shard { index: 1, count: 2 }),
        ..cfg_with(&path)
    };
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
    let reference = first.to_shard_json().to_string();
    assert!(first.points.iter().all(|p| shard.owns(p.index())));

    let resumed = run_sweep_with(
        &plan,
        &cfg,
        &|_, spec: &RunSpec| -> Result<RunOutcome, SweepError> {
            panic!("point {} must not re-execute", spec.label())
        },
    )
    .unwrap();
    assert_eq!(resumed.resumed, first.points.len());
    assert_eq!(resumed.to_shard_json().to_string(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn outcome_points_expose_the_restored_summaries() {
    // The CLI table is rebuilt from restored summaries; spot-check that
    // the exact f64 bit patterns survive the log.
    let plan = plan();
    let path = temp_path("summaries");
    let first = run_sweep_with(&plan, &cfg_with(&path), &fake_exec).unwrap();
    let resumed = run_sweep_with(
        &plan,
        &cfg_with(&path),
        &|_, _: &RunSpec| -> Result<RunOutcome, SweepError> { unreachable!("all restored") },
    )
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
