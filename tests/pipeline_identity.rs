//! Exactness of the workload pipeline.
//!
//! [`Simulation::with_oltp`] generates the OLTP workload on a producer
//! thread and feeds the dispatch loop from rings; the simulator reads
//! back only the transaction count, from the tag of the last chunk it
//! has started. The contract is that this is pure mechanism: every
//! report, the transaction count included, equals the direct run —
//! [`Simulation::try_new`] over the same [`OltpWorkload::build`] streams,
//! with the count read from their shared state — and the
//! [`Simulation::with_oltp_direct`] run the sweep engine falls back to.
//!
//! The drives cover one, two and eight streams, in-order and
//! out-of-order cores, epochs on and off, warm-up plus runs, strict
//! mode with a check interval that is not a multiple of the 512-word
//! chunk, and warm-ups that end exactly where stream 0 starts a burst
//! that commits a transaction: there, a consumer that took the next
//! chunk one word early would count that transaction in the warm-up.

use std::sync::{Arc, Mutex};

use oltp_chip_integration::config::{IntegrationLevel, OooParams, SystemConfig};
use oltp_chip_integration::obs::{ObsConfig, Observer};
use oltp_chip_integration::sim::{SimReport, Simulation};
use oltp_chip_integration::trace::{MemRef, ReferenceStream};
use oltp_chip_integration::workload::{NodeWorkload, OltpParams, OltpWorkload, SharedOltpState};

/// One step of a drive, applied to every simulation alike.
#[derive(Clone, Copy, Debug)]
enum Step {
    Warm(u64),
    Run(u64),
    /// `run_verified(refs, check_every)`.
    Verified(u64, u64),
}

/// Applies `step` and returns the report it produced, if any.
fn apply<S: ReferenceStream>(sim: &mut Simulation<S>, step: Step) -> Option<SimReport> {
    match step {
        Step::Warm(n) => {
            sim.warm_up(n);
            None
        }
        Step::Run(n) => Some(sim.run(n)),
        Step::Verified(n, every) => Some(sim.run_verified(n, every).expect("coherent run")),
    }
}

/// Drives the pipelined, the direct and the `with_oltp_direct`
/// simulation of `cfg` through `steps` and requires equal reports and
/// equal observer output after every step.
fn assert_pipeline_identity(cfg: &SystemConfig, seed: u64, obs: Option<ObsConfig>, steps: &[Step]) {
    let params = OltpParams { seed, ..OltpParams::default() };
    let mut piped = Simulation::with_oltp(cfg, params.clone()).expect("valid workload");
    let mut inline = Simulation::with_oltp_direct(cfg, params.clone()).expect("valid workload");
    let streams = OltpWorkload::build(params, cfg.total_cores()).expect("valid workload");
    let shared = streams[0].shared_handle();
    let mut direct = Simulation::try_new(cfg, streams).expect("one stream per core");
    if let Some(obs) = &obs {
        piped.set_observer(Observer::new(obs.clone()));
        inline.set_observer(Observer::new(obs.clone()));
        direct.set_observer(Observer::new(obs.clone()));
    }
    // `try_new` knows nothing of the workload's transaction counter, so
    // the direct count is read from the shared state: completions since
    // the last warm-up's statistics reset.
    let mut baseline = 0;
    for (i, &step) in steps.iter().enumerate() {
        let a = apply(&mut piped, step);
        let c = apply(&mut inline, step);
        let b = apply(&mut direct, step).map(|mut r| {
            r.transactions = shared.transactions_completed() - baseline;
            r
        });
        if let Step::Warm(_) = step {
            baseline = shared.transactions_completed();
        }
        assert_eq!(a, b, "pipelined report diverges from the direct run at step {i} ({step:?})");
        assert_eq!(c, b, "with_oltp_direct diverges from the direct run at step {i} ({step:?})");
        let (oa, ob) =
            (piped.observer().to_json().to_string(), direct.observer().to_json().to_string());
        assert_eq!(oa, ob, "observer output diverges at step {i} ({step:?})");
    }
}

/// A direct-path stream that records the positions at which stream 0
/// started a pull whose burst refill moved the transaction count.
struct Recorder {
    inner: NodeWorkload,
    pos: u64,
    shared: Arc<SharedOltpState>,
    commits: Option<Arc<Mutex<Vec<u64>>>>,
}

impl ReferenceStream for Recorder {
    fn next_ref(&mut self) -> MemRef {
        let mut word = 0;
        self.next_burst(std::slice::from_mut(&mut word));
        MemRef::unpack(word)
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        let before = self.shared.transactions_completed();
        let n = self.inner.next_burst(out);
        if let Some(commits) = &self.commits {
            if self.shared.transactions_completed() != before {
                commits.lock().expect("test lock").push(self.pos);
            }
        }
        self.pos += n as u64;
        n
    }
}

/// Positions (words of stream 0, counted from the start) at which a
/// direct run of `cfg` starts a burst that commits a transaction.
fn commit_boundaries(cfg: &SystemConfig, seed: u64, rounds: u64) -> Vec<u64> {
    let params = OltpParams { seed, ..OltpParams::default() };
    let streams = OltpWorkload::build(params, cfg.total_cores()).expect("valid workload");
    let shared = streams[0].shared_handle();
    let commits = Arc::new(Mutex::new(Vec::new()));
    let streams = streams
        .into_iter()
        .enumerate()
        .map(|(i, inner)| Recorder {
            inner,
            pos: 0,
            shared: Arc::clone(&shared),
            commits: (i == 0).then(|| Arc::clone(&commits)),
        })
        .collect();
    let mut sim = Simulation::try_new(cfg, streams).expect("one stream per core");
    sim.run(rounds);
    drop(sim);
    let found = commits.lock().expect("test lock").clone();
    found
}

fn ooo_cfg(nodes: usize) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.nodes(nodes)
        .integration(IntegrationLevel::FullyIntegrated)
        .l2_sram(2 << 20, 8)
        .out_of_order(OooParams::paper());
    b.build().expect("valid config")
}

#[test]
fn pipelined_uniprocessor_matches_direct() {
    // In-order, no epochs: warm-up, a run, and strict mode checking
    // every 777 rounds (not a multiple of the 512-word chunk).
    let cfg = SystemConfig::paper_base_uni();
    let steps = [Step::Warm(10_001), Step::Run(33_333), Step::Verified(20_011, 777)];
    assert_pipeline_identity(&cfg, 11, None, &steps);
}

#[test]
fn pipelined_two_node_ooo_with_epochs_matches_direct() {
    let obs = ObsConfig { histograms: true, epoch: Some(777), trace: None };
    let steps = [Step::Warm(5_003), Step::Run(8_191), Step::Verified(9_001, 1_000)];
    assert_pipeline_identity(&ooo_cfg(2), 23, Some(obs), &steps);
}

#[test]
fn pipelined_eight_nodes_match_direct() {
    let cfg = SystemConfig::paper_base_mp8();
    let steps = [Step::Warm(4_001), Step::Run(6_007), Step::Verified(3_001, 1_500)];
    assert_pipeline_identity(&cfg, 7, None, &steps);
}

#[test]
fn pipelined_eight_node_ooo_with_epochs_matches_direct() {
    let obs = ObsConfig { histograms: false, epoch: Some(1_001), trace: None };
    let steps = [Step::Warm(3_001), Step::Run(4_003)];
    assert_pipeline_identity(&ooo_cfg(8), 5, Some(obs), &steps);
}

#[test]
fn warm_up_ending_on_a_committing_burst_boundary_counts_exactly() {
    // The transaction count moves when stream 0 starts a burst at
    // position b. A warm-up of exactly b rounds has not started it, so
    // its commit belongs to the measured run; a warm-up of b + 1 has.
    for (cfg, seed) in [(SystemConfig::paper_base_uni(), 3), (ooo_cfg(2), 17)] {
        let boundaries = commit_boundaries(&cfg, seed, 200_000);
        assert!(boundaries.len() >= 3, "the drive must cross several commits: {boundaries:?}");
        for &b in &boundaries[1..3] {
            for warm in [b, b + 1] {
                let steps = [Step::Warm(warm), Step::Run(1), Step::Run(2_048)];
                assert_pipeline_identity(&cfg, seed, None, &steps);
            }
        }
    }
}

#[test]
fn a_warm_up_and_a_run_ending_inside_a_commit_burst_count_exactly() {
    // A pipelined stream publishes a burst's chunks while it generates
    // the burst, and each chunk carries the count as of its whole
    // burst: the commit burst counts its transaction before its first
    // word. A commit burst has at least txn_commit_instrs words, so 700
    // words in is past its first 512-word chunk and before its last.
    let cfg = SystemConfig::paper_base_uni();
    let seed = 29;
    let inside = 700;
    assert!(OltpParams::default().txn_commit_instrs > inside + 512);
    let boundaries = commit_boundaries(&cfg, seed, 200_000);
    assert!(boundaries.len() >= 3, "the drive must cross several commits: {boundaries:?}");
    let (warm, end) = (boundaries[1] + inside, boundaries[2] + inside);
    let steps = [Step::Warm(warm), Step::Run(end - warm), Step::Run(2_048)];
    assert_pipeline_identity(&cfg, seed, None, &steps);
}
