//! Bit-identity contract of the batched reference dispatch.
//!
//! The simulator gathers references from each stream in 512-deep packed
//! columns ([`ReferenceStream::next_burst`]) and dispatches them in
//! spans of rounds. The contract is that this is *pure mechanism*: every
//! counter of every report — misses, breakdowns, histograms, epoch
//! series, fault statistics, traced events — must be bit-identical to
//! single-step dispatch, one `next_ref` per stream per round.
//!
//! The single-step oracle lives here, as a stream adapter
//! ([`SingleStep`]) that implements only `next_ref`: the trait's default
//! `next_burst` then hands out one word per call, so the simulator's one
//! dispatch loop runs every round as a span of its own.
//!
//! The drives here are adversarial about burst boundaries on purpose:
//! run lengths that are not multiples of the 512-word column, epochs that
//! close mid-burst, a fault storm whose injector reads the logical clock
//! between references, and multi-stream machines whose streams must stay
//! strictly round-interleaved.
//!
//! [`ReferenceStream::next_burst`]: oltp_chip_integration::trace::ReferenceStream::next_burst

use oltp_chip_integration::config::{IntegrationLevel, OooParams, SystemConfig};
use oltp_chip_integration::fault::{FaultInjector, FaultPlan};
use oltp_chip_integration::obs::{ObsConfig, Observer, TraceConfig};
use oltp_chip_integration::sim::Simulation;
use oltp_chip_integration::trace::{
    Access, ExecMode, MemRef, ReferenceStream, PACKED_ACCESS_SHIFT, PACKED_ADDR_MASK,
    PACKED_MODE_BIT,
};
use oltp_chip_integration::workload::{NodeWorkload, OltpParams, OltpWorkload};

/// The single-step oracle: a workload stream seen one reference at a
/// time. Only `next_ref` is implemented, so every burst is one word long.
struct SingleStep(NodeWorkload);

impl ReferenceStream for SingleStep {
    fn next_ref(&mut self) -> MemRef {
        self.0.next_ref()
    }
}

/// Builds the batched simulation and its single-step oracle for one
/// configuration and drives both through the same chunk schedule,
/// comparing the full report, the observer's JSON (histograms, epochs,
/// trace counts) and the traced events themselves after every chunk.
fn assert_dispatch_identity(
    cfg: &SystemConfig,
    seed: u64,
    obs: Option<ObsConfig>,
    fault_plan: Option<&FaultPlan>,
    warm: u64,
    chunks: &[u64],
) {
    let params = OltpParams { seed, ..OltpParams::default() };
    let mut batched = Simulation::with_oltp(cfg, params.clone()).expect("valid workload");
    let streams = OltpWorkload::build(params, cfg.total_cores()).expect("valid workload");
    let shared = streams[0].shared_handle();
    let streams = streams.into_iter().map(SingleStep).collect();
    let mut oracle = Simulation::try_new(cfg, streams).expect("one stream per core");
    if let Some(obs) = &obs {
        batched.set_observer(Observer::new(obs.clone()));
        oracle.set_observer(Observer::new(obs.clone()));
    }
    if let Some(plan) = fault_plan {
        let injector = || FaultInjector::new(plan.clone(), 5).expect("valid fault plan");
        batched.set_fault_injector(injector());
        oracle.set_fault_injector(injector());
    }
    batched.warm_up(warm);
    oracle.warm_up(warm);
    // `try_new` knows nothing of the workload's transaction counter, so
    // the oracle's count is taken from the shared handle, as `with_oltp`
    // would: completions since the warm-up's statistics reset.
    let txn_baseline = shared.transactions_completed();
    for (i, &chunk) in chunks.iter().enumerate() {
        let a = batched.run(chunk);
        let mut b = oracle.run(chunk);
        b.transactions = shared.transactions_completed() - txn_baseline;
        assert_eq!(a, b, "batched report diverges from single-step at chunk {i} ({chunk} refs)");
        let oa = batched.observer().to_json().to_string();
        let ob = oracle.observer().to_json().to_string();
        assert_eq!(oa, ob, "observer output diverges at chunk {i} ({chunk} refs)");
        assert_eq!(
            batched.observer().trace_jsonl(),
            oracle.observer().trace_jsonl(),
            "traced events (and their timestamps) diverge at chunk {i}"
        );
        assert_eq!(
            batched.fault_stats(),
            oracle.fault_stats(),
            "fault statistics diverge at chunk {i}"
        );
    }
}

#[test]
fn batched_dispatch_matches_single_step_on_non_multiple_lengths() {
    // Uniprocessor — the stack-column loop with the repeat-fetch run
    // scanner. Every length is coprime with the 512-word column so
    // chunks start and end mid-burst.
    let cfg = SystemConfig::paper_base_uni();
    assert_dispatch_identity(&cfg, 11, None, None, 10_001, &[1, 63, 65, 511, 513, 4_097, 33_333]);
}

#[test]
fn batched_dispatch_matches_single_step_multi_node() {
    // 4 nodes sharing nothing but the directory: rounds must stay
    // strictly interleaved (stream 0..n per round) across column refills.
    let cfg = SystemConfig::paper_fully_integrated(4);
    assert_dispatch_identity(&cfg, 23, None, None, 5_003, &[127, 8_191, 20_011]);
}

#[test]
fn batched_dispatch_matches_single_step_with_epochs_spanning_bursts() {
    // An epoch length coprime with the column depth forces epoch closes
    // in the middle of gathered bursts; histograms exercise per-class
    // latency recording on both paths.
    let cfg = SystemConfig::paper_base_mp8();
    let obs = ObsConfig { histograms: true, epoch: Some(777), trace: None };
    assert_dispatch_identity(&cfg, 7, Some(obs), None, 4_001, &[10_007, 31_337]);
}

#[test]
fn batched_dispatch_matches_single_step_with_event_trace() {
    // An enabled event trace timestamps events with the logical clock
    // (`refs_run`), which disables the deferred flush — both paths must
    // agree event-for-event.
    let cfg = SystemConfig::paper_base_uni();
    let obs = ObsConfig { histograms: false, epoch: None, trace: Some(TraceConfig::default()) };
    assert_dispatch_identity(&cfg, 3, Some(obs), None, 2_001, &[9_973]);
}

#[test]
fn batched_dispatch_matches_single_step_under_fault_storm() {
    // The injector reads the logical clock between references (NACK
    // windows, retry backoff), so the fault path is the strictest test
    // of per-round `refs_run` advancement.
    let plan = FaultPlan::from_toml_str(include_str!("../examples/fault_storm.toml"))
        .expect("the example fault plan parses");
    let cfg = SystemConfig::paper_fully_integrated(2);
    assert_dispatch_identity(&cfg, 17, None, Some(&plan), 5_000, &[15_013, 7_919]);
}

#[test]
fn batched_dispatch_matches_single_step_single_stream_observed() {
    // One stream with everything that reads the logical clock between
    // references at once: epochs closing inside spans (777 is coprime
    // with the column depth), timestamped events, the fault storm's
    // clock, and the out-of-order model, whose repeat-fetch runs retire
    // one instruction at a time.
    let plan = FaultPlan::from_toml_str(include_str!("../examples/fault_storm.toml"))
        .expect("the example fault plan parses");
    let mut b = SystemConfig::builder();
    b.nodes(1)
        .integration(IntegrationLevel::FullyIntegrated)
        .l2_sram(2 << 20, 8)
        .out_of_order(OooParams::paper());
    let cfg = b.build().expect("valid config");
    let obs = ObsConfig { histograms: true, epoch: Some(777), trace: Some(TraceConfig::default()) };
    let chunks = [1, 511, 513, 4_097, 33_333];
    assert_dispatch_identity(&cfg, 29, Some(obs), Some(&plan), 3_001, &chunks);
}

#[test]
fn batched_dispatch_matches_single_step_multi_stream_clock() {
    // The interleaved loop must advance the logical clock once per round.
    // Four streams (2 nodes x 2 cores) under a plan whose link and
    // memory-controller windows open and close inside the run, at offsets
    // coprime with the column depth, plus epochs and timestamped events:
    // a clock that lags or leads inside a span moves a window edge, an
    // epoch snapshot or an event timestamp.
    let plan = FaultPlan::from_toml_str(
        "[nack]\nprob = 0.02\n\n\
         [[link_fault]]\nstart = 1001\nduration = 3001\ncapacity = 0.25\n\n\
         [[mc_fault]]\nstart = 2999\nduration = 5003\nextra_cycles = 40\n",
    )
    .expect("the inline fault plan parses");
    let mut b = SystemConfig::builder();
    b.nodes(2).cores_per_node(2).integration(IntegrationLevel::FullyIntegrated).l2_sram(2 << 20, 8);
    let cfg = b.build().expect("valid config");
    let obs = ObsConfig { histograms: true, epoch: Some(777), trace: Some(TraceConfig::default()) };
    let chunks = [1, 511, 513, 4_097, 9_001];
    assert_dispatch_identity(&cfg, 31, Some(obs), Some(&plan), 2_003, &chunks);
}

#[test]
fn packed_word_layout_is_pinned() {
    // The packed-word layout is shared between the workload's burst
    // buffer and the dispatch fast lane; pin the bit positions so a
    // drive-by change shows up as a test diff, not a silent decode skew.
    let r = MemRef::new(0x1234_5678_9abc, Access::Store, ExecMode::Kernel);
    let w = r.pack();
    assert_eq!(w & PACKED_ADDR_MASK, 0x1234_5678_9abc);
    assert_eq!(w >> PACKED_ACCESS_SHIFT & 0x3, 2, "Store encodes as 2");
    assert_ne!(w & PACKED_MODE_BIT, 0, "kernel mode is the top bit");
    assert_eq!(
        MemRef::unpack(w & !PACKED_MODE_BIT).mode,
        ExecMode::User,
        "clearing the mode bit yields a user-mode reference"
    );
    assert_eq!(MemRef::unpack(w), r);
}

#[test]
fn next_burst_is_a_view_of_the_same_stream() {
    // Interleaving burst and single-reference pulls from the workload
    // generator must see one stream, not two: pull a prefix through
    // `next_burst` on one clone and `next_ref` on the other.
    let build = || -> Vec<NodeWorkload> {
        OltpWorkload::build(OltpParams { seed: 99, ..OltpParams::default() }, 1)
            .expect("valid workload")
    };
    let mut by_burst = build().remove(0);
    let mut by_ref = build().remove(0);
    let mut col = [0u64; 61]; // deliberately not the simulator's 64
    let mut got = Vec::new();
    while got.len() < 50_000 {
        let n = by_burst.next_burst(&mut col);
        got.extend(col[..n].iter().map(|&w| MemRef::unpack(w)));
        // A single-step pull in between must not desynchronize.
        got.push(by_burst.next_ref());
    }
    for (i, r) in got.iter().enumerate() {
        assert_eq!(*r, by_ref.next_ref(), "reference {i} diverges");
    }
}
