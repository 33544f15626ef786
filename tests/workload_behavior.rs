//! Cross-crate checks of the synthetic OLTP workload's structural
//! behavior: the properties the DESIGN.md substitution argument relies
//! on.

use oltp_chip_integration::prelude::*;
use oltp_chip_integration::workload::{OltpWorkload, Region};

#[test]
fn kernel_activity_is_about_a_quarter_of_instructions() {
    let mut nodes = OltpWorkload::build(OltpParams::default(), 1).unwrap();
    let stream = &mut nodes[0];
    let (mut kernel, mut instrs) = (0u64, 0u64);
    for _ in 0..800_000 {
        let r = stream.next_ref();
        if r.access.is_instruction() {
            instrs += 1;
            if r.mode == ExecMode::Kernel {
                kernel += 1;
            }
        }
    }
    let share = kernel as f64 / instrs as f64;
    assert!((0.17..0.35).contains(&share), "kernel share {share:.2}");
}

#[test]
fn all_nodes_update_all_branches() {
    // The 40 branch rows must be touched (written) from every node — the
    // migratory hot set behind the paper's 3-hop misses.
    use oltp_chip_integration::workload::AddressMap;
    let params = OltpParams::default();
    let map = AddressMap::new(params.seed);
    // Branch rows sit at line 2 of their padded blocks: collect their
    // physical line addresses.
    let branch_lines: std::collections::BTreeSet<u64> = (0..params.branches)
        .map(|b| map.line_addr(Region::BranchBlocks, b * 32 + 2) / 64)
        .collect();

    let mut nodes = OltpWorkload::build(params, 4).unwrap();
    let mut writers_per_line: std::collections::BTreeMap<u64, std::collections::BTreeSet<u8>> =
        Default::default();
    let mut writes_per_node = [0u64; 4];
    for (n, stream) in nodes.iter_mut().enumerate() {
        for _ in 0..900_000 {
            let r = stream.next_ref();
            if r.access.is_write() && branch_lines.contains(&(r.addr / 64)) {
                writers_per_line.entry(r.addr / 64).or_default().insert(n as u8);
                writes_per_node[n] += 1;
            }
        }
    }
    // Every node updates branches, and a solid majority of branch lines
    // are written from more than one node within this short window (a
    // longer run converges to all-40-by-all-4).
    assert!(writes_per_node.iter().all(|&w| w > 0), "every node must update branches");
    let write_shared = writers_per_line.values().filter(|w| w.len() >= 2).count();
    assert!(write_shared >= 20, "only {write_shared}/40 branch lines write-shared across nodes");
}

#[test]
fn account_stream_is_cold() {
    // Account-row lines should rarely repeat: a fresh set of lines per
    // transaction (the capacity/cold stream no cache captures).
    let cfg = SystemConfig::paper_base_uni();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
    sim.warm_up(2_000_000);
    let rep = sim.run(1_000_000);
    // At 8 MB direct-mapped the uniprocessor floor is cold + conflict;
    // cold misses must be a visible floor (a few per transaction).
    assert!(
        rep.misses.cold > rep.transactions,
        "cold misses {} vs txns {}",
        rep.misses.cold,
        rep.transactions
    );
}

#[test]
fn log_writer_runs_only_on_node_zero_and_reads_everyone() {
    // The shared redo ring is written by all nodes and harvested on node
    // 0; check cross-node write/read sharing of LogRing lines.
    use oltp_chip_integration::workload::AddressMap;
    let params = OltpParams::default();
    let map = AddressMap::new(params.seed);
    let ring_lines: std::collections::BTreeSet<u64> =
        (0..params.log_ring_lines).map(|l| map.line_addr(Region::LogRing, l) / 64).collect();

    let mut nodes = OltpWorkload::build(params, 2).unwrap();
    let mut node1_writes = 0u64;
    let mut node0_reads = 0u64;
    for _ in 0..800_000 {
        let r0 = nodes[0].next_ref();
        let r1 = nodes[1].next_ref();
        if ring_lines.contains(&(r0.addr / 64)) && !r0.access.is_write() {
            node0_reads += 1;
        }
        if ring_lines.contains(&(r1.addr / 64)) && r1.access.is_write() {
            node1_writes += 1;
        }
    }
    assert!(node1_writes > 0, "node 1 must append redo");
    assert!(node0_reads > 0, "node 0's log writer must read the ring");
}

#[test]
fn workload_streams_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<oltp_chip_integration::workload::NodeWorkload>();
}

#[test]
fn simulation_reports_are_serializable() {
    let cfg = SystemConfig::paper_base_uni();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
    let rep = sim.run(10_000);
    // SimReport derives Serialize; a Debug round-trip sanity check plus
    // field access keeps the API honest.
    let dbg = format!("{rep:?}");
    assert!(dbg.contains("breakdown"));
    assert!(rep.refs_per_node == 10_000);
}
