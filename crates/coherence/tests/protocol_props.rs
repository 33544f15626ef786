//! Property tests of the directory protocol state machine: arbitrary
//! legal operation sequences must preserve the single-writer invariant
//! and produce self-consistent outcomes. Cases are generated by the
//! workspace's deterministic [`SimRng`] (no external crates).

use std::collections::BTreeMap;

use csim_coherence::{
    Directory, FillSource, LineState, NodeId, NodeSet, ProtocolError, ReadOutcome, WriteOutcome,
};
use csim_trace::SimRng;

#[derive(Clone, Copy, Debug)]
enum Op {
    Read { line: u64, node: NodeId },
    Write { line: u64, node: NodeId },
    EvictIfOwner { line: u64, node: NodeId },
}

/// Weighted op draw mirroring the old proptest strategy: 3:2:1
/// read/write/evict.
fn random_op(rng: &mut SimRng, lines: u64, nodes: u8) -> Op {
    let line = rng.gen_range(0..lines);
    let node = rng.gen_range(0..u64::from(nodes)) as NodeId;
    match rng.gen_range(0..6) {
        0..=2 => Op::Read { line, node },
        3..=4 => Op::Write { line, node },
        _ => Op::EvictIfOwner { line, node },
    }
}

#[test]
fn protocol_outcomes_are_self_consistent() {
    let mut rng = SimRng::seed_from_u64(0xD1CE);
    for _ in 0..128 {
        let mut dir = Directory::new(6, 64, 8192);
        let n_ops = rng.gen_range_usize(1..300);
        for _ in 0..n_ops {
            match random_op(&mut rng, 24, 6) {
                Op::Read { line, node } => {
                    // The simulator only consults the directory on a miss;
                    // a read by a current dirty owner never reaches here.
                    if let LineState::Modified { owner, .. } = dir.state(line) {
                        if owner == node {
                            continue;
                        }
                    }
                    let out = dir.read_miss(line, node);
                    // Fill source must agree with the downgrade request.
                    match out.source {
                        FillSource::OwnerCache { owner, .. } => {
                            assert_eq!(out.downgraded_owner, Some(owner));
                            assert_ne!(owner, node);
                        }
                        FillSource::Home => assert_eq!(out.downgraded_owner, None),
                    }
                    assert_eq!(out.home, dir.home(line));
                    // After a read the line is Shared and includes the reader.
                    match dir.state(line) {
                        LineState::Shared(s) => assert!(s.contains(node)),
                        other => panic!("read left state {other:?}"),
                    }
                }
                Op::Write { line, node } => {
                    if let LineState::Modified { owner, .. } = dir.state(line) {
                        if owner == node {
                            continue;
                        }
                    }
                    let out = dir.write_miss(line, node);
                    // Invalidation set never targets the writer.
                    assert!(!out.invalidate.contains(node));
                    if let Some(prev) = out.previous_owner {
                        assert_ne!(prev, node);
                        // A modified line has no other sharers to invalidate.
                        assert!(out.invalidate.is_empty());
                    }
                    // Single-writer invariant.
                    assert_eq!(
                        dir.state(line),
                        LineState::Modified { owner: node, in_rac: false }
                    );
                }
                Op::EvictIfOwner { line, node } => {
                    if dir.state(line) == (LineState::Modified { owner: node, in_rac: false }) {
                        dir.writeback(line, node).expect("owner writeback is legal");
                        assert_eq!(dir.state(line), LineState::Uncached);
                    }
                }
            }
        }
    }
}

#[test]
fn cold_flag_fires_exactly_once_per_line() {
    let mut rng = SimRng::seed_from_u64(0xC01D);
    for _ in 0..64 {
        let mut dir = Directory::new(4, 64, 8192);
        let mut seen = std::collections::BTreeSet::new();
        let n = rng.gen_range_usize(1..200);
        for _ in 0..n {
            let line = rng.gen_range(0..16);
            let node = rng.gen_range(0..4) as NodeId;
            let write = rng.gen_bool(0.5);
            if let LineState::Modified { owner, .. } = dir.state(line) {
                if owner == node {
                    continue;
                }
            }
            let cold = if write {
                dir.write_miss(line, node).cold
            } else {
                dir.read_miss(line, node).cold
            };
            assert_eq!(cold, seen.insert(line), "cold flag wrong for line {line}");
        }
    }
}

#[test]
fn homes_are_stable_and_balanced() {
    for nodes in 1u8..=16 {
        let dir = Directory::new(nodes, 64, 8192);
        let lines_per_page = 8192 / 64;
        let mut counts = vec![0u32; nodes as usize];
        for page in 0..(u64::from(nodes) * 64) {
            let home = dir.home(page * lines_per_page + 3);
            assert!(home < nodes);
            assert_eq!(home, dir.home(page * lines_per_page + 99));
            counts[home as usize] += 1;
        }
        // Round-robin interleave: perfectly balanced over whole rounds.
        assert!(counts.iter().all(|&c| c == 64));
    }
}

/// An independent model of the directory for the differential test:
/// one `BTreeMap` entry per tracked line, `Uncached` for a tombstone.
struct Reference {
    nodes: u8,
    lines: BTreeMap<u64, LineState>,
}

impl Reference {
    fn home(&self, line: u64) -> NodeId {
        // 8192-byte pages of 64-byte lines: 128 lines per page.
        ((line >> 7) % u64::from(self.nodes)) as NodeId
    }

    fn read_miss(&mut self, line: u64, node: NodeId) -> ReadOutcome {
        let cold = !self.lines.contains_key(&line);
        let old = self.lines.get(&line).copied().unwrap_or(LineState::Uncached);
        let (source, downgraded_owner, sharers) = match old {
            LineState::Uncached => (FillSource::Home, None, NodeSet::single(node)),
            LineState::Shared(mut s) => {
                s.insert(node);
                (FillSource::Home, None, s)
            }
            LineState::Modified { owner, in_rac } => {
                let mut s = NodeSet::single(owner);
                s.insert(node);
                (FillSource::OwnerCache { owner, in_rac }, Some(owner), s)
            }
        };
        self.lines.insert(line, LineState::Shared(sharers));
        ReadOutcome { source, home: self.home(line), cold, downgraded_owner }
    }

    fn write_miss(&mut self, line: u64, node: NodeId) -> WriteOutcome {
        let cold = !self.lines.contains_key(&line);
        let old = self.lines.get(&line).copied().unwrap_or(LineState::Uncached);
        let (source, invalidate, previous_owner, upgrade) = match old {
            LineState::Uncached => (FillSource::Home, NodeSet::empty(), None, false),
            LineState::Shared(s) => (FillSource::Home, s.without(node), None, s.contains(node)),
            LineState::Modified { owner, in_rac } => {
                (FillSource::OwnerCache { owner, in_rac }, NodeSet::empty(), Some(owner), false)
            }
        };
        self.lines.insert(line, LineState::Modified { owner: node, in_rac: false });
        WriteOutcome { source, home: self.home(line), cold, invalidate, previous_owner, upgrade }
    }

    /// The owner-only transitions: writeback (`next == None`) and RAC
    /// park/refetch (`next == Some(in_rac)`).
    fn owner_op(
        &mut self,
        op: &'static str,
        line: u64,
        node: NodeId,
        next: Option<bool>,
    ) -> Result<(), ProtocolError> {
        let Some(state) = self.lines.get_mut(&line) else {
            return Err(ProtocolError::UntrackedLine { op, line });
        };
        match *state {
            LineState::Modified { owner, .. } if owner == node => {
                *state = match next {
                    None => LineState::Uncached,
                    Some(in_rac) => LineState::Modified { owner, in_rac },
                };
                Ok(())
            }
            other => Err(ProtocolError::NotOwner { op, line, node, state: other }),
        }
    }

    fn drop_sharer(&mut self, line: u64, node: NodeId) -> bool {
        let Some(LineState::Shared(s)) = self.lines.get_mut(&line) else { return false };
        if !s.contains(node) {
            return false;
        }
        s.remove(node);
        if s.is_empty() {
            self.lines.insert(line, LineState::Uncached);
        }
        true
    }

    fn seed_state(&mut self, line: u64, state: LineState) -> Result<(), ProtocolError> {
        let valid = match state {
            LineState::Uncached => true,
            LineState::Shared(s) => !s.is_empty() && s.iter().all(|n| n < self.nodes),
            LineState::Modified { owner, .. } => owner < self.nodes,
        };
        if !valid {
            return Err(ProtocolError::InvalidSeed { line, state });
        }
        self.lines.insert(line, state);
        Ok(())
    }
}

/// A random seed state, invalid about one time in eight (an owner or a
/// sharer beyond the node count, or an empty sharer set).
fn random_seed_state(rng: &mut SimRng, nodes: u8) -> LineState {
    let node = |rng: &mut SimRng| rng.gen_range(0..u64::from(nodes) + 1) as NodeId;
    match rng.gen_range(0..4) {
        0 => LineState::Uncached,
        1 | 2 => {
            let mut s = NodeSet::empty();
            for _ in 0..rng.gen_range(0..4) {
                s.insert(node(rng));
            }
            LineState::Shared(s)
        }
        _ => LineState::Modified { owner: node(rng), in_rac: rng.gen_bool(0.5) },
    }
}

/// Runs random op sequences against the directory and the reference
/// side by side, comparing every answer, the touched line's state, the
/// tracked-line count, and the full ascending iteration.
fn check_against_reference(seed: u64, lines: &[u64]) {
    const NODES: u8 = 8;
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..48 {
        let mut dir = Directory::new(NODES, 64, 8192);
        let mut reference = Reference { nodes: NODES, lines: BTreeMap::new() };
        for step in 0..rng.gen_range(1..400) {
            let line = lines[rng.gen_range_usize(0..lines.len())];
            let node = rng.gen_range(0..u64::from(NODES)) as NodeId;
            // The simulator never sends a miss for a line its requester owns.
            let owns = matches!(dir.state(line), LineState::Modified { owner, .. } if owner == node);
            let ctx = format!("case {case} step {step} line {line:#x} node {node}");
            match rng.gen_range(0..10) {
                0..=2 if !owns => {
                    assert_eq!(dir.read_miss(line, node), reference.read_miss(line, node), "{ctx}");
                }
                3..=4 if !owns => {
                    assert_eq!(dir.write_miss(line, node), reference.write_miss(line, node), "{ctx}");
                }
                5 => assert_eq!(
                    dir.writeback(line, node),
                    reference.owner_op("writeback", line, node, None),
                    "{ctx}"
                ),
                6 => assert_eq!(
                    dir.drop_sharer(line, node),
                    reference.drop_sharer(line, node),
                    "{ctx}"
                ),
                7 => assert_eq!(
                    dir.owner_moved_to_rac(line, node),
                    reference.owner_op("owner_moved_to_rac", line, node, Some(true)),
                    "{ctx}"
                ),
                8 => assert_eq!(
                    dir.owner_refetched_from_rac(line, node),
                    reference.owner_op("owner_refetched_from_rac", line, node, Some(false)),
                    "{ctx}"
                ),
                9 => {
                    let state = random_seed_state(&mut rng, NODES);
                    assert_eq!(
                        dir.seed_state(line, state),
                        reference.seed_state(line, state),
                        "{ctx}"
                    );
                }
                _ => continue,
            }
            let want = reference.lines.get(&line).copied().unwrap_or(LineState::Uncached);
            assert_eq!(dir.state(line), want, "{ctx}");
            assert_eq!(dir.tracked_lines(), reference.lines.len(), "{ctx}");
        }
        let got: Vec<(u64, LineState)> = dir.iter().collect();
        let want: Vec<(u64, LineState)> = reference.lines.iter().map(|(&l, &s)| (l, s)).collect();
        assert_eq!(got, want, "case {case}: iter() must list every tracked line in ascending order");
    }
}

#[test]
fn directory_matches_reference_on_dense_lines() {
    let lines: Vec<u64> = (0..24).collect();
    check_against_reference(0xB10C, &lines);
}

/// Pairs of lines on either side of a 32-line block edge: the second
/// line of a pair shares its block with the first line of the next, so
/// ops on never-tracked lines in blocks that already exist are common.
#[test]
fn directory_matches_reference_across_block_edges() {
    let lines: Vec<u64> = (1..=12u64).flat_map(|k| [32 * k - 1, 32 * k]).collect();
    check_against_reference(0xED6E, &lines);
}

/// One line per block, spread up to the largest 40-bit line number.
#[test]
fn directory_matches_reference_on_sparse_blocks() {
    let mut rng = SimRng::seed_from_u64(0x5BA2);
    let mut lines: Vec<u64> = (0..23).map(|i| (i << 35) | rng.gen_range(0..1 << 35)).collect();
    lines.push((1 << 40) - 1);
    check_against_reference(0x5BA25E, &lines);
}
