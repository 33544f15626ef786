//! Property tests for [`NodeSet`] and the directory's iteration
//! surfaces, driven by the workspace's deterministic [`SimRng`] (no
//! external crates). These pin the edge cases the model checker's state
//! encoding and the sanitizer's shadow directory both lean on.

use csim_coherence::{Directory, NodeId, NodeSet};
use csim_trace::SimRng;

const ROUNDS: usize = 2_000;

/// A random set plus the reference `Vec<bool>` membership model it must
/// agree with.
fn random_set(rng: &mut SimRng) -> (NodeSet, [bool; 64]) {
    let mut set = NodeSet::empty();
    let mut model = [false; 64];
    for _ in 0..rng.gen_range(0..16) {
        let n = rng.gen_range(0..64) as NodeId;
        if rng.gen_range(0..4) == 0 {
            set.remove(n);
            model[n as usize] = false;
        } else {
            set.insert(n);
            model[n as usize] = true;
        }
    }
    (set, model)
}

#[test]
fn membership_agrees_with_a_boolean_model() {
    let mut rng = SimRng::seed_from_u64(0x5E7);
    for _ in 0..ROUNDS {
        let (set, model) = random_set(&mut rng);
        let expected_len = model.iter().filter(|&&b| b).count() as u32;
        assert_eq!(set.len(), expected_len);
        assert_eq!(set.is_empty(), expected_len == 0);
        for n in 0..64u8 {
            assert_eq!(set.contains(n), model[n as usize], "node {n} of {set:?}");
        }
    }
}

#[test]
fn insert_and_remove_are_idempotent() {
    let mut rng = SimRng::seed_from_u64(0x1DEA);
    for _ in 0..ROUNDS {
        let (mut set, _) = random_set(&mut rng);
        let n = rng.gen_range(0..64) as NodeId;
        set.insert(n);
        let once = set;
        set.insert(n);
        assert_eq!(set, once, "double insert of {n}");
        set.remove(n);
        let removed = set;
        set.remove(n);
        assert_eq!(set, removed, "double remove of {n}");
        assert!(!set.contains(n));
    }
}

#[test]
fn without_equals_remove_and_leaves_the_original_untouched() {
    let mut rng = SimRng::seed_from_u64(0xA11);
    for _ in 0..ROUNDS {
        let (set, _) = random_set(&mut rng);
        let n = rng.gen_range(0..64) as NodeId;
        let before = set;
        let mut removed = set;
        removed.remove(n);
        assert_eq!(set.without(n), removed);
        assert_eq!(set, before, "without() must not mutate its receiver");
    }
}

#[test]
fn iteration_is_ascending_and_complete() {
    let mut rng = SimRng::seed_from_u64(0x17E8);
    for _ in 0..ROUNDS {
        let (set, model) = random_set(&mut rng);
        let seen: Vec<NodeId> = set.iter().collect();
        let expected: Vec<NodeId> = (0..64u8).filter(|&n| model[n as usize]).collect();
        assert_eq!(seen, expected, "iter() must yield every member exactly once, ascending");
    }
}

#[test]
fn bits_round_trip_through_from_bits() {
    let mut rng = SimRng::seed_from_u64(0xB17);
    for _ in 0..ROUNDS {
        let (set, _) = random_set(&mut rng);
        assert_eq!(NodeSet::from_bits(set.bits()), set);
    }
    assert_eq!(NodeSet::empty().bits(), 0);
    assert_eq!(NodeSet::from_bits(0), NodeSet::empty());
}

#[test]
fn collect_from_iterator_matches_manual_insertion() {
    let nodes = [3u8, 60, 0, 17, 3];
    let collected: NodeSet = nodes.into_iter().collect();
    let mut manual = NodeSet::empty();
    for n in nodes {
        manual.insert(n);
    }
    assert_eq!(collected, manual);
    assert_eq!(collected.len(), 4, "duplicate inserts collapse");
}

/// `Directory::iter` and `Directory::tracked_lines` are the sanitizer's
/// audit surface: they must agree with each other and with per-line
/// `state()` lookups after an arbitrary protocol history.
#[test]
fn directory_iteration_matches_point_lookups() {
    let mut rng = SimRng::seed_from_u64(0xD17);
    for _ in 0..200 {
        let mut dir = Directory::new(4, 64, 8192);
        for _ in 0..64 {
            let line = rng.gen_range(0..12);
            let node = rng.gen_range(0..4) as NodeId;
            // A requester never consults the directory for a line it
            // already owns — mirror the simulator's contract.
            let owns = matches!(dir.state(line),
                csim_coherence::LineState::Modified { owner, .. } if owner == node);
            match rng.gen_range(0..5) {
                0 if !owns => {
                    let _ = dir.read_miss(line, node);
                }
                1 if !owns => {
                    let _ = dir.write_miss(line, node);
                }
                2 => {
                    let _ = dir.writeback(line, node);
                }
                3 => {
                    let _ = dir.drop_sharer(line, node);
                }
                _ => {
                    if rng.gen_range(0..2) == 0 {
                        let _ = dir.owner_moved_to_rac(line, node);
                    } else {
                        let _ = dir.owner_refetched_from_rac(line, node);
                    }
                }
            }
        }
        assert_eq!(dir.iter().count(), dir.tracked_lines());
        let mut prev = None;
        for (line, state) in dir.iter() {
            assert!(prev.is_none_or(|p| p < line), "iter() must ascend: {prev:?} then {line}");
            prev = Some(line);
            assert_eq!(dir.state(line), state, "iter() disagrees with state({line})");
        }
    }
}
