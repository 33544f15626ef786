//! Breadth-first exhaustive exploration of the bounded model.
//!
//! BFS (rather than DFS) so that the first violation found is at minimal
//! depth — the counterexample trace is the *shortest* sequence of
//! protocol events that breaks the invariant, which is what makes it
//! readable. The visited set is keyed by the compact
//! [`encode`] form; only keys, parent indices and
//! the arriving action are stored, so the frontier stays small and the
//! trace is rebuilt by walking parent pointers.
//!
//! Everything here is deterministic: action enumeration order is fixed,
//! the queue is FIFO, and no hash-map iteration order ever influences
//! results — identical runs produce identical reports and replay seeds.

#![allow(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "tooling: the state-space search runs only in the csim-check model checker, outside the simulator"
)]

use std::collections::VecDeque;
use std::fmt;

use crate::invariants::{check_state, Violation};
use crate::model::{apply, decode, enabled_actions, encode, Action, CheckConfig, ModelState};

/// A violation plus the evidence to understand and reproduce it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// What failed.
    pub violation: Violation,
    /// The minimal event trace from the reset state: each step is the
    /// action taken and a summary of the state it produced.
    pub steps: Vec<(Action, String)>,
    /// Hex-encoded action sequence; feed to [`replay`] (or
    /// `csim-check --replay`) to re-execute the exact failing run.
    pub replay_seed: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.violation)?;
        writeln!(f, "minimal trace ({} steps from reset):", self.steps.len())?;
        for (i, (action, state)) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>3}. {action}", i + 1)?;
            writeln!(f, "       => {state}")?;
        }
        write!(f, "replay seed: {}", self.replay_seed)
    }
}

/// The result of one exploration (or replay).
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The bounds explored.
    pub config: CheckConfig,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions executed (spec + real directory, each cross-checked).
    pub transitions: u64,
    /// Depth of the deepest state reached (BFS level).
    pub max_depth: usize,
    /// Whether exploration stopped at `max_states` before exhausting the
    /// space. A truncated clean run is *not* a proof.
    pub truncated: bool,
    /// The first (minimal-depth) violation, if any.
    pub violation: Option<Counterexample>,
}

impl CheckReport {
    /// True when the whole bounded space was explored and no invariant
    /// failed.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} lines, rac={}, nack budget {}: {} states, {} transitions, depth {}",
            self.config.nodes,
            self.config.lines,
            self.config.rac,
            self.config.max_nacks,
            self.states,
            self.transitions,
            self.max_depth
        )?;
        if self.truncated {
            write!(f, " (TRUNCATED at {} states)", self.config.max_states)?;
        }
        match &self.violation {
            None => write!(f, " — no violations"),
            Some(cex) => write!(f, "\nVIOLATION: {cex}"),
        }
    }
}

struct Vertex {
    key: u128,
    /// Index of the predecessor in the vertex arena (self-index for the
    /// root, which carries no arriving action).
    parent: usize,
    action: Option<Action>,
    depth: usize,
}

/// Exhaustively explores the reachable state space of `config`.
///
/// Every transition is executed against both the spec and a real
/// [`Directory`](csim_coherence::Directory); every reached state is
/// checked against the full invariant set. Stops at the first violation
/// (minimal depth by BFS) or when the space — or the `max_states`
/// budget — is exhausted.
pub fn explore(config: &CheckConfig) -> Result<CheckReport, String> {
    config.validate()?;
    let initial = ModelState::initial(config);
    let mut vertices =
        vec![Vertex { key: encode(config, &initial), parent: 0, action: None, depth: 0 }];
    #[expect(
        clippy::disallowed_types,
        reason = "looked up by state key only, never iterated, so hash order reaches no report"
    )]
    let mut visited = std::collections::HashMap::<u128, usize>::new();
    visited.insert(vertices[0].key, 0);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut transitions = 0u64;
    let mut max_depth = 0usize;
    let mut truncated = false;

    if let Err(violation) = check_state(config, &initial) {
        return Ok(CheckReport {
            config: *config,
            states: 1,
            transitions: 0,
            max_depth: 0,
            truncated: false,
            violation: Some(build_counterexample(config, &vertices, 0, None, violation)),
        });
    }

    while let Some(idx) = queue.pop_front() {
        let state = decode(config, vertices[idx].key);
        let depth = vertices[idx].depth;
        for action in enabled_actions(config, &state) {
            transitions += 1;
            let next = match apply(config, &state, action) {
                Ok(next) => next,
                Err(violation) => {
                    return Ok(CheckReport {
                        config: *config,
                        states: vertices.len(),
                        transitions,
                        max_depth,
                        truncated,
                        violation: Some(build_counterexample(
                            config,
                            &vertices,
                            idx,
                            Some(action),
                            violation,
                        )),
                    });
                }
            };
            let key = encode(config, &next);
            if visited.contains_key(&key) {
                continue;
            }
            let new_idx = vertices.len();
            visited.insert(key, new_idx);
            vertices.push(Vertex { key, parent: idx, action: Some(action), depth: depth + 1 });
            max_depth = max_depth.max(depth + 1);
            if let Err(violation) = check_state(config, &next) {
                return Ok(CheckReport {
                    config: *config,
                    states: vertices.len(),
                    transitions,
                    max_depth,
                    truncated,
                    violation: Some(build_counterexample(
                        config, &vertices, new_idx, None, violation,
                    )),
                });
            }
            queue.push_back(new_idx);
        }
        if vertices.len() >= config.max_states {
            truncated = true;
            break;
        }
    }

    Ok(CheckReport {
        config: *config,
        states: vertices.len(),
        transitions,
        max_depth,
        truncated,
        violation: None,
    })
}

/// Rebuilds the minimal action trace to `idx` (plus the optional final
/// action that itself failed), re-executes it from the reset state to
/// produce readable per-step summaries, and encodes the replay seed.
fn build_counterexample(
    config: &CheckConfig,
    vertices: &[Vertex],
    idx: usize,
    final_action: Option<Action>,
    violation: Violation,
) -> Counterexample {
    let mut actions = Vec::new();
    let mut at = idx;
    while let Some(action) = vertices[at].action {
        actions.push(action);
        at = vertices[at].parent;
    }
    actions.reverse();
    if let Some(action) = final_action {
        actions.push(action);
    }

    let mut steps = Vec::with_capacity(actions.len());
    let mut state = ModelState::initial(config);
    for action in &actions {
        match apply(config, &state, *action) {
            Ok(next) => {
                steps.push((*action, next.summarize(config)));
                state = next;
            }
            Err(v) => {
                steps.push((*action, format!("<transition itself failed: {v}>")));
                break;
            }
        }
    }

    let mut replay_seed = String::with_capacity(actions.len() * 4);
    for action in &actions {
        for byte in action.encode() {
            use fmt::Write as _;
            let _ = write!(replay_seed, "{byte:02x}");
        }
    }
    Counterexample { violation, steps, replay_seed }
}

/// Decodes a replay seed produced by a previous run.
///
/// # Errors
///
/// A description of the malformed hex or unknown opcode.
pub fn decode_seed(seed: &str) -> Result<Vec<Action>, String> {
    let seed = seed.trim();
    if !seed.len().is_multiple_of(4) {
        return Err(format!("replay seed length {} is not a multiple of 4 hex digits", seed.len()));
    }
    let byte_at = |i: usize| -> Result<u8, String> {
        u8::from_str_radix(&seed[i..i + 2], 16).map_err(|e| format!("bad hex at offset {i}: {e}"))
    };
    let mut actions = Vec::with_capacity(seed.len() / 4);
    for i in (0..seed.len()).step_by(4) {
        let bytes = [byte_at(i)?, byte_at(i + 2)?];
        let action = Action::decode(bytes)
            .ok_or_else(|| format!("unknown action opcode {:#x} at offset {i}", bytes[0]))?;
        actions.push(action);
    }
    Ok(actions)
}

/// Re-executes a replay seed step by step, checking invariants after
/// every action, and returns the trace. Used by `csim-check --replay`
/// to reproduce a counterexample deterministically.
///
/// # Errors
///
/// A description of a malformed seed or an action that is not enabled
/// in the state it is applied to.
pub fn replay(config: &CheckConfig, seed: &str) -> Result<Counterexample, String> {
    config.validate()?;
    let actions = decode_seed(seed)?;
    let mut state = ModelState::initial(config);
    let mut steps = Vec::with_capacity(actions.len());
    let mut violation = None;
    for (i, action) in actions.iter().enumerate() {
        if !enabled_actions(config, &state).contains(action) {
            return Err(format!(
                "step {}: `{action}` is not enabled in state `{}` — wrong config for this seed?",
                i + 1,
                state.summarize(config)
            ));
        }
        match apply(config, &state, *action) {
            Ok(next) => {
                steps.push((*action, next.summarize(config)));
                if let Err(v) = check_state(config, &next) {
                    violation = Some(v);
                    break;
                }
                state = next;
            }
            Err(v) => {
                steps.push((*action, format!("<transition itself failed: {v}>")));
                violation = Some(v);
                break;
            }
        }
    }
    let violation = violation.unwrap_or(Violation {
        invariant: crate::invariants::Invariant::SpecConformance,
        detail: "replay completed without reproducing a violation".to_string(),
    });
    Ok(Counterexample { violation, steps, replay_seed: seed.trim().to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::Invariant;

    #[test]
    fn smallest_config_verifies_clean() {
        let report = explore(&CheckConfig::small()).expect("valid config");
        assert!(report.verified(), "{report}");
        assert!(report.states > 10, "2n/1l must still have a real state space");
        assert!(report.max_depth >= 3);
    }

    #[test]
    fn nack_free_config_shrinks_the_space() {
        let with = explore(&CheckConfig { max_nacks: 1, ..CheckConfig::small() }).unwrap();
        let without = explore(&CheckConfig { max_nacks: 0, ..CheckConfig::small() }).unwrap();
        assert!(without.verified() && with.verified());
        assert!(
            without.states < with.states,
            "NACK credits add states: {} !< {}",
            without.states,
            with.states
        );
    }

    #[test]
    fn truncation_is_reported_not_hidden() {
        let report =
            explore(&CheckConfig { max_states: 5, ..CheckConfig::small() }).expect("valid config");
        assert!(report.truncated);
        assert!(!report.verified(), "a truncated run must not claim verification");
        assert!(report.to_string().contains("TRUNCATED"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(explore(&CheckConfig { nodes: 9, ..CheckConfig::small() }).is_err());
        assert!(explore(&CheckConfig { lines: 0, ..CheckConfig::small() }).is_err());
        assert!(explore(&CheckConfig { max_nacks: 99, ..CheckConfig::small() }).is_err());
    }

    #[test]
    fn replay_round_trips_an_action_sequence() {
        // Hand-build a short legal run: node 0 write-misses line 0,
        // gets NACKed once, is serviced, then writes back.
        let config = CheckConfig::small();
        let actions = [
            crate::model::Action::Issue { node: 0, line: 0, write: true },
            crate::model::Action::Nack { node: 0 },
            crate::model::Action::Service { node: 0 },
            crate::model::Action::Writeback { node: 0, line: 0 },
        ];
        let seed: String =
            actions.iter().flat_map(|a| a.encode()).map(|b| format!("{b:02x}")).collect();
        let cex = replay(&config, &seed).expect("legal sequence replays");
        assert_eq!(cex.steps.len(), 4);
        assert!(cex.violation.detail.contains("without reproducing"));
        assert_eq!(decode_seed(&seed).unwrap().len(), 4);
    }

    #[test]
    fn replay_rejects_garbage_seeds() {
        let config = CheckConfig::small();
        assert!(replay(&config, "zz").is_err());
        assert!(replay(&config, "abc").is_err(), "odd length");
        // Opcode 9 does not exist.
        assert!(replay(&config, "0900").is_err());
        // A service with nothing pending is not enabled.
        let seed: String = crate::model::Action::Service { node: 0 }
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let err = replay(&config, &seed).unwrap_err();
        assert!(err.contains("not enabled"), "{err}");
    }

    #[test]
    fn seeded_violations_are_caught_with_a_trace() {
        // Force a broken state through the model by checking it directly:
        // the explorer itself never reaches one (that is the theorem), so
        // we validate the counterexample plumbing on a hand-made vertex
        // arena instead.
        let config = CheckConfig::small();
        let initial = ModelState::initial(&config);
        let issued = apply(&config, &initial, Action::Issue { node: 1, line: 0, write: true })
            .expect("issue is legal");
        let vertices = vec![
            Vertex { key: encode(&config, &initial), parent: 0, action: None, depth: 0 },
            Vertex {
                key: encode(&config, &issued),
                parent: 0,
                action: Some(Action::Issue { node: 1, line: 0, write: true }),
                depth: 1,
            },
        ];
        let violation = Violation {
            invariant: Invariant::Swmr,
            detail: "synthetic violation for trace-plumbing test".to_string(),
        };
        let cex = build_counterexample(&config, &vertices, 1, None, violation);
        assert_eq!(cex.steps.len(), 1);
        assert!(!cex.replay_seed.is_empty());
        let rendered = cex.to_string();
        assert!(rendered.contains("minimal trace"));
        assert!(rendered.contains("replay seed"));
        // The seed replays to the same step count.
        let replayed = replay(&config, &cex.replay_seed).unwrap();
        assert_eq!(replayed.steps.len(), 1);
    }
}
