//! The protocol invariants checked on every reached state.
//!
//! These are the properties the paper's memory system silently relies
//! on: a full-map invalidation directory only produces correct 2-hop and
//! 3-hop latencies if ownership is unique, the sharer vector never
//! under-approximates the true holders, and dirty data is never dropped
//! on the floor. Each invariant is checked as a total predicate over a
//! [`ModelState`]; the same predicates back the runtime sanitizer's full
//! cross-check.

#![allow(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "tooling: indexes the bounded model of the csim-check model checker, outside the simulator"
)]

use std::fmt;

use csim_coherence::LineState;

use crate::model::{CacheState, CheckConfig, ModelState};

/// The safety properties the checker enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Single-writer/multiple-reader: at most one node holds a dirty
    /// copy of a line, and never concurrently with read-only copies.
    Swmr,
    /// Directory/cache agreement: the directory's record of a line is
    /// consistent with what the caches actually hold (the sharer vector
    /// may over-approximate after silent drops, never under-approximate).
    Agreement,
    /// No lost writeback: whenever the directory believes a node owns
    /// dirty data, that node really holds it (in L2 or RAC, matching the
    /// directory's residence bit).
    LostWriteback,
    /// Retry termination: every in-flight request stays within its NACK
    /// budget and is always serviceable, so retry chains cannot livelock.
    RetryTermination,
    /// Conformance of the real `Directory` to the executable spec: every
    /// transition must produce the predicted successor and outcome.
    SpecConformance,
    /// States no legal transition sequence reaches (e.g. `Shared` with
    /// an empty sharer vector).
    DeadState,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::Swmr => "single-writer/multiple-reader",
            Invariant::Agreement => "directory/cache agreement",
            Invariant::LostWriteback => "no lost writeback",
            Invariant::RetryTermination => "retry termination",
            Invariant::SpecConformance => "spec conformance",
            Invariant::DeadState => "no dead states",
        };
        f.write_str(name)
    }
}

/// One invariant failure, with the evidence that makes it readable
/// without re-running the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The property that failed.
    pub invariant: Invariant,
    /// Human-readable evidence (states, nodes, lines involved).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.invariant, self.detail)
    }
}

/// Checks every state invariant; the first failure wins (checks run in
/// a fixed order, so the reported violation is deterministic).
pub fn check_state(config: &CheckConfig, state: &ModelState) -> Result<(), Violation> {
    for line in 0..config.lines {
        check_line(config, state, line)?;
    }
    for (node, p) in state.pending.iter().enumerate() {
        if let Some(p) = p {
            if p.nacks_left > config.max_nacks {
                return Err(Violation {
                    invariant: Invariant::RetryTermination,
                    detail: format!(
                        "node {node} has {} NACK credits left, above the budget of {}",
                        p.nacks_left, config.max_nacks
                    ),
                });
            }
            if p.line >= config.lines {
                return Err(Violation {
                    invariant: Invariant::DeadState,
                    detail: format!(
                        "node {node} has a pending request for nonexistent line {}",
                        p.line
                    ),
                });
            }
        }
    }
    Ok(())
}

fn check_line(config: &CheckConfig, state: &ModelState, line: u8) -> Result<(), Violation> {
    let holders: Vec<(u8, CacheState)> = (0..config.nodes)
        .map(|n| (n, state.cache_of(config, n, line)))
        .filter(|(_, c)| *c != CacheState::Invalid)
        .collect();
    let dirty: Vec<u8> = holders.iter().filter(|(_, c)| c.is_modified()).map(|(n, _)| *n).collect();

    // SWMR is directory-independent: it must hold over the caches alone.
    if dirty.len() > 1 {
        return Err(Violation {
            invariant: Invariant::Swmr,
            detail: format!(
                "line {line} is dirty in {} caches at once: nodes {dirty:?}",
                dirty.len()
            ),
        });
    }
    if let Some(&owner) = dirty.first() {
        let readers: Vec<u8> = holders
            .iter()
            .filter(|(n, c)| *c == CacheState::Shared && *n != owner)
            .map(|(n, _)| *n)
            .collect();
        if !readers.is_empty() {
            return Err(Violation {
                invariant: Invariant::Swmr,
                detail: format!(
                    "line {line} is dirty in node {owner} while nodes {readers:?} hold read-only copies"
                ),
            });
        }
    }

    match state.dir[line as usize] {
        LineState::Uncached => {
            if let Some((n, c)) = holders.first() {
                return Err(Violation {
                    invariant: Invariant::Agreement,
                    detail: format!(
                        "directory says line {line} is Uncached but node {n} holds it as {c:?}"
                    ),
                });
            }
        }
        LineState::Shared(sharers) => {
            if sharers.is_empty() {
                return Err(Violation {
                    invariant: Invariant::DeadState,
                    detail: format!("line {line} is Shared with an empty sharer vector"),
                });
            }
            if let Some(bad) = sharers.iter().find(|&n| n >= config.nodes) {
                return Err(Violation {
                    invariant: Invariant::DeadState,
                    detail: format!("line {line} records nonexistent sharer node {bad}"),
                });
            }
            for (n, c) in &holders {
                if c.is_modified() {
                    return Err(Violation {
                        invariant: Invariant::Agreement,
                        detail: format!(
                            "directory says line {line} is Shared but node {n} holds it dirty ({c:?})"
                        ),
                    });
                }
                // The sharer vector may keep stale bits after silent
                // drops, but a real holder must always be recorded.
                if !sharers.contains(*n) {
                    return Err(Violation {
                        invariant: Invariant::Agreement,
                        detail: format!(
                            "node {n} holds a Shared copy of line {line} but is missing from the \
                             sharer vector {sharers:?}"
                        ),
                    });
                }
            }
        }
        LineState::Modified { owner, in_rac } => {
            if owner >= config.nodes {
                return Err(Violation {
                    invariant: Invariant::DeadState,
                    detail: format!("line {line} records nonexistent owner node {owner}"),
                });
            }
            let expected = if in_rac { CacheState::ModifiedRac } else { CacheState::ModifiedL2 };
            let actual = state.cache_of(config, owner, line);
            if !actual.is_modified() {
                return Err(Violation {
                    invariant: Invariant::LostWriteback,
                    detail: format!(
                        "directory says node {owner} owns dirty line {line} but its cache is \
                         {actual:?} — the only copy of the data has been lost"
                    ),
                });
            }
            if actual != expected {
                return Err(Violation {
                    invariant: Invariant::Agreement,
                    detail: format!(
                        "directory says line {line}'s dirty copy is in the owner's {}, but node \
                         {owner} holds it as {actual:?}",
                        if in_rac { "RAC" } else { "L2" }
                    ),
                });
            }
            if let Some((n, c)) = holders.iter().find(|(n, _)| *n != owner) {
                return Err(Violation {
                    invariant: Invariant::Agreement,
                    detail: format!(
                        "line {line} is Modified by node {owner} but node {n} also holds it as {c:?}"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelState;
    use csim_coherence::NodeSet;

    fn cfg() -> CheckConfig {
        CheckConfig { nodes: 3, lines: 2, rac: true, max_nacks: 1, max_states: 1000 }
    }

    fn set(state: &mut ModelState, config: &CheckConfig, node: u8, line: u8, c: CacheState) {
        state.cache[node as usize * config.lines as usize + line as usize] = c;
    }

    #[test]
    fn initial_state_is_clean() {
        let config = cfg();
        assert_eq!(check_state(&config, &ModelState::initial(&config)), Ok(()));
    }

    #[test]
    fn two_dirty_copies_violate_swmr() {
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.dir[0] = LineState::Modified { owner: 0, in_rac: false };
        set(&mut s, &config, 0, 0, CacheState::ModifiedL2);
        set(&mut s, &config, 2, 0, CacheState::ModifiedRac);
        let v = check_state(&config, &s).unwrap_err();
        assert_eq!(v.invariant, Invariant::Swmr);
        assert!(v.detail.contains("nodes [0, 2]"), "{}", v.detail);
    }

    #[test]
    fn unrecorded_holder_violates_agreement() {
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.dir[1] = LineState::Shared(NodeSet::single(0));
        set(&mut s, &config, 0, 1, CacheState::Shared);
        set(&mut s, &config, 1, 1, CacheState::Shared); // node 1 not in vector
        let v = check_state(&config, &s).unwrap_err();
        assert_eq!(v.invariant, Invariant::Agreement);
    }

    #[test]
    fn stale_presence_bits_are_legal() {
        // After a silent drop the vector over-approximates: that is fine.
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.dir[0] = LineState::Shared([0u8, 1].into_iter().collect());
        set(&mut s, &config, 0, 0, CacheState::Shared); // node 1 dropped silently
        assert_eq!(check_state(&config, &s), Ok(()));
    }

    #[test]
    fn vanished_owner_is_a_lost_writeback() {
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.dir[0] = LineState::Modified { owner: 1, in_rac: false };
        let v = check_state(&config, &s).unwrap_err();
        assert_eq!(v.invariant, Invariant::LostWriteback);
        assert!(v.detail.contains("lost"), "{}", v.detail);
    }

    #[test]
    fn rac_residence_mismatch_is_disagreement() {
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.dir[0] = LineState::Modified { owner: 1, in_rac: true };
        set(&mut s, &config, 1, 0, CacheState::ModifiedL2);
        let v = check_state(&config, &s).unwrap_err();
        assert_eq!(v.invariant, Invariant::Agreement);
    }

    #[test]
    fn empty_sharer_vector_is_a_dead_state() {
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.dir[0] = LineState::Shared(NodeSet::empty());
        let v = check_state(&config, &s).unwrap_err();
        assert_eq!(v.invariant, Invariant::DeadState);
    }

    #[test]
    fn nack_budget_overrun_breaks_retry_termination() {
        let config = cfg();
        let mut s = ModelState::initial(&config);
        s.pending[2] = Some(crate::model::Pending { line: 0, write: false, nacks_left: 5 });
        let v = check_state(&config, &s).unwrap_err();
        assert_eq!(v.invariant, Invariant::RetryTermination);
    }
}
