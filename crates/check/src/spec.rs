//! The executable protocol specification.
//!
//! This module is a deliberately independent re-implementation of the
//! directory protocol's transition relation: given a line's current
//! [`LineState`] and a request, it says what the *next* state must be and
//! what the outcome must report. It shares no code with
//! `csim_coherence::Directory` — that is the point. The model checker
//! compares the real directory against this spec over the whole bounded
//! state space, and the runtime sanitizer compares every live transition
//! of a full simulation against it, so a bug has to be made twice, in two
//! different shapes, to go unnoticed.
//!
//! The spec is total: transitions that the protocol must *refuse* are
//! values too ([`SpecRefusal`]), so refusal behavior is checked with the
//! same machinery as acceptance behavior.

use csim_coherence::{FillSource, LineState, NodeId, NodeSet};

/// Why a transition must be refused by a correct directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecRefusal {
    /// A read or write miss by the node the directory already records as
    /// the dirty owner: the simulator must never consult the directory
    /// for a line the requester owns (it would be an L2 hit).
    RequesterOwnsLine,
    /// A writeback / RAC park / RAC refetch by a node that is not the
    /// recorded owner (including lines that are not `Modified` at all).
    NotOwner,
}

/// What a correct directory must do with a read miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecRead {
    /// The line's state after the transition.
    pub next: LineState,
    /// Where the fill data must come from.
    pub source: FillSource,
    /// The former owner that must downgrade, if any.
    pub downgraded_owner: Option<NodeId>,
}

/// What a correct directory must do with a write miss (or upgrade).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecWrite {
    /// The line's state after the transition.
    pub next: LineState,
    /// Where the fill data must come from.
    pub source: FillSource,
    /// Exactly the read-only copies that must be invalidated.
    pub invalidate: NodeSet,
    /// The former dirty owner whose copy supplies the data, if any.
    pub previous_owner: Option<NodeId>,
    /// Whether this is an upgrade (requester already held a shared copy).
    pub upgrade: bool,
}

/// The required behavior of a read miss by `requester` on a line in
/// `state`.
///
/// # Errors
///
/// [`SpecRefusal::RequesterOwnsLine`] when the requester is the recorded
/// dirty owner — a correct simulator never issues that request.
pub fn read_transition(state: LineState, requester: NodeId) -> Result<SpecRead, SpecRefusal> {
    match state {
        LineState::Uncached => Ok(SpecRead {
            next: LineState::Shared(NodeSet::single(requester)),
            source: FillSource::Home,
            downgraded_owner: None,
        }),
        LineState::Shared(sharers) => {
            let mut next = sharers;
            next.insert(requester);
            Ok(SpecRead {
                next: LineState::Shared(next),
                source: FillSource::Home,
                downgraded_owner: None,
            })
        }
        LineState::Modified { owner, .. } if owner == requester => {
            Err(SpecRefusal::RequesterOwnsLine)
        }
        LineState::Modified { owner, in_rac } => {
            let mut next = NodeSet::single(owner);
            next.insert(requester);
            Ok(SpecRead {
                next: LineState::Shared(next),
                source: FillSource::OwnerCache { owner, in_rac },
                downgraded_owner: Some(owner),
            })
        }
    }
}

/// The required behavior of a write miss (or upgrade) by `requester` on a
/// line in `state`.
///
/// # Errors
///
/// [`SpecRefusal::RequesterOwnsLine`] when the requester is already the
/// recorded dirty owner.
pub fn write_transition(state: LineState, requester: NodeId) -> Result<SpecWrite, SpecRefusal> {
    let next = LineState::Modified { owner: requester, in_rac: false };
    match state {
        LineState::Uncached => Ok(SpecWrite {
            next,
            source: FillSource::Home,
            invalidate: NodeSet::empty(),
            previous_owner: None,
            upgrade: false,
        }),
        LineState::Shared(sharers) => Ok(SpecWrite {
            next,
            source: FillSource::Home,
            invalidate: sharers.without(requester),
            previous_owner: None,
            upgrade: sharers.contains(requester),
        }),
        LineState::Modified { owner, .. } if owner == requester => {
            Err(SpecRefusal::RequesterOwnsLine)
        }
        LineState::Modified { owner, in_rac } => Ok(SpecWrite {
            next,
            source: FillSource::OwnerCache { owner, in_rac },
            invalidate: NodeSet::empty(),
            previous_owner: Some(owner),
            upgrade: false,
        }),
    }
}

/// The required behavior of a dirty writeback by `node`: only the
/// recorded owner may return a line to memory, and doing so makes it
/// `Uncached`.
///
/// # Errors
///
/// [`SpecRefusal::NotOwner`] for every other state — a correct directory
/// refuses without mutating anything (the lost-writeback hazard).
pub fn writeback_transition(state: LineState, node: NodeId) -> Result<LineState, SpecRefusal> {
    match state {
        LineState::Modified { owner, .. } if owner == node => Ok(LineState::Uncached),
        _ => Err(SpecRefusal::NotOwner),
    }
}

/// The required behavior of the owner parking its modified copy in its
/// RAC (`to_rac = true`) or pulling it back into its L2 (`to_rac =
/// false`).
///
/// # Errors
///
/// [`SpecRefusal::NotOwner`] when `node` is not the recorded owner.
pub fn rac_transition(
    state: LineState,
    node: NodeId,
    to_rac: bool,
) -> Result<LineState, SpecRefusal> {
    match state {
        LineState::Modified { owner, .. } if owner == node => {
            Ok(LineState::Modified { owner, in_rac: to_rac })
        }
        _ => Err(SpecRefusal::NotOwner),
    }
}

/// The required behavior of a sharer's eviction notification: remove the
/// presence bit; the last sharer returns the line to `Uncached`. Stale
/// notifications (line not `Shared`, or `node` not recorded) change
/// nothing, which the `bool` reports.
pub fn drop_transition(state: LineState, node: NodeId) -> (LineState, bool) {
    match state {
        LineState::Shared(sharers) if sharers.contains(node) => {
            let rest = sharers.without(node);
            if rest.is_empty() {
                (LineState::Uncached, true)
            } else {
                (LineState::Shared(rest), true)
            }
        }
        other => (other, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_spec_covers_all_source_states() {
        let r = read_transition(LineState::Uncached, 2).unwrap();
        assert_eq!(r.source, FillSource::Home);
        assert_eq!(r.next, LineState::Shared(NodeSet::single(2)));

        let sharers: NodeSet = [0u8, 1].into_iter().collect();
        let r = read_transition(LineState::Shared(sharers), 2).unwrap();
        let all: NodeSet = [0u8, 1, 2].into_iter().collect();
        assert_eq!(r.next, LineState::Shared(all));
        assert_eq!(r.downgraded_owner, None);

        let r = read_transition(LineState::Modified { owner: 1, in_rac: true }, 2).unwrap();
        assert_eq!(r.source, FillSource::OwnerCache { owner: 1, in_rac: true });
        assert_eq!(r.downgraded_owner, Some(1));

        assert_eq!(
            read_transition(LineState::Modified { owner: 2, in_rac: false }, 2),
            Err(SpecRefusal::RequesterOwnsLine)
        );
    }

    #[test]
    fn write_spec_invalidates_everyone_but_the_writer() {
        let sharers: NodeSet = [0u8, 1, 2].into_iter().collect();
        let w = write_transition(LineState::Shared(sharers), 1).unwrap();
        assert!(w.upgrade);
        let others: NodeSet = [0u8, 2].into_iter().collect();
        assert_eq!(w.invalidate, others);
        assert_eq!(w.next, LineState::Modified { owner: 1, in_rac: false });

        let w = write_transition(LineState::Modified { owner: 0, in_rac: false }, 1).unwrap();
        assert_eq!(w.previous_owner, Some(0));
        assert!(w.invalidate.is_empty());
    }

    #[test]
    fn ownership_transitions_refuse_non_owners() {
        let m = LineState::Modified { owner: 3, in_rac: false };
        assert_eq!(writeback_transition(m, 3), Ok(LineState::Uncached));
        assert_eq!(writeback_transition(m, 1), Err(SpecRefusal::NotOwner));
        assert_eq!(writeback_transition(LineState::Uncached, 0), Err(SpecRefusal::NotOwner));
        assert_eq!(rac_transition(m, 3, true), Ok(LineState::Modified { owner: 3, in_rac: true }));
        assert_eq!(rac_transition(m, 0, true), Err(SpecRefusal::NotOwner));
    }

    #[test]
    fn drop_spec_handles_last_sharer_and_stale_notifications() {
        let one = LineState::Shared(NodeSet::single(4));
        assert_eq!(drop_transition(one, 4), (LineState::Uncached, true));
        assert_eq!(drop_transition(one, 2), (one, false));
        let m = LineState::Modified { owner: 4, in_rac: false };
        assert_eq!(drop_transition(m, 4), (m, false));
    }
}
