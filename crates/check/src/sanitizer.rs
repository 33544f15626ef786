//! The runtime coherence sanitizer.
//!
//! While the model checker proves the protocol correct for *bounded*
//! machines, the sanitizer carries the same invariants into full-scale
//! simulation: it keeps an independent shadow copy of every line's
//! directory state, and after every live directory transition it checks
//! the real directory's new state *and* the reported outcome against the
//! executable spec in [`crate::spec`], applied to the shadow.
//!
//! The sanitizer is deliberately passive: hooks never mutate the
//! simulation, never allocate per call on the happy path beyond the
//! shadow map itself, and the first divergence is latched
//! ([`Sanitizer::first_divergence`]) rather than panicking, so the
//! simulator can surface it as a typed error at a clean boundary. Once a
//! divergence is latched, later hooks become no-ops — the shadow can no
//! longer be trusted to produce meaningful follow-on reports.
//!
//! Zero-overhead contract: the simulator holds an
//! `Option<Box<Sanitizer>>`; when it is `None` the only cost is one
//! pointer test per transition, and every report is bit-identical to a
//! build without the sanitizer compiled in at all.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use csim_coherence::{Directory, LineState, NodeId, ProtocolError, ReadOutcome, WriteOutcome};

use crate::spec;

/// A divergence between the live directory and the shadow/spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanitizerError {
    /// The transition being checked (`"read_miss"`, `"writeback"`, ...).
    pub op: &'static str,
    /// The line involved.
    pub line: u64,
    /// What disagreed, with both sides' values.
    pub detail: String,
}

impl fmt::Display for SanitizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sanitizer: {} on line {:#x}: {}", self.op, self.line, self.detail)
    }
}

impl std::error::Error for SanitizerError {}

/// The shadow directory and its latched verdict.
#[derive(Debug, Default)]
pub struct Sanitizer {
    /// Independent record of every line's state (`BTreeMap`, so any
    /// future iteration is deterministic by construction).
    shadow: BTreeMap<u64, LineState>,
    /// Lines ever referenced, for cross-checking cold-miss flags.
    seen: BTreeSet<u64>,
    checks: u64,
    failed: Option<SanitizerError>,
}

impl Sanitizer {
    /// A fresh sanitizer with an empty shadow. Wire it in *before* the
    /// first reference is simulated — it can only vouch for transitions
    /// it has observed from the beginning.
    pub fn new() -> Self {
        Sanitizer::default()
    }

    /// Number of transitions cross-checked so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The first divergence found, if any. Latched: once set, subsequent
    /// hooks do nothing.
    pub fn first_divergence(&self) -> Option<&SanitizerError> {
        self.failed.as_ref()
    }

    fn shadow_state(&self, line: u64) -> LineState {
        self.shadow.get(&line).copied().unwrap_or(LineState::Uncached)
    }

    fn fail(&mut self, op: &'static str, line: u64, detail: String) {
        if self.failed.is_none() {
            self.failed = Some(SanitizerError { op, line, detail });
        }
    }

    /// Cross-checks a completed [`Directory::read_miss`].
    pub fn on_read_miss(
        &mut self,
        dir: &Directory,
        line: u64,
        requester: NodeId,
        out: &ReadOutcome,
    ) {
        if self.failed.is_some() {
            return;
        }
        self.checks += 1;
        let pre = self.shadow_state(line);
        let want = match spec::read_transition(pre, requester) {
            Ok(want) => want,
            Err(r) => {
                self.fail(
                    "read_miss",
                    line,
                    format!("simulator consulted the directory for a line the requester owns ({r:?}, shadow {pre:?})"),
                );
                return;
            }
        };
        if out.source != want.source {
            self.fail(
                "read_miss",
                line,
                format!(
                    "fill source {:?}, spec requires {:?} (shadow {pre:?})",
                    out.source, want.source
                ),
            );
        } else if out.downgraded_owner != want.downgraded_owner {
            self.fail(
                "read_miss",
                line,
                format!(
                    "downgraded owner {:?}, spec requires {:?} (shadow {pre:?})",
                    out.downgraded_owner, want.downgraded_owner
                ),
            );
        } else if out.home != dir.home(line) {
            self.fail(
                "read_miss",
                line,
                format!(
                    "reported home {} but the directory maps it to {}",
                    out.home,
                    dir.home(line)
                ),
            );
        } else if dir.state(line) != want.next {
            self.fail(
                "read_miss",
                line,
                format!(
                    "directory moved to {:?}, spec requires {:?} (shadow {pre:?})",
                    dir.state(line),
                    want.next
                ),
            );
        } else if out.cold == self.seen.contains(&line) {
            self.fail(
                "read_miss",
                line,
                format!("cold flag {} disagrees with the shadow's reference history", out.cold),
            );
        }
        if self.failed.is_some() {
            return;
        }
        self.seen.insert(line);
        self.shadow.insert(line, want.next);
    }

    /// Cross-checks a completed [`Directory::write_miss`].
    pub fn on_write_miss(
        &mut self,
        dir: &Directory,
        line: u64,
        requester: NodeId,
        out: &WriteOutcome,
    ) {
        if self.failed.is_some() {
            return;
        }
        self.checks += 1;
        let pre = self.shadow_state(line);
        let want = match spec::write_transition(pre, requester) {
            Ok(want) => want,
            Err(r) => {
                self.fail(
                    "write_miss",
                    line,
                    format!("simulator consulted the directory for a line the requester owns ({r:?}, shadow {pre:?})"),
                );
                return;
            }
        };
        if out.source != want.source {
            self.fail(
                "write_miss",
                line,
                format!(
                    "fill source {:?}, spec requires {:?} (shadow {pre:?})",
                    out.source, want.source
                ),
            );
        } else if out.invalidate != want.invalidate {
            self.fail(
                "write_miss",
                line,
                format!(
                    "invalidation set {:?}, spec requires {:?} (shadow {pre:?})",
                    out.invalidate, want.invalidate
                ),
            );
        } else if out.previous_owner != want.previous_owner {
            self.fail(
                "write_miss",
                line,
                format!(
                    "previous owner {:?}, spec requires {:?} (shadow {pre:?})",
                    out.previous_owner, want.previous_owner
                ),
            );
        } else if out.upgrade != want.upgrade {
            self.fail(
                "write_miss",
                line,
                format!(
                    "upgrade flag {}, spec requires {} (shadow {pre:?})",
                    out.upgrade, want.upgrade
                ),
            );
        } else if out.home != dir.home(line) {
            self.fail(
                "write_miss",
                line,
                format!(
                    "reported home {} but the directory maps it to {}",
                    out.home,
                    dir.home(line)
                ),
            );
        } else if dir.state(line) != want.next {
            self.fail(
                "write_miss",
                line,
                format!(
                    "directory moved to {:?}, spec requires {:?} (shadow {pre:?})",
                    dir.state(line),
                    want.next
                ),
            );
        } else if out.cold == self.seen.contains(&line) {
            self.fail(
                "write_miss",
                line,
                format!("cold flag {} disagrees with the shadow's reference history", out.cold),
            );
        }
        if self.failed.is_some() {
            return;
        }
        self.seen.insert(line);
        self.shadow.insert(line, want.next);
    }

    /// Cross-checks a completed [`Directory::writeback`] (accepted or
    /// refused).
    pub fn on_writeback(
        &mut self,
        dir: &Directory,
        line: u64,
        node: NodeId,
        result: Result<(), ProtocolError>,
    ) {
        self.on_owner_transition("writeback", dir, line, node, result, |pre| {
            spec::writeback_transition(pre, node)
        });
    }

    /// Cross-checks a completed [`Directory::owner_moved_to_rac`].
    pub fn on_rac_park(
        &mut self,
        dir: &Directory,
        line: u64,
        node: NodeId,
        result: Result<(), ProtocolError>,
    ) {
        self.on_owner_transition("owner_moved_to_rac", dir, line, node, result, |pre| {
            spec::rac_transition(pre, node, true)
        });
    }

    /// Cross-checks a completed [`Directory::owner_refetched_from_rac`].
    pub fn on_rac_refetch(
        &mut self,
        dir: &Directory,
        line: u64,
        node: NodeId,
        result: Result<(), ProtocolError>,
    ) {
        self.on_owner_transition("owner_refetched_from_rac", dir, line, node, result, |pre| {
            spec::rac_transition(pre, node, false)
        });
    }

    fn on_owner_transition(
        &mut self,
        op: &'static str,
        dir: &Directory,
        line: u64,
        node: NodeId,
        result: Result<(), ProtocolError>,
        predict: impl FnOnce(LineState) -> Result<LineState, spec::SpecRefusal>,
    ) {
        if self.failed.is_some() {
            return;
        }
        self.checks += 1;
        let pre = self.shadow_state(line);
        match (predict(pre), result) {
            (Ok(next), Ok(())) => {
                if dir.state(line) != next {
                    self.fail(
                        op,
                        line,
                        format!(
                            "directory moved to {:?}, spec requires {:?} (shadow {pre:?}, node {node})",
                            dir.state(line),
                            next
                        ),
                    );
                    return;
                }
                self.shadow.insert(line, next);
            }
            (Err(refusal), Err(_)) => {
                // Consistent refusal; the directory must be untouched.
                if dir.state(line) != pre {
                    self.fail(
                        op,
                        line,
                        format!(
                            "refused transition ({refusal:?}) still mutated the line: {:?} -> {:?}",
                            pre,
                            dir.state(line)
                        ),
                    );
                }
            }
            (Ok(next), Err(e)) => self.fail(
                op,
                line,
                format!("directory refused ({e}) a transition the spec allows (node {node}, shadow {pre:?} -> {next:?})"),
            ),
            (Err(refusal), Ok(())) => self.fail(
                op,
                line,
                format!(
                    "directory accepted a transition the spec refuses ({refusal:?}; node {node}, shadow {pre:?})"
                ),
            ),
        }
    }

    /// Cross-checks a completed [`Directory::drop_sharer`].
    pub fn on_drop_sharer(&mut self, dir: &Directory, line: u64, node: NodeId, removed: bool) {
        if self.failed.is_some() {
            return;
        }
        self.checks += 1;
        let pre = self.shadow_state(line);
        let (want_state, want_removed) = spec::drop_transition(pre, node);
        if removed != want_removed {
            self.fail(
                "drop_sharer",
                line,
                format!(
                    "reported removed={removed}, spec requires {want_removed} (node {node}, shadow {pre:?})"
                ),
            );
            return;
        }
        if dir.state(line) != want_state {
            self.fail(
                "drop_sharer",
                line,
                format!(
                    "directory moved to {:?}, spec requires {:?} (shadow {pre:?})",
                    dir.state(line),
                    want_state
                ),
            );
            return;
        }
        if self.shadow.contains_key(&line) {
            self.shadow.insert(line, want_state);
        }
    }

    /// Full-state audit: every line the live directory tracks must match
    /// the shadow, and vice versa. Run at simulation end (and at epoch
    /// boundaries in strict runs) to catch drift the per-transition
    /// checks cannot see — e.g. a transition that mutated an unrelated
    /// line.
    ///
    /// # Errors
    ///
    /// The first latched divergence, or the first line where live and
    /// shadow state differ.
    pub fn verify_shadow(&self, dir: &Directory) -> Result<(), SanitizerError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        for (line, live) in dir.iter() {
            let shadowed = self.shadow_state(line);
            if live != shadowed {
                return Err(SanitizerError {
                    op: "verify_shadow",
                    line,
                    detail: format!("live directory has {live:?}, shadow has {shadowed:?}"),
                });
            }
        }
        for (&line, &shadowed) in &self.shadow {
            if dir.state(line) != shadowed {
                return Err(SanitizerError {
                    op: "verify_shadow",
                    line,
                    detail: format!(
                        "shadow has {shadowed:?}, live directory has {:?}",
                        dir.state(line)
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_coherence::NodeSet;

    fn dir4() -> Directory {
        Directory::new(4, 64, 8192)
    }

    #[test]
    fn clean_protocol_sequence_passes_every_check() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        let r = dir.read_miss(10, 0);
        sz.on_read_miss(&dir, 10, 0, &r);
        let w = dir.write_miss(10, 1);
        sz.on_write_miss(&dir, 10, 1, &w);
        let park = dir.owner_moved_to_rac(10, 1);
        sz.on_rac_park(&dir, 10, 1, park);
        let refetch = dir.owner_refetched_from_rac(10, 1);
        sz.on_rac_refetch(&dir, 10, 1, refetch);
        let wb = dir.writeback(10, 1);
        sz.on_writeback(&dir, 10, 1, wb);
        let r2 = dir.read_miss(10, 2);
        sz.on_read_miss(&dir, 10, 2, &r2);
        assert!(!r2.cold, "tombstone keeps cold tracking");
        let removed = dir.drop_sharer(10, 2);
        sz.on_drop_sharer(&dir, 10, 2, removed);
        assert_eq!(sz.first_divergence(), None);
        assert_eq!(sz.checks(), 7);
        sz.verify_shadow(&dir).expect("shadow agrees");
    }

    #[test]
    fn consistent_refusals_pass() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        let w = dir.write_miss(5, 2);
        sz.on_write_miss(&dir, 5, 2, &w);
        let bad = dir.writeback(5, 0); // not the owner
        sz.on_writeback(&dir, 5, 0, bad);
        assert_eq!(sz.first_divergence(), None, "spec and directory agree it is illegal");
        sz.verify_shadow(&dir).unwrap();
    }

    #[test]
    fn tampering_with_the_directory_is_caught_by_the_next_check() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        let r = dir.read_miss(7, 0);
        sz.on_read_miss(&dir, 7, 0, &r);
        // Simulate a corrupted transition: someone rewrites the line
        // behind the protocol's back.
        dir.seed_state(7, LineState::Modified { owner: 3, in_rac: false }).unwrap();
        let err = sz.verify_shadow(&dir).unwrap_err();
        assert_eq!(err.op, "verify_shadow");
        assert!(err.detail.contains("Modified"), "{}", err.detail);
    }

    #[test]
    fn wrong_outcome_fields_are_caught_at_the_transition() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        let w = dir.write_miss(3, 1);
        sz.on_write_miss(&dir, 3, 1, &w);
        // Hand the sanitizer a doctored outcome for the next read: claim
        // the fill came from home although the spec demands the owner's
        // cache.
        let r = dir.read_miss(3, 2);
        let mut doctored = r;
        doctored.source = csim_coherence::FillSource::Home;
        sz.on_read_miss(&dir, 3, 2, &doctored);
        let err = sz.first_divergence().expect("divergence latched");
        assert_eq!(err.op, "read_miss");
        assert!(err.detail.contains("fill source"), "{}", err.detail);
        // Latched: further checks are no-ops and the error sticks.
        let checks = sz.checks();
        let r2 = dir.read_miss(3, 3);
        sz.on_read_miss(&dir, 3, 3, &r2);
        assert_eq!(sz.checks(), checks);
        assert!(sz.verify_shadow(&dir).is_err());
    }

    #[test]
    fn cold_flag_lies_are_caught() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        let r = dir.read_miss(9, 0);
        let mut doctored = r;
        doctored.cold = false; // first machine-wide reference: must be cold
        sz.on_read_miss(&dir, 9, 0, &doctored);
        let err = sz.first_divergence().expect("divergence latched");
        assert!(err.detail.contains("cold"), "{}", err.detail);
    }

    #[test]
    fn stale_drop_notifications_check_clean() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        let removed = dir.drop_sharer(99, 1); // never tracked
        sz.on_drop_sharer(&dir, 99, 1, removed);
        assert_eq!(sz.first_divergence(), None);
        sz.verify_shadow(&dir).unwrap();
    }

    #[test]
    fn sharer_bookkeeping_tracks_partial_drops() {
        let mut dir = dir4();
        let mut sz = Sanitizer::new();
        for n in 0..3 {
            let r = dir.read_miss(4, n);
            sz.on_read_miss(&dir, 4, n, &r);
        }
        let removed = dir.drop_sharer(4, 1);
        sz.on_drop_sharer(&dir, 4, 1, removed);
        assert_eq!(sz.first_divergence(), None);
        let expected: NodeSet = [0u8, 2].into_iter().collect();
        assert_eq!(dir.state(4), LineState::Shared(expected));
        sz.verify_shadow(&dir).unwrap();
    }
}
