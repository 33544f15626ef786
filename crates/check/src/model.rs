//! The bounded abstract model the checker enumerates.
//!
//! A model state is the directory's view of every line, every node's
//! private cache state for every line, and at most one in-flight request
//! per node (with a bounded NACK/retry budget). That is deliberately
//! coarser than the simulator — no L1/L2 split, no timing, no capacity —
//! because the protocol's correctness argument does not depend on any of
//! those: it depends only on which transitions are taken in which states.
//! `DESIGN.md` §10 records what the abstraction keeps and what it drops.
//!
//! Every transition is executed twice: once against the pure spec in
//! [`crate::spec`], and once against a real [`Directory`] materialized
//! from the pre-state via [`Directory::seed_state`]. Any divergence —
//! in the successor state of *any* line, or in the reported outcome — is
//! a [`Invariant::SpecConformance`](crate::invariants::Invariant)
//! violation with the full evidence in the detail string.

#![allow(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "tooling: the bounded model runs only in the csim-check model checker, outside the simulator"
)]

use std::fmt;

use csim_coherence::{Directory, LineState, NodeId, NodeSet};

use crate::invariants::{Invariant, Violation};
use crate::spec;

/// Geometry the model shares with the simulator: 64-byte lines in
/// 8192-byte pages, so consecutive *model* lines are placed on
/// consecutive pages (and therefore consecutive home nodes) by spacing
/// their addresses one page apart.
pub const LINE_SIZE: u64 = 64;
/// See [`LINE_SIZE`].
pub const PAGE_SIZE: u64 = 8192;
const LINES_PER_PAGE: u64 = PAGE_SIZE / LINE_SIZE;

/// The real line address a model line index stands for. Model line `l`
/// lives on page `l`, so its home node is `l % n_nodes` — every home
/// relationship (local, 2-hop, 3-hop) is reachable with ≥2 lines.
pub fn line_addr(line: u8) -> u64 {
    u64::from(line) * LINES_PER_PAGE
}

/// Bounds of one exhaustive exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Node count (2..=4; the state encoding packs owner ids in 2 bits).
    pub nodes: u8,
    /// Distinct cache lines (1..=4), each on its own page/home.
    pub lines: u8,
    /// Whether RAC park/refetch transitions are part of the model.
    pub rac: bool,
    /// NACK/retry budget per in-flight request (0..=7). Each pending
    /// request can be NACKed at most this many times before it must be
    /// serviced, which is how the model bounds retry loops.
    pub max_nacks: u8,
    /// Exploration cap: the checker stops (and reports `truncated`)
    /// after this many distinct states.
    pub max_states: usize,
}

impl CheckConfig {
    /// The smallest interesting machine: 2 nodes, 1 line, RAC on.
    pub fn small() -> Self {
        CheckConfig { nodes: 2, lines: 1, rac: true, max_nacks: 1, max_states: 4_000_000 }
    }

    /// The CI workhorse: 3 nodes, 2 lines, RAC on — large enough to
    /// exercise 3-hop transfers, cross-line interference, and every
    /// home-distance combination.
    pub fn medium() -> Self {
        CheckConfig { nodes: 3, lines: 2, rac: true, max_nacks: 1, max_states: 4_000_000 }
    }

    /// Validates the bounds the state encoding relies on.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first bound violated.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=4).contains(&self.nodes) {
            return Err(format!("nodes must be 2..=4, got {}", self.nodes));
        }
        if !(1..=4).contains(&self.lines) {
            return Err(format!("lines must be 1..=4, got {}", self.lines));
        }
        if self.max_nacks > 7 {
            return Err(format!("max_nacks must be 0..=7, got {}", self.max_nacks));
        }
        if self.max_states == 0 {
            return Err("max_states must be positive".to_string());
        }
        Ok(())
    }
}

/// A node's private view of one line. There is deliberately no L1/L2
/// distinction: L1⊆L2 inclusion is a cache-hierarchy property, not a
/// directory-protocol property, and is checked at runtime by the
/// simulator's own `verify_coherence` instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// The node holds no copy.
    Invalid,
    /// A read-only copy.
    Shared,
    /// The (unique) dirty copy, resident in the node's L2.
    ModifiedL2,
    /// The dirty copy, parked in the node's RAC.
    ModifiedRac,
}

impl CacheState {
    fn code(self) -> u128 {
        match self {
            CacheState::Invalid => 0,
            CacheState::Shared => 1,
            CacheState::ModifiedL2 => 2,
            CacheState::ModifiedRac => 3,
        }
    }

    fn from_code(code: u128) -> CacheState {
        match code & 0b11 {
            0 => CacheState::Invalid,
            1 => CacheState::Shared,
            2 => CacheState::ModifiedL2,
            _ => CacheState::ModifiedRac,
        }
    }

    /// Whether this is either dirty residence.
    pub(crate) fn is_modified(self) -> bool {
        matches!(self, CacheState::ModifiedL2 | CacheState::ModifiedRac)
    }
}

/// An in-flight miss: the node has asked the directory and is waiting.
/// `nacks_left` is the remaining retry budget; a NACK consumes one, so
/// retry chains terminate by construction and the checker verifies the
/// request is serviceable in every state where it is pending.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pending {
    /// The requested model line.
    pub line: u8,
    /// Write (or upgrade) rather than read.
    pub write: bool,
    /// Remaining NACKs the fault model may inject.
    pub nacks_left: u8,
}

/// One vertex of the explored state graph.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Directory state per model line.
    pub dir: Vec<LineState>,
    /// Cache state, node-major: `cache[node * lines + line]`.
    pub cache: Vec<CacheState>,
    /// At most one in-flight request per node.
    pub pending: Vec<Option<Pending>>,
}

impl ModelState {
    /// The reset state: everything uncached, every cache empty, nothing
    /// in flight.
    pub fn initial(config: &CheckConfig) -> ModelState {
        ModelState {
            dir: vec![LineState::Uncached; config.lines as usize],
            cache: vec![CacheState::Invalid; config.nodes as usize * config.lines as usize],
            pending: vec![None; config.nodes as usize],
        }
    }

    /// Cache state of `node` for `line`.
    pub fn cache_of(&self, config: &CheckConfig, node: u8, line: u8) -> CacheState {
        self.cache[node as usize * config.lines as usize + line as usize]
    }

    fn set_cache(&mut self, config: &CheckConfig, node: u8, line: u8, s: CacheState) {
        self.cache[node as usize * config.lines as usize + line as usize] = s;
    }

    /// One-line human-readable summary, used in counterexample traces.
    pub(crate) fn summarize(&self, config: &CheckConfig) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (l, d) in self.dir.iter().enumerate() {
            let _ = write!(out, "L{l}:");
            match d {
                LineState::Uncached => out.push('U'),
                LineState::Shared(s) => {
                    out.push_str("S{");
                    for (i, n) in s.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{n}");
                    }
                    out.push('}');
                }
                LineState::Modified { owner, in_rac } => {
                    let _ = write!(out, "M{owner}{}", if *in_rac { "r" } else { "" });
                }
            }
            out.push_str(" [");
            for n in 0..config.nodes {
                let c = match self.cache_of(config, n, l as u8) {
                    CacheState::Invalid => '-',
                    CacheState::Shared => 's',
                    CacheState::ModifiedL2 => 'M',
                    CacheState::ModifiedRac => 'R',
                };
                out.push(c);
            }
            out.push_str("]  ");
        }
        out.push_str("pending:");
        for (n, p) in self.pending.iter().enumerate() {
            match p {
                None => {
                    let _ = write!(out, " n{n}:·");
                }
                Some(p) => {
                    let _ = write!(
                        out,
                        " n{n}:{}L{}({} nacks)",
                        if p.write { "W" } else { "R" },
                        p.line,
                        p.nacks_left
                    );
                }
            }
        }
        out
    }
}

/// Packs a state into a unique 128-bit key for the visited set.
///
/// Layout (low to high): 8 bits per line of directory state (2-bit tag,
/// then sharer bitmap / owner+rac), 2 bits per (node, line) cache state,
/// 8 bits per node of pending state. With the bounds in
/// [`CheckConfig::validate`] this uses at most 4·8 + 16·2 + 4·8 = 96
/// bits. The config parameter keeps the signature symmetric with
/// [`decode`], which needs it to know the field counts.
pub fn encode(_config: &CheckConfig, state: &ModelState) -> u128 {
    let mut bits: u128 = 0;
    let mut off = 0u32;
    let mut push = |bits: &mut u128, value: u128, width: u32| {
        *bits |= value << off;
        off += width;
    };
    for d in &state.dir {
        let field = match *d {
            LineState::Uncached => 0u128,
            LineState::Shared(s) => 0b01 | (u128::from(s.bits()) << 2),
            LineState::Modified { owner, in_rac } => {
                0b10 | (u128::from(owner) << 2) | (u128::from(in_rac) << 4)
            }
        };
        push(&mut bits, field, 8);
    }
    for c in &state.cache {
        push(&mut bits, c.code(), 2);
    }
    for p in &state.pending {
        let field = match p {
            None => 0u128,
            Some(p) => {
                1 | (u128::from(p.write) << 1)
                    | (u128::from(p.line) << 2)
                    | (u128::from(p.nacks_left) << 4)
            }
        };
        push(&mut bits, field, 8);
    }
    bits
}

/// Inverse of [`encode`]; the explorer stores only keys and rebuilds
/// states on demand.
pub fn decode(config: &CheckConfig, mut bits: u128) -> ModelState {
    let pull = |bits: &mut u128, width: u32| -> u128 {
        let v = *bits & ((1u128 << width) - 1);
        *bits >>= width;
        v
    };
    let mut dir = Vec::with_capacity(config.lines as usize);
    for _ in 0..config.lines {
        let field = pull(&mut bits, 8);
        dir.push(match field & 0b11 {
            0 => LineState::Uncached,
            1 => LineState::Shared(NodeSet::from_bits((field >> 2) as u64)),
            _ => LineState::Modified {
                owner: ((field >> 2) & 0b11) as NodeId,
                in_rac: (field >> 4) & 1 == 1,
            },
        });
    }
    let mut cache = Vec::with_capacity(config.nodes as usize * config.lines as usize);
    for _ in 0..config.nodes as usize * config.lines as usize {
        cache.push(CacheState::from_code(pull(&mut bits, 2)));
    }
    let mut pending = Vec::with_capacity(config.nodes as usize);
    for _ in 0..config.nodes {
        let field = pull(&mut bits, 8);
        pending.push(if field & 1 == 0 {
            None
        } else {
            Some(Pending {
                write: (field >> 1) & 1 == 1,
                line: ((field >> 2) & 0b11) as u8,
                nacks_left: ((field >> 4) & 0b111) as u8,
            })
        });
    }
    ModelState { dir, cache, pending }
}

/// One protocol event the environment may perform in a given state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// `node` takes a miss on `line` and sends the request to the home.
    Issue {
        /// The requesting node.
        node: u8,
        /// The requested model line.
        line: u8,
        /// Write (or upgrade) rather than read.
        write: bool,
    },
    /// The directory NACKs `node`'s in-flight request; the requester
    /// backs off and will retry (budget permitting).
    Nack {
        /// The NACKed requester.
        node: u8,
    },
    /// The directory services `node`'s in-flight request atomically.
    Service {
        /// The serviced requester.
        node: u8,
    },
    /// `node` evicts its clean copy of `line` without telling the home
    /// (legal; leaves a stale presence bit).
    SilentDrop {
        /// The evicting node.
        node: u8,
        /// The evicted model line.
        line: u8,
    },
    /// `node` evicts its clean copy of `line` and notifies the home.
    NotifyDrop {
        /// The evicting node.
        node: u8,
        /// The evicted model line.
        line: u8,
    },
    /// The owner evicts its dirty copy of `line` and writes it home.
    Writeback {
        /// The owning node.
        node: u8,
        /// The written-back model line.
        line: u8,
    },
    /// The owner parks its dirty L2 victim of `line` in its RAC.
    ParkInRac {
        /// The owning node.
        node: u8,
        /// The parked model line.
        line: u8,
    },
    /// The owner pulls `line` back from its RAC into its L2.
    RefetchFromRac {
        /// The owning node.
        node: u8,
        /// The refetched model line.
        line: u8,
    },
}

impl Action {
    /// Two-byte wire form for replay seeds: opcode, then `node<<4|line`.
    pub fn encode(self) -> [u8; 2] {
        match self {
            Action::Issue { node, line, write: false } => [0, node << 4 | line],
            Action::Issue { node, line, write: true } => [1, node << 4 | line],
            Action::Nack { node } => [2, node << 4],
            Action::Service { node } => [3, node << 4],
            Action::SilentDrop { node, line } => [4, node << 4 | line],
            Action::NotifyDrop { node, line } => [5, node << 4 | line],
            Action::Writeback { node, line } => [6, node << 4 | line],
            Action::ParkInRac { node, line } => [7, node << 4 | line],
            Action::RefetchFromRac { node, line } => [8, node << 4 | line],
        }
    }

    /// Inverse of [`Action::encode`]. `None` for an unknown opcode.
    pub fn decode(bytes: [u8; 2]) -> Option<Action> {
        let node = bytes[1] >> 4;
        let line = bytes[1] & 0xF;
        Some(match bytes[0] {
            0 => Action::Issue { node, line, write: false },
            1 => Action::Issue { node, line, write: true },
            2 => Action::Nack { node },
            3 => Action::Service { node },
            4 => Action::SilentDrop { node, line },
            5 => Action::NotifyDrop { node, line },
            6 => Action::Writeback { node, line },
            7 => Action::ParkInRac { node, line },
            8 => Action::RefetchFromRac { node, line },
            _ => return None,
        })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Issue { node, line, write: false } => {
                write!(f, "node {node} issues READ miss on line {line}")
            }
            Action::Issue { node, line, write: true } => {
                write!(f, "node {node} issues WRITE miss on line {line}")
            }
            Action::Nack { node } => write!(f, "directory NACKs node {node}'s request"),
            Action::Service { node } => write!(f, "directory services node {node}'s request"),
            Action::SilentDrop { node, line } => {
                write!(f, "node {node} silently drops clean line {line}")
            }
            Action::NotifyDrop { node, line } => {
                write!(f, "node {node} drops clean line {line} and notifies home")
            }
            Action::Writeback { node, line } => {
                write!(f, "node {node} writes back dirty line {line}")
            }
            Action::ParkInRac { node, line } => {
                write!(f, "node {node} parks dirty line {line} in its RAC")
            }
            Action::RefetchFromRac { node, line } => {
                write!(f, "node {node} refetches line {line} from its RAC to L2")
            }
        }
    }
}

/// Every action enabled in `state`, in a fixed deterministic order (node
/// outer, line inner), so exploration order — and therefore replay seeds
/// and counterexamples — is reproducible run to run.
pub fn enabled_actions(config: &CheckConfig, state: &ModelState) -> Vec<Action> {
    let mut out = Vec::new();
    for node in 0..config.nodes {
        match state.pending[node as usize] {
            Some(p) => {
                if p.nacks_left > 0 {
                    out.push(Action::Nack { node });
                }
                out.push(Action::Service { node });
            }
            None => {
                for line in 0..config.lines {
                    match state.cache_of(config, node, line) {
                        CacheState::Invalid => {
                            out.push(Action::Issue { node, line, write: false });
                            out.push(Action::Issue { node, line, write: true });
                        }
                        CacheState::Shared => {
                            out.push(Action::Issue { node, line, write: true });
                            out.push(Action::SilentDrop { node, line });
                            out.push(Action::NotifyDrop { node, line });
                        }
                        CacheState::ModifiedL2 => {
                            out.push(Action::Writeback { node, line });
                            if config.rac {
                                out.push(Action::ParkInRac { node, line });
                            }
                        }
                        CacheState::ModifiedRac => {
                            out.push(Action::Writeback { node, line });
                            if config.rac {
                                out.push(Action::RefetchFromRac { node, line });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Materializes a real [`Directory`] holding exactly the model's
/// directory state (Uncached lines become tombstones, as a writeback
/// would leave them).
fn materialize(config: &CheckConfig, state: &ModelState) -> Result<Directory, Violation> {
    let mut dir = Directory::new(config.nodes, LINE_SIZE, PAGE_SIZE);
    for (l, d) in state.dir.iter().enumerate() {
        dir.seed_state(line_addr(l as u8), *d).map_err(|e| Violation {
            invariant: Invariant::SpecConformance,
            detail: format!("cannot materialize model state into a real Directory: {e}"),
        })?;
    }
    Ok(dir)
}

/// Compares the real directory's post-state for every line against the
/// spec-predicted model successor.
fn conformance(
    config: &CheckConfig,
    dir: &Directory,
    next: &ModelState,
    action: Action,
) -> Result<(), Violation> {
    for l in 0..config.lines {
        let real = dir.state(line_addr(l));
        let predicted = next.dir[l as usize];
        if real != predicted {
            return Err(Violation {
                invariant: Invariant::SpecConformance,
                detail: format!(
                    "after `{action}`, real Directory has line {l} in {real:?} but the spec \
                     predicts {predicted:?}"
                ),
            });
        }
    }
    Ok(())
}

fn mismatch(action: Action, what: &str, real: impl fmt::Debug, want: impl fmt::Debug) -> Violation {
    Violation {
        invariant: Invariant::SpecConformance,
        detail: format!(
            "after `{action}`, real Directory reported {what} {real:?}, spec requires {want:?}"
        ),
    }
}

/// Applies `action` to `state`, cross-checking the real [`Directory`]
/// against the spec on every directory-touching step.
///
/// # Errors
///
/// A [`Violation`] (always `SpecConformance`) when the real directory
/// and the executable spec disagree — about a successor state, an
/// outcome field, or whether the transition is legal at all.
pub fn apply(
    config: &CheckConfig,
    state: &ModelState,
    action: Action,
) -> Result<ModelState, Violation> {
    let mut next = state.clone();
    match action {
        Action::Issue { node, line, write } => {
            next.pending[node as usize] =
                Some(Pending { line, write, nacks_left: config.max_nacks });
        }
        Action::Nack { node } => {
            let Some(p) = next.pending[node as usize].as_mut() else {
                return Err(Violation {
                    invariant: Invariant::SpecConformance,
                    detail: format!("NACK for node {node} with no pending request"),
                });
            };
            p.nacks_left -= 1;
            // A NACK carries no protocol payload: directory and caches are
            // untouched, the requester just retries later.
        }
        Action::Service { node } => {
            let Some(p) = next.pending[node as usize].take() else {
                return Err(Violation {
                    invariant: Invariant::SpecConformance,
                    detail: format!("service for node {node} with no pending request"),
                });
            };
            let pre = state.dir[p.line as usize];
            let mut dir = materialize(config, state)?;
            if p.write {
                let want = spec::write_transition(pre, node).map_err(|r| Violation {
                    invariant: Invariant::SpecConformance,
                    detail: format!(
                        "model let node {node} issue a write on line {} it owns ({r:?})",
                        p.line
                    ),
                })?;
                let out = dir.write_miss(line_addr(p.line), node);
                if out.source != want.source {
                    return Err(mismatch(action, "fill source", out.source, want.source));
                }
                if out.invalidate != want.invalidate {
                    return Err(mismatch(
                        action,
                        "invalidation set",
                        out.invalidate,
                        want.invalidate,
                    ));
                }
                if out.previous_owner != want.previous_owner {
                    return Err(mismatch(
                        action,
                        "previous owner",
                        out.previous_owner,
                        want.previous_owner,
                    ));
                }
                if out.upgrade != want.upgrade {
                    return Err(mismatch(action, "upgrade flag", out.upgrade, want.upgrade));
                }
                if out.home != node_home(config, p.line) {
                    return Err(mismatch(action, "home node", out.home, node_home(config, p.line)));
                }
                next.dir[p.line as usize] = want.next;
                next.set_cache(config, node, p.line, CacheState::ModifiedL2);
                for victim in want.invalidate.iter() {
                    next.set_cache(config, victim, p.line, CacheState::Invalid);
                }
                if let Some(prev) = want.previous_owner {
                    next.set_cache(config, prev, p.line, CacheState::Invalid);
                }
                conformance(config, &dir, &next, action)?;
            } else {
                let want = spec::read_transition(pre, node).map_err(|r| Violation {
                    invariant: Invariant::SpecConformance,
                    detail: format!(
                        "model let node {node} issue a read on line {} it owns ({r:?})",
                        p.line
                    ),
                })?;
                let out = dir.read_miss(line_addr(p.line), node);
                if out.source != want.source {
                    return Err(mismatch(action, "fill source", out.source, want.source));
                }
                if out.downgraded_owner != want.downgraded_owner {
                    return Err(mismatch(
                        action,
                        "downgraded owner",
                        out.downgraded_owner,
                        want.downgraded_owner,
                    ));
                }
                if out.home != node_home(config, p.line) {
                    return Err(mismatch(action, "home node", out.home, node_home(config, p.line)));
                }
                next.dir[p.line as usize] = want.next;
                next.set_cache(config, node, p.line, CacheState::Shared);
                if let Some(owner) = want.downgraded_owner {
                    next.set_cache(config, owner, p.line, CacheState::Shared);
                }
                conformance(config, &dir, &next, action)?;
            }
        }
        Action::SilentDrop { node, line } => {
            // No directory interaction at all: the stale presence bit stays.
            next.set_cache(config, node, line, CacheState::Invalid);
        }
        Action::NotifyDrop { node, line } => {
            let pre = state.dir[line as usize];
            let (want_state, want_removed) = spec::drop_transition(pre, node);
            let mut dir = materialize(config, state)?;
            let removed = dir.drop_sharer(line_addr(line), node);
            if removed != want_removed {
                return Err(mismatch(action, "drop effectiveness", removed, want_removed));
            }
            next.dir[line as usize] = want_state;
            next.set_cache(config, node, line, CacheState::Invalid);
            conformance(config, &dir, &next, action)?;
        }
        Action::Writeback { node, line } => {
            let pre = state.dir[line as usize];
            let want = spec::writeback_transition(pre, node).map_err(|r| Violation {
                invariant: Invariant::SpecConformance,
                detail: format!("model let non-owner node {node} write back line {line} ({r:?})"),
            })?;
            let mut dir = materialize(config, state)?;
            if let Err(e) = dir.writeback(line_addr(line), node) {
                return Err(mismatch(action, "refusal", Some(e), Option::<()>::None));
            }
            next.dir[line as usize] = want;
            next.set_cache(config, node, line, CacheState::Invalid);
            conformance(config, &dir, &next, action)?;
        }
        Action::ParkInRac { node, line } | Action::RefetchFromRac { node, line } => {
            let to_rac = matches!(action, Action::ParkInRac { .. });
            let pre = state.dir[line as usize];
            let want = spec::rac_transition(pre, node, to_rac).map_err(|r| Violation {
                invariant: Invariant::SpecConformance,
                detail: format!("model let non-owner node {node} move line {line} ({r:?})"),
            })?;
            let mut dir = materialize(config, state)?;
            let res = if to_rac {
                dir.owner_moved_to_rac(line_addr(line), node)
            } else {
                dir.owner_refetched_from_rac(line_addr(line), node)
            };
            if let Err(e) = res {
                return Err(mismatch(action, "refusal", Some(e), Option::<()>::None));
            }
            next.dir[line as usize] = want;
            next.set_cache(
                config,
                node,
                line,
                if to_rac { CacheState::ModifiedRac } else { CacheState::ModifiedL2 },
            );
            conformance(config, &dir, &next, action)?;
        }
    }
    Ok(next)
}

/// The home node of a model line (page-interleaved, one page per line).
pub fn node_home(config: &CheckConfig, line: u8) -> NodeId {
    line % config.nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let config = CheckConfig { nodes: 4, lines: 4, rac: true, max_nacks: 7, max_states: 10 };
        let mut state = ModelState::initial(&config);
        state.dir[0] = LineState::Shared([0u8, 2, 3].into_iter().collect());
        state.dir[1] = LineState::Modified { owner: 3, in_rac: true };
        state.dir[2] = LineState::Modified { owner: 1, in_rac: false };
        state.set_cache(&config, 0, 0, CacheState::Shared);
        state.set_cache(&config, 3, 1, CacheState::ModifiedRac);
        state.set_cache(&config, 1, 2, CacheState::ModifiedL2);
        state.pending[2] = Some(Pending { line: 3, write: true, nacks_left: 7 });
        state.pending[0] = Some(Pending { line: 0, write: false, nacks_left: 0 });
        let key = encode(&config, &state);
        assert_eq!(decode(&config, key), state);
        // The initial state must encode differently.
        assert_ne!(key, encode(&config, &ModelState::initial(&config)));
    }

    #[test]
    fn action_codec_round_trips() {
        let all = [
            Action::Issue { node: 3, line: 2, write: false },
            Action::Issue { node: 0, line: 0, write: true },
            Action::Nack { node: 1 },
            Action::Service { node: 2 },
            Action::SilentDrop { node: 1, line: 3 },
            Action::NotifyDrop { node: 2, line: 0 },
            Action::Writeback { node: 3, line: 1 },
            Action::ParkInRac { node: 0, line: 2 },
            Action::RefetchFromRac { node: 1, line: 1 },
        ];
        for a in all {
            assert_eq!(Action::decode(a.encode()), Some(a));
        }
        assert_eq!(Action::decode([99, 0]), None);
    }

    #[test]
    fn initial_state_enables_only_issues() {
        let config = CheckConfig::small();
        let state = ModelState::initial(&config);
        let actions = enabled_actions(&config, &state);
        assert!(actions.iter().all(|a| matches!(a, Action::Issue { .. })));
        // 2 nodes x 1 line x {read, write}.
        assert_eq!(actions.len(), 4);
    }

    #[test]
    fn service_of_write_claims_ownership_and_matches_real_directory() {
        let config = CheckConfig::small();
        let state = ModelState::initial(&config);
        let issued = apply(&config, &state, Action::Issue { node: 1, line: 0, write: true })
            .expect("issue is pure bookkeeping");
        let served =
            apply(&config, &state_after_nacks(&config, issued), Action::Service { node: 1 })
                .expect("cold write must be serviceable");
        assert_eq!(served.dir[0], LineState::Modified { owner: 1, in_rac: false });
        assert_eq!(served.cache_of(&config, 1, 0), CacheState::ModifiedL2);
        assert_eq!(served.pending[1], None);
    }

    /// Exhausts the NACK budget first so the serviced path covers retries.
    fn state_after_nacks(config: &CheckConfig, mut state: ModelState) -> ModelState {
        while state.pending.iter().flatten().any(|p| p.nacks_left > 0) {
            let node = state
                .pending
                .iter()
                .position(|p| p.is_some_and(|p| p.nacks_left > 0))
                .expect("checked above") as u8;
            state = apply(config, &state, Action::Nack { node }).expect("NACK within budget");
        }
        state
    }

    #[test]
    fn line_addresses_have_distinct_homes() {
        let config = CheckConfig::medium();
        let dir = Directory::new(config.nodes, LINE_SIZE, PAGE_SIZE);
        for l in 0..config.lines {
            assert_eq!(dir.home(line_addr(l)), node_home(&config, l));
        }
        assert_ne!(dir.home(line_addr(0)), dir.home(line_addr(1)));
    }
}
