//! Layer-by-layer replay of a captured reference window.
//!
//! The simulator runs every layer inside one dispatch loop, so their
//! host time cannot be told apart from outside. The replay feeds a
//! captured window of packed reference words through each layer's
//! public structures in isolation, one stage per layer, and times each
//! stage: the L1 caches, the node L2s, the RAC, the directory, and the
//! timing models. Stage `k` consumes what stage `k - 1` produced (L1
//! misses, L2 misses, ...), recorded in plain vectors between stages.
//!
//! The replay follows the simulator's rules where they decide what a
//! layer sees — the repeat-fetch memo and its batched runs, the
//! uniprocessor store shortcut, L2 ownership upgrades, dirty writebacks,
//! RAC fill-on-fetch — but not the feedback between layers (inclusion
//! and coherence invalidations of caches), so its miss counts are close
//! to the simulator's, not equal; `cache.l1.replay_vs_sim` reports how
//! close. Each stage pays its own pass over the window, which the
//! simulator's fused loop does not, so the stage times measure each
//! layer in isolation and do not add up to the simulator's self time.

use std::hint::black_box;
use std::ops::Range;

use csim_cache::Cache;
use csim_coherence::{Directory, FillSource, LineState, NodeId};
use csim_config::{LatencyTable, SystemConfig, LINE_SIZE, PAGE_SIZE};
use csim_proc::{ExecBreakdown, StallClass, Timing, TimingModel};
use csim_trace::{PACKED_ACCESS_SHIFT, PACKED_ADDR_MASK};

use crate::clock::Spans;

/// Host time and work of each replayed layer over the timed half of a
/// window.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// References replayed.
    pub refs: u64,
    pub l1_ns: u64,
    pub l2_ns: u64,
    pub rac_ns: u64,
    pub dir_ns: u64,
    pub proc_ns: u64,
    /// L1 misses plus store hits that need the L2's ownership check.
    pub l2_accesses: u64,
    /// Directory transactions: misses, upgrades and writebacks.
    pub dir_ops: u64,
    pub l1_misses: u64,
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        self.refs += o.refs;
        self.l1_ns += o.l1_ns;
        self.l2_ns += o.l2_ns;
        self.rac_ns += o.rac_ns;
        self.dir_ns += o.dir_ns;
        self.proc_ns += o.proc_ns;
        self.l2_accesses += o.l2_accesses;
        self.dir_ops += o.dir_ops;
        self.l1_misses += o.l1_misses;
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    FetchMiss,
    LoadMiss,
    StoreMiss,
    /// A store that hit the L1 but may still need ownership below it.
    StoreHit,
}

/// Something the L1 stage sends below the L1.
#[derive(Clone, Copy)]
struct Event {
    /// Position of the reference in the interleaved window.
    seq: u64,
    stream: u32,
    line: u64,
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    Upgrade,
    Writeback,
}

/// A directory transaction produced by the L2 stage.
#[derive(Clone, Copy)]
struct Op {
    line: u64,
    node: NodeId,
    kind: OpKind,
}

/// What the L2 stage decided for one event.
#[derive(Clone, Copy)]
enum Below {
    Nothing,
    L2Hit,
    /// Missed the L2; the index of its directory transaction.
    Miss(u32),
}

/// A core's L1s, and the line of its last instruction fetch.
struct CoreL1 {
    l1i: Cache,
    l1d: Cache,
    memo: u64,
}

/// A core's timing model, and the line of its last instruction fetch.
struct CoreProc {
    timing: Timing,
    bd: ExecBreakdown,
    memo: u64,
}

/// Replay state that persists across the warming and the timed half.
struct Replay {
    uni: bool,
    /// Retire each run of repeat fetches of the memoized line as one
    /// batched call, as the simulator's one-stream dispatch does when no
    /// epochs, faults or events observe it.
    batch_runs: bool,
    cores_per_node: usize,
    lat: LatencyTable,
    cores: Vec<CoreL1>,
    l2: Vec<Cache>,
    rac: Vec<Option<Cache>>,
    dir: Directory,
    procs: Vec<CoreProc>,
}

fn decode(word: u64) -> (u64, u64) {
    (
        (word & PACKED_ADDR_MASK) / LINE_SIZE,
        word >> PACKED_ACCESS_SHIFT & 0x3,
    )
}

/// Length of the run of words equal to `stream[r]` in line, access kind
/// and mode (`word >> 6`, the simulator's run key), ending before `end`.
fn run_len(stream: &[u64], r: usize, end: usize) -> usize {
    let key = stream[r] >> 6;
    stream[r..end]
        .iter()
        .take_while(|&&w| w >> 6 == key)
        .count()
}

impl Replay {
    fn new(cfg: &SystemConfig, fast_arm: bool) -> Replay {
        let n = cfg.total_cores();
        Replay {
            uni: cfg.n_nodes() == 1,
            batch_runs: fast_arm && n == 1,
            cores_per_node: cfg.cores_per_node(),
            lat: cfg.latencies(),
            cores: (0..n)
                .map(|_| CoreL1 {
                    l1i: Cache::new(cfg.l1i()),
                    l1d: Cache::new(cfg.l1d()),
                    memo: u64::MAX,
                })
                .collect(),
            l2: (0..cfg.n_nodes())
                .map(|_| Cache::new(cfg.l2().geometry))
                .collect(),
            rac: (0..cfg.n_nodes())
                .map(|_| cfg.rac().map(|r| Cache::new(r.geometry)))
                .collect(),
            dir: Directory::new(cfg.n_nodes() as u8, LINE_SIZE, PAGE_SIZE),
            procs: (0..n)
                .map(|_| CoreProc {
                    timing: Timing::for_model(cfg.processor()),
                    bd: ExecBreakdown::default(),
                    memo: u64::MAX,
                })
                .collect(),
        }
    }

    fn node_of(&self, stream: u32) -> usize {
        stream as usize / self.cores_per_node
    }

    /// Dispatch and the L1s: the repeat-fetch memo, the L1I/L1D probes
    /// and fills, and the uniprocessor store shortcut.
    fn l1(&mut self, words: &[Vec<u64>], rounds: Range<usize>) -> Vec<Event> {
        let n = words.len();
        let mut events = Vec::new();
        let mut r = rounds.start;
        while r < rounds.end {
            // Rounds a batched run consumes (only with one stream).
            let mut step = 1;
            for (s, stream) in words.iter().enumerate() {
                let (line, class) = decode(stream[r]);
                let core = &mut self.cores[s];
                let kind = match class {
                    0 => {
                        if line == core.memo {
                            if self.batch_runs {
                                step = run_len(stream, r, rounds.end);
                                core.l1i.record_repeat_read_hits(step as u64);
                            } else {
                                core.l1i.record_repeat_read_hit();
                            }
                            continue;
                        }
                        core.memo = line;
                        if core.l1i.access(line, false).is_hit() {
                            continue;
                        }
                        let _ = core.l1i.insert(line, false);
                        Kind::FetchMiss
                    }
                    1 => {
                        if core.l1d.access(line, false).is_hit() {
                            continue;
                        }
                        let _ = core.l1d.insert(line, false);
                        Kind::LoadMiss
                    }
                    _ => {
                        let (hit, owned) = if self.uni {
                            let (o, was_dirty) = core.l1d.access_store_was_dirty(line);
                            (o.is_hit(), was_dirty)
                        } else {
                            (core.l1d.access(line, true).is_hit(), false)
                        };
                        if hit && owned {
                            continue;
                        }
                        if hit {
                            Kind::StoreHit
                        } else {
                            let _ = core.l1d.insert(line, true);
                            Kind::StoreMiss
                        }
                    }
                };
                events.push(Event {
                    seq: (r * n + s) as u64,
                    stream: s as u32,
                    line,
                    kind,
                });
            }
            r += step;
        }
        events
    }

    /// The node L2s: probes, ownership upgrades, fills and dirty
    /// victims.
    fn l2(&mut self, events: &[Event]) -> (Vec<Below>, Vec<Op>) {
        let mut below = Vec::with_capacity(events.len());
        let mut ops = Vec::new();
        for e in events {
            let node = self.node_of(e.stream);
            let l2 = &mut self.l2[node];
            let op = |kind| Op {
                line: e.line,
                node: node as NodeId,
                kind,
            };
            if e.kind == Kind::StoreHit {
                if !l2.is_dirty(e.line) && l2.mark_dirty(e.line) {
                    ops.push(op(OpKind::Upgrade));
                }
                below.push(Below::Nothing);
                continue;
            }
            let write = e.kind == Kind::StoreMiss;
            if l2.access(e.line, false).is_hit() {
                if write && !l2.is_dirty(e.line) {
                    l2.mark_dirty(e.line);
                    ops.push(op(OpKind::Upgrade));
                }
                below.push(Below::L2Hit);
                continue;
            }
            below.push(Below::Miss(ops.len() as u32));
            ops.push(op(if write { OpKind::Write } else { OpKind::Read }));
            if let Some(v) = l2.insert(e.line, write) {
                if v.dirty {
                    ops.push(Op {
                        line: v.line,
                        node: node as NodeId,
                        kind: OpKind::Writeback,
                    });
                }
            }
        }
        (below, ops)
    }

    /// The remote access caches: the remote-home test on every L2 miss,
    /// then a RAC probe, and a clean fill on a read miss.
    fn rac(&mut self, ops: &[Op]) {
        for op in ops {
            if !matches!(op.kind, OpKind::Read | OpKind::Write) || self.dir.home(op.line) == op.node
            {
                continue;
            }
            if let Some(rac) = &mut self.rac[op.node as usize] {
                if !rac.access(op.line, false).is_hit() && op.kind == OpKind::Read {
                    let _ = rac.insert(op.line, false);
                }
            }
        }
    }

    /// The directory: every transaction in order, returning the stall
    /// class of each.
    fn directory(&mut self, ops: &[Op]) -> Vec<StallClass> {
        let mut classes = Vec::with_capacity(ops.len());
        for op in ops {
            // The replay does not invalidate caches, so a node can miss
            // on a line the directory still records it owning. The
            // directory has no transition for a request from the owner
            // (the simulator never makes one), so such a miss is served
            // locally without a directory call.
            let owns = matches!(self.dir.state(op.line), LineState::Modified { owner, .. } if owner == op.node);
            let source = match op.kind {
                OpKind::Writeback => {
                    let _ = self.dir.writeback(op.line, op.node);
                    None
                }
                _ if owns => None,
                OpKind::Read => Some(self.dir.read_miss(op.line, op.node).source),
                OpKind::Write | OpKind::Upgrade => {
                    Some(self.dir.write_miss(op.line, op.node).source)
                }
            };
            classes.push(match source {
                Some(FillSource::OwnerCache { .. }) => StallClass::RemoteDirty,
                Some(FillSource::Home) if self.dir.home(op.line) != op.node => {
                    StallClass::RemoteClean
                }
                _ => StallClass::Local,
            });
        }
        classes
    }

    /// The timing models: a retire per instruction fetch (or per batched
    /// run of repeat fetches) and a stall per L1 miss, in reference
    /// order.
    fn proc(
        &mut self,
        words: &[Vec<u64>],
        rounds: Range<usize>,
        stalls: &[(u64, StallClass, u64)],
    ) {
        let n = words.len();
        let mut next = stalls.iter().peekable();
        let mut r = rounds.start;
        while r < rounds.end {
            let mut step = 1;
            for (s, stream) in words.iter().enumerate() {
                let seq = (r * n + s) as u64;
                let core = &mut self.procs[s];
                let (line, class) = decode(stream[r]);
                if class == 0 {
                    if self.batch_runs && line == core.memo {
                        // A run of L1I hits: no stall falls inside it.
                        step = run_len(stream, r, rounds.end);
                        core.timing.retire_instructions(step as u64, &mut core.bd);
                    } else {
                        core.memo = line;
                        core.timing.retire_instruction(&mut core.bd);
                    }
                }
                while let Some(&&(at, class, latency)) = next.peek() {
                    if at != seq {
                        break;
                    }
                    core.timing.stall(class, latency, &mut core.bd);
                    next.next();
                }
            }
            r += step;
        }
    }

    /// The stall each event charges, from the L2 and directory outcomes.
    fn stalls(
        &self,
        events: &[Event],
        below: &[Below],
        classes: &[StallClass],
    ) -> Vec<(u64, StallClass, u64)> {
        let lat = &self.lat;
        events
            .iter()
            .zip(below)
            .filter_map(|(e, b)| match *b {
                Below::Nothing => None,
                Below::L2Hit => Some((e.seq, StallClass::L2Hit, lat.l2_hit)),
                Below::Miss(op) => {
                    let class = classes[op as usize];
                    let latency = match class {
                        StallClass::L2Hit => lat.l2_hit,
                        StallClass::Local => lat.local,
                        StallClass::RemoteClean => lat.remote_clean,
                        StallClass::RemoteDirty => lat.remote_dirty,
                    };
                    Some((e.seq, class, latency))
                }
            })
            .collect()
    }

    /// Runs every stage over `rounds`; with `spans`, each stage is a
    /// timed span on track `tid`.
    fn pass(
        &mut self,
        words: &[Vec<u64>],
        rounds: Range<usize>,
        mut spans: Option<(&mut Spans, u64)>,
    ) -> LayerTimes {
        let (events, l1_ns) = stage(&mut spans, "replay.l1", || self.l1(words, rounds.clone()));
        let ((below, ops), l2_ns) = stage(&mut spans, "replay.l2", || self.l2(&events));
        let ((), rac_ns) = stage(&mut spans, "replay.rac", || self.rac(&ops));
        let (classes, dir_ns) = stage(&mut spans, "replay.coherence", || self.directory(&ops));
        let stalls = self.stalls(&events, &below, &classes);
        let ((), proc_ns) = stage(&mut spans, "replay.proc", || {
            self.proc(words, rounds.clone(), &stalls)
        });
        black_box(&self.procs);
        LayerTimes {
            refs: (rounds.len() * words.len()) as u64,
            l1_ns,
            l2_ns,
            rac_ns,
            dir_ns,
            proc_ns,
            l2_accesses: events.len() as u64,
            dir_ops: ops.len() as u64,
            l1_misses: events.iter().filter(|e| e.kind != Kind::StoreHit).count() as u64,
        }
    }
}

/// Runs one replay stage, timed as a span when the pass is timed.
fn stage<R>(spans: &mut Option<(&mut Spans, u64)>, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
    match spans {
        Some((spans, tid)) => {
            let (out, secs) = spans.time(name, *tid, 2, f);
            (out, (secs * 1e9) as u64)
        }
        None => (f(), 0),
    }
}

/// Replays a captured window (`words[s]` is stream `s`'s references,
/// all the same length, interleaved round-robin as the simulator's
/// multi-stream dispatch interleaves them). The first half warms the
/// replayed structures; the second half is timed, one span per layer
/// on track `tid`. `fast_arm` says the simulator ran the window with no
/// epochs, faults or events observing it.
pub fn replay(
    cfg: &SystemConfig,
    words: &[Vec<u64>],
    fast_arm: bool,
    spans: &mut Spans,
    tid: u64,
) -> LayerTimes {
    let rounds = words.iter().map(Vec::len).min().unwrap_or(0);
    let half = rounds / 2;
    let mut state = Replay::new(cfg, fast_arm);
    state.pass(words, 0..half, None);
    state.pass(words, half..rounds, Some((spans, tid)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_trace::{ExecMode, MemRef};

    fn cfg(nodes: usize) -> SystemConfig {
        let mut b = SystemConfig::builder();
        b.nodes(nodes)
            .integration(csim_config::IntegrationLevel::FullyIntegrated)
            .l2_sram(2 << 20, 8);
        if nodes > 1 {
            b.rac(csim_config::RacConfig::paper());
        }
        b.build().unwrap()
    }

    #[test]
    fn repeated_fetches_of_one_line_miss_once() {
        let w = MemRef::ifetch(0x4000, ExecMode::User).pack();
        for fast_arm in [false, true] {
            let times = replay(&cfg(1), &[vec![w; 8]], fast_arm, &mut Spans::new(), 1);
            assert_eq!(times.refs, 4);
            // The warming half already brought the line in.
            assert_eq!(times.l1_misses, 0);
        }
    }

    #[test]
    fn batched_fetch_runs_count_like_single_fetches() {
        let fetch = |a| MemRef::ifetch(a, ExecMode::User).pack();
        let load = MemRef::load(0x8000, ExecMode::User).pack();
        let words = vec![vec![
            fetch(0x4000),
            fetch(0x4004),
            fetch(0x4008),
            load,
            fetch(0x400c),
            fetch(0x4010),
            fetch(0x4040),
            fetch(0x4000),
            fetch(0x4004),
        ]];
        let run = |fast_arm| {
            let mut r = Replay::new(&cfg(1), fast_arm);
            let times = r.pass(&words, 0..words[0].len(), None);
            (*r.cores[0].l1i.stats(), r.procs[0].bd, times.l1_misses)
        };
        let (stats, bd, misses) = run(true);
        assert_eq!((stats, bd, misses), run(false));
        assert_eq!(bd.instructions, 8);
        // 0x4000, 0x4040 and the load's line.
        assert_eq!(misses, 3);
    }

    #[test]
    fn a_store_after_a_load_needs_ownership_below_the_l1() {
        let load = MemRef::load(0x8000, ExecMode::User).pack();
        let store = MemRef::store(0x8000, ExecMode::User).pack();
        // Warming half: load (miss) + store (hit, upgrade); timed half:
        // a fresh line missed by a store.
        let other = MemRef::store(0x9_0000, ExecMode::User).pack();
        let times = replay(
            &cfg(2),
            &[
                vec![load, store, other, other],
                vec![load, load, load, load],
            ],
            true,
            &mut Spans::new(),
            1,
        );
        assert_eq!(times.refs, 4);
        assert_eq!(times.l1_misses, 1);
        assert!(times.dir_ops >= 1);
    }
}
