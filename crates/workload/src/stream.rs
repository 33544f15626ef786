//! The per-node OLTP reference stream.
//!
//! Each simulated processor runs the paper's process mix: 8 dedicated
//! Oracle server processes executing TPC-B transactions, the log writer
//! (on node 0), the database writer (on node 1, or node 0 in a
//! uniprocessor), and kernel activity (pipes, context switches, I/O) that
//! accounts for roughly a quarter of all instructions. A transaction is
//! three scheduling bursts — pipe receive (kernel), execute (database
//! engine), commit (database + kernel) — with a context switch between
//! bursts, so the 8 servers' footprints interleave in the caches exactly
//! the way time-sharing interleaves them on real hardware.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use csim_trace::{Access, Addr, ExecMode, MemRef, ReferenceStream, SimRng};

use crate::code::{CodeCursor, CodeRegion};
use crate::layout::{AddressMap, Region, RegionHandle};
use crate::params::{OltpParams, ParamsError};
use crate::sga::{LockKind, Sga};
use crate::tpcb::{Schema, Table};
use crate::zipf::ZipfTable;

/// Redo bytes generated per row update.
const REDO_BYTES_PER_UPDATE: u64 = 120;

/// Number of dirty block lines one database-writer burst flushes.
const DBWR_FLUSH_LINES: usize = 16;

/// Most redo lines one log-writer burst harvests, so a long backlog
/// cannot stall the stream.
const LGWR_HARVEST_LINES: u64 = 64;

/// Buffer-header lines one database-writer burst scans.
const DBWR_SCAN_LINES: u64 = 40;

/// I/O buffer lines one daemon burst stages.
const DAEMON_IO_LINES: u64 = 8;

/// Most recently dirtied lines the database writer's queue keeps; a
/// push onto a full queue drops the oldest.
const DIRTY_QUEUE_LINES: usize = 256;

/// State shared by every process on every node: the redo log tail, commit
/// accounting, and the recently-dirtied block lines the database writer
/// flushes.
#[derive(Debug)]
pub struct SharedOltpState {
    log_tail_bytes: AtomicU64,
    pending_commits: AtomicU64,
    txns_completed: AtomicU64,
    recent_dirty: Mutex<VecDeque<Addr>>,
}

impl Default for SharedOltpState {
    /// The dirty queue is allocated at its cap, so pushes never grow it.
    fn default() -> Self {
        SharedOltpState {
            log_tail_bytes: AtomicU64::new(0),
            pending_commits: AtomicU64::new(0),
            txns_completed: AtomicU64::new(0),
            recent_dirty: Mutex::new(VecDeque::with_capacity(DIRTY_QUEUE_LINES)),
        }
    }
}

impl SharedOltpState {
    /// Transactions committed machine-wide so far.
    pub fn transactions_completed(&self) -> u64 {
        self.txns_completed.load(Relaxed)
    }

    // The streams of one `Simulation` all generate on one thread (the
    // workload pipeline's producer under `Simulation::with_oltp`, the
    // simulator's own thread otherwise), so this lock is never
    // contended; it exists because the streams are `Send` and share
    // this state through `Arc`. The dirty queue is a bounded
    // ring of addresses with no cross-field invariants, so even a
    // poisoned lock (a panic that unwound out of a push or pop) leaves it
    // usable: recover the guard rather than add a panic path.
    fn push_dirty(&self, addr: Addr) {
        let mut q = self.recent_dirty.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= DIRTY_QUEUE_LINES {
            q.pop_front();
        }
        q.push_back(addr);
    }

    /// Moves up to `out.len()` recently dirtied lines into the caller's
    /// scratch and returns how many were written. Indexed writes into a
    /// fixed buffer — the database writer calls this on the hot burst
    /// path, which is allocation-free.
    fn pop_dirty_into(&self, out: &mut [Addr]) -> usize {
        let mut q = self.recent_dirty.lock().unwrap_or_else(|e| e.into_inner());
        let take = out.len().min(q.len());
        // analyze: total — take = out.len().min(q.len()) bounds the slice by out's own length
        for (slot, addr) in out[..take].iter_mut().zip(q.drain(..take)) {
            *slot = addr;
        }
        take
    }
}

/// The OLTP workload: builds one [`NodeWorkload`] stream per processor.
#[derive(Debug)]
pub struct OltpWorkload;

impl OltpWorkload {
    /// Validates `params` and builds the per-node streams. All streams
    /// share the redo log tail and commit bookkeeping, so they must be
    /// consumed by one simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] when the parameters are inconsistent or
    /// `n_nodes` is 0 or exceeds 64 (the directory's presence-vector
    /// limit).
    pub fn build(params: OltpParams, n_nodes: usize) -> Result<Vec<NodeWorkload>, ParamsError> {
        params.validate()?;
        if n_nodes == 0 || n_nodes > 64 {
            return Err(ParamsError::from_msg("node count must be in 1..=64"));
        }
        let params = Arc::new(params);
        let shared = Arc::new(SharedOltpState::default());
        let schema = Arc::new(Schema::new(&params));
        let sga = Arc::new(Sga::new(params.meta_hot_lines, params.log_ring_lines));
        let db_code = Arc::new(CodeRegion::new(
            Region::DbCode,
            params.db_code_lines,
            params.func_lines,
            params.instrs_per_line,
            params.code_zipf,
        ));
        let kernel_code = Arc::new(CodeRegion::new(
            Region::KernelCode,
            params.kernel_code_lines,
            params.func_lines,
            params.instrs_per_line,
            params.code_zipf,
        ));
        let meta_zipf = Arc::new(ZipfTable::new(params.meta_hot_lines, params.meta_zipf));
        let shared_read_zipf =
            Arc::new(ZipfTable::new(params.shared_read_lines, params.shared_read_zipf));
        Ok((0..n_nodes as u8)
            .map(|node| {
                NodeWorkload::new(
                    node,
                    n_nodes as u8,
                    Arc::clone(&params),
                    Arc::clone(&shared),
                    Arc::clone(&schema),
                    Arc::clone(&sga),
                    Arc::clone(&db_code),
                    Arc::clone(&kernel_code),
                    Arc::clone(&meta_zipf),
                    Arc::clone(&shared_read_zipf),
                )
            })
            .collect())
    }
}

/// A server process's position in its transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Kernel: read the client's request from the pipe.
    Pipe,
    /// Database engine: parse and execute the TPC-B updates.
    Execute,
    /// Database + kernel: commit, write redo, signal the log writer.
    Commit,
}

/// Per-server-process state.
#[derive(Clone, Debug)]
struct ServerState {
    phase: Phase,
    db_cursor: CodeCursor,
    kernel_cursor: CodeCursor,
    teller: u64,
    branch: u64,
    account: u64,
    recent: RecentLines,
}

/// A tiny ring of recently touched background lines, giving background
/// references the short-term temporal locality real code exhibits.
#[derive(Clone, Copy, Debug, Default)]
struct RecentLines {
    lines: [Addr; 4],
    len: usize,
    pos: usize,
}

impl RecentLines {
    /// Records an address in the ring (fixed storage, indexed write).
    fn note(&mut self, addr: Addr) {
        // analyze: total — pos wraps modulo lines.len() after every write
        self.lines[self.pos] = addr;
        self.pos = (self.pos + 1) % self.lines.len();
        self.len = (self.len + 1).min(self.lines.len());
    }

    fn pick(&self, idx: usize) -> Option<Addr> {
        match self.len {
            0 => None,
            // `len` saturates at 4, so in steady state the reduction is a
            // mask instead of a hardware divide; `idx & 3 == idx % 4`.
            4 => Some(self.lines[idx & 3]),
            // analyze: total — len saturates at lines.len(), so idx % len stays inside the ring
            len => Some(self.lines[idx % len]),
        }
    }
}

/// The reference stream of one processor node.
///
/// Produced by [`OltpWorkload::build`]; consumed by the simulator via
/// [`ReferenceStream`].
#[derive(Debug)]
pub struct NodeWorkload {
    node: u8,
    params: Arc<OltpParams>,
    shared: Arc<SharedOltpState>,
    schema: Arc<Schema>,
    sga: Arc<Sga>,
    map: AddressMap,
    // Precomputed region scatter handles: address translation through a
    // handle skips half the page-hash mixing on every background data
    // reference (bit-identical addresses; see `AddressMap::handle`).
    h_meta: RegionHandle,
    h_log: RegionHandle,
    h_shared_read: RegionHandle,
    h_kernel_shared: RegionHandle,
    h_kernel_node: RegionHandle,
    h_pga: Vec<RegionHandle>,
    h_work: Vec<RegionHandle>,
    h_kstack: Vec<RegionHandle>,
    db_code: Arc<CodeRegion>,
    kernel_code: Arc<CodeRegion>,
    meta_zipf: Arc<ZipfTable>,
    shared_read_zipf: Arc<ZipfTable>,
    rng: SimRng,
    servers: Vec<ServerState>,
    cur_server: usize,
    rounds: u64,
    last_dbwr_round: u64,
    lgwr_flushed_bytes: u64,
    history_seq: u64,
    io_seq: u64,
    txns_local: u64,
    runs_lgwr: bool,
    runs_dbwr: bool,
    daemon_db_cursor: CodeCursor,
    daemon_kernel_cursor: CodeCursor,
    daemon_recent: RecentLines,
    /// The current scheduling burst, consumed by index. Allocated once,
    /// in [`NodeWorkload::new`], with room for [`burst_bound`] words,
    /// the most one refill can emit, and grown only by writing: `emit`
    /// pushes, which never reallocates, and a refill starts from
    /// `clear()`. Nothing zero-fills it, so only the pages a burst
    /// writes become resident (DESIGN.md §18: a zeroed buffer taken
    /// from recycled heap memory is cleared in full, on every sweep
    /// point after the first). Entries are packed to one word each (see
    /// [`MemRef::pack`]): a burst is written once and read once, so
    /// halving its footprint halves the buffer's share of memory traffic
    /// on the simulator's hottest path.
    buf: Vec<u64>,
    /// Next word of `buf` to hand out.
    buf_head: usize,
    // Precomputed mix thresholds, in the integer domain of
    // [`prob_threshold`]: a 53-bit draw `rng.next_u64() >> 11` compared
    // against a threshold decides exactly like `rng.gen_f64() < p`, with
    // no int→float conversion on the branch-feeding path.
    uload_private: u64,
    uload_meta: u64,
    uload_work: u64,
    ustore_private: u64,
    ustore_meta: u64,
    k_stack: u64,
    k_node: u64,
    t_load: u64,
    t_either: u64,
    t_reuse: u64,
    t_kshared: u64,
}

/// The most words one refill emits on a node that runs the log writer
/// (`lgwr`) or the database writer (`dbwr`): its largest burst recipe
/// plus the context switch that follows every recipe.
///
/// Each term is the recipe's own tally: `run_code(n)` emits at most two
/// words per instruction (the fetch and one data reference), and a
/// recipe's scripted references are counted as its body writes them. A
/// refill runs exactly one recipe (a phase of the current server, or a
/// daemon burst) before the switch.
fn burst_bound(p: &OltpParams, lgwr: bool, dbwr: bool) -> usize {
    let code = |instrs: u64| 2 * instrs;
    // Lines `append_redo(bytes)` writes: `bytes` from the last byte of
    // a line reach `(bytes + 62) / 64` further lines.
    let redo = |bytes: u64| (bytes + 62) / 64 + 1;
    let pipe = code(p.txn_pipe_instrs) + 4;
    // Twelve chunks of code, each at least one instruction; the slot
    // (2), account (7), teller (6), branch (6), history (5) and release
    // (6) references; four row redo records.
    let chunk = (p.txn_db_instrs / 12).max(1);
    let execute = code(12 * chunk) + 32 + 4 * redo(REDO_BYTES_PER_UPDATE);
    let commit = code(p.txn_commit_instrs) + redo(REDO_BYTES_PER_UPDATE / 2) + 2;
    let mut most = pipe.max(execute).max(commit);
    if lgwr {
        most = most.max(code(p.lgwr_instrs) + LGWR_HARVEST_LINES + DAEMON_IO_LINES + 2);
    }
    if dbwr {
        let scripted = DBWR_SCAN_LINES + DBWR_FLUSH_LINES as u64 + DAEMON_IO_LINES;
        most = most.max(code(p.dbwr_instrs) + scripted);
    }
    let switch = code(p.switch_instrs) + 2;
    (most + switch) as usize
}

/// The integer threshold equivalent to `gen_f64() < p`.
///
/// `gen_f64` is `(next_u64() >> 11) as f64 * 2^-53`, so with `n` the
/// 53-bit draw, `n * 2^-53 < p  ⟺  n < p * 2^53  ⟺  n < ceil(p * 2^53)`
/// (for integer `p * 2^53` the strict compare is unchanged; otherwise
/// rounding up admits exactly the integers below the real bound). The
/// scaling by a power of two is exact in `f64`, so the decision — and
/// therefore every downstream draw — is bit-identical to the float form.
pub(crate) fn prob_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl NodeWorkload {
    #[expect(clippy::too_many_arguments, reason = "one argument per per-node stream parameter")]
    fn new(
        node: u8,
        n_nodes: u8,
        params: Arc<OltpParams>,
        shared: Arc<SharedOltpState>,
        schema: Arc<Schema>,
        sga: Arc<Sga>,
        db_code: Arc<CodeRegion>,
        kernel_code: Arc<CodeRegion>,
        meta_zipf: Arc<ZipfTable>,
        shared_read_zipf: Arc<ZipfTable>,
    ) -> Self {
        let seed = params
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(node).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let mut rng = SimRng::seed_from_u64(seed);
        let servers = (0..params.servers_per_node)
            .map(|_| ServerState {
                phase: Phase::Pipe,
                db_cursor: db_code.entry(&mut rng),
                kernel_cursor: kernel_code.entry(&mut rng),
                teller: 0,
                branch: 0,
                account: 0,
                recent: RecentLines::default(),
            })
            .collect();
        let uload_total = params.w_uload_private
            + params.w_uload_meta
            + params.w_uload_work
            + params.w_uload_shared_read;
        let ustore_total = params.w_ustore_private + params.w_ustore_meta + params.w_ustore_work;
        let k_total = params.w_k_stack + params.w_k_node + params.w_k_shared;
        let map = AddressMap::new(params.seed);
        let daemon_db_cursor = db_code.entry(&mut rng);
        let daemon_kernel_cursor = kernel_code.entry(&mut rng);
        let servers_per_node = params.servers_per_node;
        let runs_lgwr = node == 0;
        let runs_dbwr = node == if n_nodes > 1 { 1 } else { 0 };
        let per_server = |f: &dyn Fn(u16) -> Region| -> Vec<RegionHandle> {
            (0..servers_per_node).map(|s| map.handle(f(s as u16))).collect()
        };
        NodeWorkload {
            node,
            runs_lgwr,
            runs_dbwr,
            params: Arc::clone(&params),
            shared,
            schema,
            sga,
            h_meta: map.handle(Region::MetaHot),
            h_log: map.handle(Region::LogRing),
            h_shared_read: map.handle(Region::SharedRead),
            h_kernel_shared: map.handle(Region::KernelShared),
            h_kernel_node: map.handle(Region::KernelNode { node }),
            h_pga: per_server(&|server| Region::Pga { node, server }),
            h_work: per_server(&|server| Region::WorkArea { node, server }),
            h_kstack: per_server(&|server| Region::KernelStack { node, server }),
            map,
            db_code,
            kernel_code,
            meta_zipf,
            shared_read_zipf,
            rng,
            servers,
            cur_server: 0,
            rounds: 0,
            last_dbwr_round: 0,
            lgwr_flushed_bytes: 0,
            history_seq: 0,
            io_seq: 0,
            txns_local: 0,
            daemon_db_cursor,
            daemon_kernel_cursor,
            daemon_recent: RecentLines::default(),
            buf: Vec::with_capacity(burst_bound(&params, runs_lgwr, runs_dbwr)),
            buf_head: 0,
            uload_private: prob_threshold(params.w_uload_private / uload_total),
            uload_meta: prob_threshold(
                (params.w_uload_private + params.w_uload_meta) / uload_total,
            ),
            uload_work: prob_threshold(
                (params.w_uload_private + params.w_uload_meta + params.w_uload_work) / uload_total,
            ),
            ustore_private: prob_threshold(params.w_ustore_private / ustore_total),
            ustore_meta: prob_threshold(
                (params.w_ustore_private + params.w_ustore_meta) / ustore_total,
            ),
            k_stack: prob_threshold(params.w_k_stack / k_total),
            k_node: prob_threshold((params.w_k_stack + params.w_k_node) / k_total),
            t_load: prob_threshold(params.p_load),
            t_either: prob_threshold(params.p_load + params.p_store),
            t_reuse: prob_threshold(params.bg_reuse),
            t_kshared: prob_threshold(params.k_shared_store_fraction),
        }
    }

    /// This stream's node id.
    pub fn node(&self) -> u8 {
        self.node
    }

    /// Transactions committed by this node's servers.
    pub fn node_transactions(&self) -> u64 {
        self.txns_local
    }

    /// The machine-wide shared workload state.
    pub fn shared(&self) -> &SharedOltpState {
        &self.shared
    }

    /// A cloneable handle to the shared workload state (e.g. for counting
    /// transactions from outside the stream).
    pub fn shared_handle(&self) -> Arc<SharedOltpState> {
        Arc::clone(&self.shared)
    }

    // ---- low-level emission helpers -------------------------------------

    /// Appends one packed word to the burst buffer. The buffer was
    /// allocated with room for the largest burst, so the push writes
    /// into that room and the whole refill cone stays heap-free.
    #[inline]
    fn emit(&mut self, word: u64) {
        debug_assert!(self.buf.len() < self.buf.capacity(), "a burst outgrew burst_bound");
        // The bursts_stay_within_the_bound test holds that bound: it drives
        // every recipe, with every instruction taking a data reference.
        self.buf.push(word);
    }

    #[inline]
    fn emit_data(&mut self, addr: Addr, write: bool, mode: ExecMode) {
        let access = if write { Access::Store } else { Access::Load };
        self.emit(MemRef::new(addr, access, mode).pack());
    }

    #[inline]
    fn meta_addr(&self, line: u64) -> Addr {
        self.h_meta.line_addr(line)
    }

    /// Acquire-release style latch access: read then write the lock line.
    fn touch_lock(&mut self, kind: LockKind, id: u64) {
        let addr = self.meta_addr(self.sga.lock_line(kind, id));
        self.emit_data(addr, false, ExecMode::User);
        self.emit_data(addr, true, ExecMode::User);
    }

    /// Buffer-header lookup plus touch-count update.
    fn touch_header(&mut self, table: Table, block: u64) {
        let addr = self.meta_addr(self.sga.buffer_header_line(table, block));
        self.emit_data(addr, false, ExecMode::User);
        self.emit_data(addr, true, ExecMode::User);
    }

    /// Appends `bytes` of redo to the global log ring (write-shared tail).
    fn append_redo(&mut self, bytes: u64) {
        let start = self.shared.log_tail_bytes.fetch_add(bytes, Relaxed);
        let first = start / 64;
        let last = (start + bytes - 1) / 64;
        for line in first..=last {
            let ring_line = line % self.sga.log_ring_lines();
            let addr = self.h_log.line_addr(ring_line);
            self.emit_data(addr, true, ExecMode::User);
        }
    }

    /// Emits `n` instructions of straight-line-plus-jump code with the
    /// background data mix.
    fn run_code(&mut self, kernel: bool, server: u16, n: u64) {
        let mode = if kernel { ExecMode::Kernel } else { ExecMode::User };
        let code = if kernel { Arc::clone(&self.kernel_code) } else { Arc::clone(&self.db_code) };
        let (t_load, t_either) = (self.t_load, self.t_either);
        let mut cursor = self.cursor_for(kernel, server);
        for _ in 0..n {
            let addr = code.step(&mut cursor, &mut self.rng, &self.map);
            self.emit(MemRef::new(addr, Access::InstrFetch, mode).pack());
            let roll = self.rng.next_u64() >> 11;
            if roll < t_load {
                let a = self.background_target(kernel, server, false);
                self.emit_data(a, false, mode);
            } else if roll < t_either {
                let a = self.background_target(kernel, server, true);
                self.emit_data(a, true, mode);
            }
        }
        self.store_cursor(kernel, server, cursor);
    }

    // analyze: total — server ids other than the daemon sentinel are the round-robin cursor reduced modulo servers.len()
    fn cursor_for(&self, kernel: bool, server: u16) -> CodeCursor {
        if server == u16::MAX {
            if kernel {
                self.daemon_kernel_cursor
            } else {
                self.daemon_db_cursor
            }
        } else if kernel {
            self.servers[server as usize].kernel_cursor
        } else {
            self.servers[server as usize].db_cursor
        }
    }

    // analyze: total — server ids other than the daemon sentinel are the round-robin cursor reduced modulo servers.len()
    fn store_cursor(&mut self, kernel: bool, server: u16, cursor: CodeCursor) {
        if server == u16::MAX {
            if kernel {
                self.daemon_kernel_cursor = cursor;
            } else {
                self.daemon_db_cursor = cursor;
            }
        } else if kernel {
            self.servers[server as usize].kernel_cursor = cursor;
        } else {
            self.servers[server as usize].db_cursor = cursor;
        }
    }

    /// Picks the target of a background data reference, preferring a
    /// recently used line with probability `bg_reuse`.
    // analyze: total — server_idx is a modulo-reduced server id and the per-server home arrays (h_kstack, h_pga, h_work) hold one region per server
    fn background_target(&mut self, kernel: bool, server: u16, write: bool) -> Addr {
        if self.rng.next_u64() >> 11 < self.t_reuse {
            let idx = self.rng.gen_range_usize(0..4);
            let recent = if server == u16::MAX {
                &self.daemon_recent
            } else {
                &self.servers[server as usize].recent
            };
            if let Some(addr) = recent.pick(idx) {
                return addr;
            }
        }
        let addr = self.fresh_background_target(kernel, server, write);
        if server == u16::MAX {
            self.daemon_recent.note(addr);
        } else {
            self.servers[server as usize].recent.note(addr);
        }
        addr
    }

    /// Picks a fresh background target from the mode's region mix.
    // analyze: total — server_idx is a modulo-reduced server id and the per-server home arrays (h_kstack, h_pga, h_work) hold one region per server
    fn fresh_background_target(&mut self, kernel: bool, server: u16, write: bool) -> Addr {
        let server_idx = if server == u16::MAX { 0 } else { server };
        if kernel {
            if write && self.rng.next_u64() >> 11 < self.t_kshared {
                let line = self.rng.gen_range(0..self.params.kernel_shared_lines);
                return self.h_kernel_shared.line_addr(line);
            }
            let roll = self.rng.next_u64() >> 11;
            if roll < self.k_stack {
                let line = self.rng.gen_range(0..self.params.kernel_stack_lines);
                self.h_kstack[server_idx as usize].line_addr(line)
            } else if roll < self.k_node {
                let line = self.rng.gen_range(0..self.params.kernel_node_lines);
                self.h_kernel_node.line_addr(line)
            } else {
                let line = self.rng.gen_range(0..self.params.kernel_shared_lines);
                self.h_kernel_shared.line_addr(line)
            }
        } else if write {
            let roll = self.rng.next_u64() >> 11;
            if roll < self.ustore_private {
                let line = self.rng.gen_range(0..self.params.pga_hot_lines);
                self.h_pga[server_idx as usize].line_addr(line)
            } else if roll < self.ustore_meta {
                let n = self.rng.next_u64() >> 11;
                self.meta_addr(self.meta_zipf.sample_u53(n))
            } else {
                let line = self.rng.gen_range(0..self.params.work_area_lines);
                self.h_work[server_idx as usize].line_addr(line)
            }
        } else {
            let roll = self.rng.next_u64() >> 11;
            if roll < self.uload_private {
                let line = self.rng.gen_range(0..self.params.pga_hot_lines);
                self.h_pga[server_idx as usize].line_addr(line)
            } else if roll < self.uload_meta {
                let n = self.rng.next_u64() >> 11;
                self.meta_addr(self.meta_zipf.sample_u53(n))
            } else if roll < self.uload_work {
                let line = self.rng.gen_range(0..self.params.work_area_lines);
                self.h_work[server_idx as usize].line_addr(line)
            } else {
                let n = self.rng.next_u64() >> 11;
                let line = self.shared_read_zipf.sample_u53(n);
                self.h_shared_read.line_addr(line)
            }
        }
    }

    // ---- phase bursts ----------------------------------------------------

    /// Kernel burst: receive the client request over the pipe.
    fn burst_pipe(&mut self, s: u16) {
        self.run_code(true, s, self.params.txn_pipe_instrs);
        // Pipe buffer and wakeup touches in per-node kernel data.
        for _ in 0..2 {
            let line = self.rng.gen_range(0..self.params.kernel_node_lines);
            let addr = self.h_kernel_node.line_addr(line);
            self.emit_data(addr, false, ExecMode::Kernel);
            self.emit_data(addr, true, ExecMode::Kernel);
        }
        // Choose the transaction the client submitted.
        let teller = self.schema.pick_teller(&mut self.rng);
        let branch = self.schema.branch_of_teller(teller);
        let account = self.schema.pick_account(&mut self.rng, branch);
        // analyze: total — server ids other than the daemon sentinel are the round-robin cursor reduced modulo servers.len()
        let srv = &mut self.servers[s as usize];
        srv.teller = teller;
        srv.branch = branch;
        srv.account = account;
        srv.phase = Phase::Execute;
    }

    /// Database burst: the TPC-B updates.
    // analyze: total — server_idx is a modulo-reduced server id and the per-server home arrays (h_kstack, h_pga, h_work) hold one region per server
    fn burst_execute(&mut self, s: u16) {
        let (teller, branch, account) = {
            let srv = &self.servers[s as usize];
            (srv.teller, srv.branch, srv.account)
        };
        let chunk = (self.params.txn_db_instrs / 12).max(1);

        // Begin: transaction-table slot.
        self.run_code(false, s, chunk);
        let slot = self.meta_addr(self.sga.txn_slot_line(self.node, s));
        self.emit_data(slot, true, ExecMode::User);

        // Account update: lock, header, row read-modify-write, undo, redo.
        self.run_code(false, s, chunk);
        self.touch_lock(LockKind::Account, account);
        let arow = self.schema.account_row(account);
        self.touch_header(Table::Account, arow.block);
        self.run_code(false, s, 2 * chunk);
        let aaddr = self.map.line_addr(Region::AccountBlocks, arow.row_line);
        self.emit_data(aaddr, false, ExecMode::User);
        self.run_code(false, s, chunk);
        self.emit_data(aaddr, true, ExecMode::User);
        self.shared.push_dirty(aaddr);
        let undo = {
            let line = self.rng.gen_range(0..self.params.pga_hot_lines);
            self.h_pga[s as usize].line_addr(line)
        };
        self.emit_data(undo, true, ExecMode::User);
        self.append_redo(REDO_BYTES_PER_UPDATE);

        // Teller update.
        self.run_code(false, s, chunk);
        self.touch_lock(LockKind::Teller, teller);
        let trow = self.schema.teller_row(teller);
        self.touch_header(Table::Teller, trow.block);
        let taddr = self.map.line_addr(Region::TellerBlocks, trow.row_line);
        self.emit_data(taddr, false, ExecMode::User);
        self.emit_data(taddr, true, ExecMode::User);
        self.append_redo(REDO_BYTES_PER_UPDATE);

        // Branch update (the migratory hot spot).
        self.run_code(false, s, 2 * chunk);
        self.touch_lock(LockKind::Branch, branch);
        let brow = self.schema.branch_row(branch);
        self.touch_header(Table::Branch, brow.block);
        let baddr = self.map.line_addr(Region::BranchBlocks, brow.row_line);
        self.emit_data(baddr, false, ExecMode::User);
        self.emit_data(baddr, true, ExecMode::User);
        self.append_redo(REDO_BYTES_PER_UPDATE);

        // History append (cold stream) + LRU list maintenance.
        self.run_code(false, s, chunk);
        let hrow = self.schema.history_row(self.history_seq);
        self.history_seq += 1;
        self.touch_header(Table::History, hrow.block);
        let haddr = self.map.line_addr(Region::HistoryBlocks { node: self.node }, hrow.row_line);
        self.emit_data(haddr, true, ExecMode::User);
        self.touch_lock(LockKind::LruList, u64::from(self.node) & 0x3);
        self.append_redo(REDO_BYTES_PER_UPDATE);

        // Release locks, close out.
        self.run_code(false, s, 2 * chunk);
        self.touch_lock(LockKind::Account, account);
        self.touch_lock(LockKind::Teller, teller);
        self.touch_lock(LockKind::Branch, branch);
        self.run_code(false, s, chunk);
        self.emit_data(slot, true, ExecMode::User);

        self.servers[s as usize].phase = Phase::Commit;
    }

    /// Commit burst: redo commit record, log syscall.
    fn burst_commit(&mut self, s: u16) {
        let db_part = self.params.txn_commit_instrs / 3;
        self.run_code(false, s, db_part);
        self.append_redo(REDO_BYTES_PER_UPDATE / 2);
        self.touch_lock(LockKind::LogControl, 0);
        self.run_code(true, s, self.params.txn_commit_instrs - db_part);
        self.shared.pending_commits.fetch_add(1, Relaxed);
        self.shared.txns_completed.fetch_add(1, Relaxed);
        self.txns_local += 1;
        // analyze: total — server ids other than the daemon sentinel are the round-robin cursor reduced modulo servers.len()
        self.servers[s as usize].phase = Phase::Pipe;
    }

    /// Context-switch burst: scheduler code plus run-queue updates.
    fn burst_switch(&mut self) {
        let s = self.cur_server as u16;
        self.run_code(true, s, self.params.switch_instrs);
        let line = self.rng.gen_range(0..self.params.kernel_node_lines);
        let addr = self.h_kernel_node.line_addr(line);
        self.emit_data(addr, false, ExecMode::Kernel);
        self.emit_data(addr, true, ExecMode::Kernel);
    }

    /// Log-writer burst (node 0): harvest the redo written since the last
    /// flush — 3-hop reads of lines dirtied by every node — and stage it
    /// to cold I/O buffers.
    fn burst_lgwr(&mut self) {
        let half = self.params.lgwr_instrs / 2;
        self.run_code(false, u16::MAX, half);
        let tail = self.shared.log_tail_bytes.load(Relaxed);
        let first_line = self.lgwr_flushed_bytes / 64;
        let last_line = tail / 64;
        let span = (last_line - first_line).min(LGWR_HARVEST_LINES);
        for l in 0..span {
            let ring_line = (first_line + l) % self.sga.log_ring_lines();
            let addr = self.h_log.line_addr(ring_line);
            self.emit_data(addr, false, ExecMode::User);
        }
        self.lgwr_flushed_bytes = tail;
        self.run_code(true, u16::MAX, self.params.lgwr_instrs - half);
        for _ in 0..DAEMON_IO_LINES {
            let addr = self.map.line_addr(Region::IoBuffer { node: self.node }, self.io_seq);
            self.io_seq += 1;
            self.emit_data(addr, true, ExecMode::Kernel);
        }
        self.touch_lock(LockKind::LogControl, 0);
        // Relaxed is enough: this resets the commit-batch counter, and
        // peers only compare it against the batch threshold, so a stale
        // read merely delays one lgwr burst.
        self.shared.pending_commits.store(0, Relaxed);
    }

    /// Database-writer burst: scan buffer headers and flush recently
    /// dirtied block lines (3-hop reads of other nodes' stores).
    fn burst_dbwr(&mut self) {
        let half = self.params.dbwr_instrs / 2;
        self.run_code(false, u16::MAX, half);
        for _ in 0..DBWR_SCAN_LINES {
            let n = self.rng.next_u64() >> 11;
            let addr = self.meta_addr(self.meta_zipf.sample_u53(n));
            self.emit_data(addr, false, ExecMode::User);
        }
        let mut victims = [0u64; DBWR_FLUSH_LINES];
        let flushed = self.shared.pop_dirty_into(&mut victims);
        // analyze: total — flushed <= victims.len() by pop_dirty_into's contract (it writes at most out.len() entries)
        for &addr in &victims[..flushed] {
            self.emit_data(addr, false, ExecMode::User);
        }
        self.run_code(true, u16::MAX, self.params.dbwr_instrs - half);
        for _ in 0..DAEMON_IO_LINES {
            let addr = self.map.line_addr(Region::IoBuffer { node: self.node }, self.io_seq);
            self.io_seq += 1;
            self.emit_data(addr, true, ExecMode::Kernel);
        }
    }

    /// Produces the next scheduling burst into the buffer. Cold relative
    /// to the per-reference pop in `next_ref` (a burst is thousands of
    /// references), so it is kept out of the consumer's inlined fast path.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        // Publish the host profiler's burst-refill region for the
        // duration of the burst, restoring the enclosing region on exit
        // (idle on the workload pipeline's producer thread, the advance
        // loop when the simulator pulls the stream directly). Two
        // relaxed stores per burst of thousands of references.
        let enclosing = csim_trace::hostprof::current_region();
        csim_trace::hostprof::set_region(csim_trace::hostprof::Region::BurstRefill);
        self.refill_burst();
        csim_trace::hostprof::set_region(enclosing);
    }

    // Hot by measurement, not position: host profiling attributed ~28%
    // of simulator wall time to burst refill (ROADMAP item 1), so the
    // purity lint fences the whole cone: integer-only arithmetic
    // (fixed-point thresholds, `ZipfTable::sample_u53`) and preallocated
    // storage (`emit` into the fixed burst buffer, stack scratch for the
    // dbwr flush) — no allocation or float findings are deferred.
    fn refill_burst(&mut self) {
        debug_assert!(self.buf.is_empty(), "refill into a non-empty burst buffer");
        if self.runs_lgwr
            && self.shared.pending_commits.load(Relaxed) >= self.params.lgwr_batch
        {
            self.burst_lgwr();
            self.burst_switch();
            return;
        }
        if self.runs_dbwr
            && self.rounds > 0
            && self.rounds - self.last_dbwr_round >= self.params.dbwr_period
        {
            self.last_dbwr_round = self.rounds;
            self.burst_dbwr();
            self.burst_switch();
            return;
        }
        let s = self.cur_server as u16;
        // analyze: total — server ids other than the daemon sentinel are the round-robin cursor reduced modulo servers.len()
        match self.servers[s as usize].phase {
            Phase::Pipe => self.burst_pipe(s),
            Phase::Execute => self.burst_execute(s),
            Phase::Commit => self.burst_commit(s),
        }
        self.burst_switch();
        self.cur_server = (self.cur_server + 1) % self.servers.len();
        self.rounds += 1;
    }
}

impl ReferenceStream for NodeWorkload {
    #[inline]
    fn next_ref(&mut self) -> MemRef {
        loop {
            if let Some(&word) = self.buf.get(self.buf_head) {
                self.buf_head += 1;
                return MemRef::unpack(word);
            }
            self.buf.clear();
            self.buf_head = 0;
            self.refill();
        }
    }

    /// Hands out the buffered burst as whole packed slices.
    ///
    /// Satisfies the [`ReferenceStream::next_burst`] contract by
    /// construction: a refill happens only when the buffer is empty —
    /// exactly when `next_ref` would refill — so generation (and every
    /// RNG draw and shared-state mutation inside it) occurs at the same
    /// stream positions under either consumption style, and the words
    /// handed out are the same bytes `next_ref` would unpack.
    #[inline]
    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        debug_assert!(!out.is_empty());
        while self.buf_head == self.buf.len() {
            self.buf.clear();
            self.buf_head = 0;
            self.refill();
        }
        // The words not yet handed out: buf_head never passes buf.len(),
        // since a refill starts from an empty buffer and buf_head only
        // advances over words handed out.
        let rest = self.buf.get(self.buf_head..).unwrap_or_default();
        let n = rest.len().min(out.len());
        // analyze: total — n is the smaller of the two slices' lengths
        out[..n].copy_from_slice(&rest[..n]);
        self.buf_head += n;
        n
    }
}

#[cfg(test)]
#[expect(clippy::field_reassign_with_default, reason = "each case perturbs one default field")]
mod tests {
    use super::*;
    use csim_trace::Access;

    fn one_node() -> NodeWorkload {
        OltpWorkload::build(OltpParams::default(), 1).unwrap().remove(0)
    }

    #[test]
    fn build_validates_node_count() {
        assert!(OltpWorkload::build(OltpParams::default(), 0).is_err());
        assert!(OltpWorkload::build(OltpParams::default(), 65).is_err());
        assert_eq!(OltpWorkload::build(OltpParams::default(), 8).unwrap().len(), 8);
    }

    #[test]
    fn build_validates_params() {
        let mut p = OltpParams::default();
        p.branches = 0;
        assert!(OltpWorkload::build(p, 1).is_err());
    }

    #[test]
    fn stream_produces_references_forever() {
        let mut w = one_node();
        for _ in 0..200_000 {
            let r = w.next_ref();
            assert!(r.addr < 1 << 46);
        }
    }

    #[test]
    fn kernel_share_is_roughly_a_quarter() {
        // The paper reports ~25% of execution in the kernel.
        let mut w = one_node();
        let mut kernel = 0u64;
        let n = 500_000;
        for _ in 0..n {
            if w.next_ref().mode == ExecMode::Kernel {
                kernel += 1;
            }
        }
        let frac = kernel as f64 / n as f64;
        assert!((0.15..0.40).contains(&frac), "kernel fraction {frac}");
    }

    #[test]
    fn data_mix_matches_probabilities() {
        let mut w = one_node();
        let (mut i, mut l, mut s) = (0u64, 0u64, 0u64);
        for _ in 0..500_000 {
            match w.next_ref().access {
                Access::InstrFetch => i += 1,
                Access::Load => l += 1,
                Access::Store => s += 1,
            }
        }
        let loads_per_instr = l as f64 / i as f64;
        let stores_per_instr = s as f64 / i as f64;
        // Background mix plus scripted references: rates sit at or a
        // little above the configured per-instruction probabilities.
        let p = OltpParams::default();
        assert!(
            (p.p_load..p.p_load + 0.10).contains(&loads_per_instr),
            "loads/instr {loads_per_instr}"
        );
        assert!(
            (p.p_store..p.p_store + 0.08).contains(&stores_per_instr),
            "stores/instr {stores_per_instr}"
        );
    }

    #[test]
    fn transactions_complete_and_are_counted() {
        let mut w = one_node();
        // One transaction is ~15k instructions across 3 bursts of 8
        // servers; run enough references for several commits.
        for _ in 0..2_000_000 {
            w.next_ref();
        }
        assert!(w.node_transactions() > 10, "txns {}", w.node_transactions());
        assert_eq!(w.shared().transactions_completed(), w.node_transactions());
    }

    #[test]
    fn streams_are_deterministic() {
        let collect = || {
            let mut w = one_node();
            (0..100_000).map(|_| w.next_ref()).collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn nodes_differ_but_share_the_log() {
        let mut nodes = OltpWorkload::build(OltpParams::default(), 2).unwrap();
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let ra: Vec<MemRef> = (0..50_000).map(|_| a.next_ref()).collect();
        let rb: Vec<MemRef> = (0..50_000).map(|_| b.next_ref()).collect();
        assert_ne!(ra, rb, "different nodes must produce different streams");
        // Both nodes committed into the same shared counter.
        assert_eq!(
            a.shared().transactions_completed(),
            b.shared().transactions_completed()
        );
    }

    /// Runs `refills` refills on each of `nodes` streams built from
    /// `params`, round by round, checking every burst against its
    /// stream's [`burst_bound`] and the buffer's capacity against its
    /// first value. Each stream's longest burst and bound.
    fn longest_bursts(params: &OltpParams, nodes: usize, refills: usize) -> Vec<(usize, usize)> {
        let mut streams = OltpWorkload::build(params.clone(), nodes).unwrap();
        let mut seen: Vec<(usize, usize)> =
            streams.iter().map(|w| (0, burst_bound(params, w.runs_lgwr, w.runs_dbwr))).collect();
        let caps: Vec<usize> = streams.iter().map(|w| w.buf.capacity()).collect();
        for _ in 0..refills {
            for ((w, (longest, bound)), &cap) in streams.iter_mut().zip(&mut seen).zip(&caps) {
                w.buf.clear();
                w.buf_head = 0;
                w.refill();
                assert!(
                    w.buf.len() <= *bound,
                    "node {}: {} words, bound {bound}",
                    w.node,
                    w.buf.len()
                );
                assert_eq!(w.buf.capacity(), cap, "node {}: the burst buffer grew", w.node);
                *longest = (*longest).max(w.buf.len());
            }
        }
        seen
    }

    #[test]
    fn bursts_stay_within_the_bound() {
        // The widest mix the validator accepts: every instruction takes a
        // data reference, so every recipe emits its most words.
        let wide = OltpParams { p_load: 0.6, p_store: 0.4, ..OltpParams::default() };
        // Each recipe a handful of instructions, so the scripted
        // references decide the bound: the execute burst's twelve chunks
        // round up to one instruction each, the log writer harvests a
        // full backlog, the database writer runs every round.
        let tiny = OltpParams {
            txn_db_instrs: 5,
            txn_pipe_instrs: 0,
            txn_commit_instrs: 3,
            switch_instrs: 1,
            lgwr_instrs: 1,
            lgwr_batch: 16,
            dbwr_instrs: 2,
            dbwr_period: 1,
            ..wide.clone()
        };
        for (params, refills) in [(wide, 800), (tiny, 4_000)] {
            longest_bursts(&params, 1, refills);
            // The bound is the recipes' exact tally, not a guess: on
            // every node of the 8-node machine some burst meets it. (On
            // one node the redo tail's offsets never let all four row
            // records of a burst span three lines.)
            for (node, (longest, bound)) in
                longest_bursts(&params, 8, refills / 8).into_iter().enumerate()
            {
                assert_eq!(longest, bound, "node {node}");
            }
        }
    }

    #[test]
    fn daemons_run_on_their_nodes() {
        let nodes = OltpWorkload::build(OltpParams::default(), 4).unwrap();
        assert!(nodes[0].runs_lgwr);
        assert!(!nodes[1].runs_lgwr);
        assert!(nodes[1].runs_dbwr);
        assert!(!nodes[0].runs_dbwr);
        let uni = OltpWorkload::build(OltpParams::default(), 1).unwrap();
        assert!(uni[0].runs_lgwr && uni[0].runs_dbwr);
    }
}
