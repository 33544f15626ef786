//! The simulation engine.

use csim_cache::Cache;
use csim_check::Sanitizer;
use csim_coherence::{Directory, FillSource, LineState, NodeId, NodeSet};
use csim_config::{LatencyTable, SystemConfig, LINE_SIZE, PAGE_SIZE};
use csim_fault::{FaultInjector, FaultStats, TransactionKind};
use csim_obs::{EpochSnapshot, Event, EventKind, MissClass, Observer};
use csim_proc::{ExecBreakdown, StallClass, Timing, TimingModel};
use csim_prof::Attribution;
use csim_trace::hostprof::{self, Region};
use csim_trace::pipeline::{pipeline, PipeStream, CHUNK_WORDS};
use csim_trace::{ReferenceStream, PACKED_ACCESS_SHIFT, PACKED_ADDR_MASK};
use csim_workload::{NodeWorkload, OltpParams, OltpWorkload};

use crate::error::{CoherenceViolation, SimError};
use crate::report::{MissBreakdown, RacStats, SimReport};

/// The directory's node-set representation caps the machine size.
const MAX_NODES: usize = 64;

/// One processor core: private L1s, a timing model, and its share of the
/// execution-time breakdown.
#[derive(Debug)]
struct Core {
    l1i: Cache,
    l1d: Cache,
    timing: Timing,
    bd: ExecBreakdown,
    /// The line of the most recent instruction fetch, valid only while it
    /// is still resident at the MRU position of its L1I set (every L1I
    /// mutation either retargets or clears it). Straight-line code fetches
    /// the same line many times in a row, so this memo resolves the common
    /// fetch with one compare instead of a set probe; see
    /// [`Cache::record_repeat_read_hit`] for why the outcome is identical.
    last_ifetch_line: u64,
}

/// `last_ifetch_line` value meaning "no memoized fetch": larger than any
/// line index (addresses are 46-bit, lines 40-bit).
const NO_IFETCH_MEMO: u64 = u64::MAX;

/// Column depth of the dispatch loop: how many packed references are
/// gathered from a stream per [`ReferenceStream::next_burst`] call, so
/// per-call dispatch overhead (the call, buffer bounds checks, stats
/// flushes, loop setup) amortizes across the column. The workload's
/// scheduling bursts are thousands of references, far deeper than the
/// column, so the depth is set by measurement, not by the bursts: 512
/// beat a 64-deep column by ~1% end-to-end, mostly because the
/// repeat-fetch run scanner splits fewer runs at column boundaries,
/// and deeper columns measured flat. It is also the pipeline's chunk
/// size ([`csim_trace::pipeline::CHUNK_WORDS`]), so one pull fills one
/// column.
const BURST_COLS: usize = CHUNK_WORDS;

/// Per-node (per-chip) simulation state: the cores, the shared L2/RAC,
/// and miss counters. With `cores_per_node = 1` this is exactly the
/// paper's machine; more cores model the chip multiprocessor its
/// conclusion suggests.
#[derive(Debug)]
struct Node {
    cores: Vec<Core>,
    l2: Cache,
    rac: Option<Cache>,
    misses: MissBreakdown,
    rac_stats: RacStats,
    upgrades: u64,
}

/// The full-system simulator: one cache hierarchy per node, a shared
/// directory, and the latency table of the configuration under test.
///
/// Generic over the reference stream so unit tests can drive it with
/// hand-built traces; experiments use [`Simulation::with_oltp`].
pub struct Simulation<S = PipeStream> {
    summary: String,
    latencies: LatencyTable,
    replicate_instructions: bool,
    nodes: Vec<Node>,
    streams: Vec<S>,
    dir: Directory,
    refs_run: u64,
    /// Reads the workload's transaction count as of the dispatch
    /// position from the streams (set by [`Simulation::with_oltp`]).
    txn_source: Option<fn(&[S]) -> u64>,
    txn_baseline: u64,
    injector: Option<FaultInjector>,
    observer: Observer,
    /// Cycle attribution (`--prof`), off by default. Like the observer
    /// it is strictly read-only with respect to the simulation: every
    /// latency the observer records is also split into per-component
    /// contributions here, and nothing ever reads the split back into
    /// simulated state — a run with attribution on is bit-identical to
    /// one without.
    attr: Option<Box<Attribution>>,
    sanitizer: Option<Box<Sanitizer>>,
    /// Per-stream gathered columns (`streams.len() * BURST_COLS` packed
    /// words, stream `s` at `s * BURST_COLS`), preallocated so the hot
    /// dispatch loop never touches the heap. Empty (head == len per
    /// stream) between `advance` calls, and moved out of `self` during
    /// one.
    batch_cols: Vec<u64>,
    /// Index into `batch_cols` one past the last valid word of each
    /// stream's column.
    batch_len: Vec<u32>,
    /// Index into `batch_cols` of the next word of each stream's column.
    batch_head: Vec<u32>,
}

impl Simulation<PipeStream> {
    /// Builds a simulation of `cfg` running the synthetic OLTP workload,
    /// generated on a producer thread ahead of the dispatch loop
    /// ([`csim_trace::pipeline`]). The reports are bit-identical to a
    /// [`Simulation::try_new`] run over the same [`OltpWorkload::build`]
    /// streams with the transaction count read from their shared state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Params`] when the workload parameters are
    /// invalid, [`SimError::TooManyNodes`] when the configuration
    /// exceeds the directory's machine-size limit, and
    /// [`SimError::Spawn`] when the producer thread cannot start.
    pub fn with_oltp(cfg: &SystemConfig, params: OltpParams) -> Result<Self, SimError> {
        let streams = OltpWorkload::build(params, cfg.total_cores())?;
        // build() makes at least one stream, but the handle lookup stays
        // total regardless.
        let shared = streams.first().map(NodeWorkload::shared_handle);
        let piped = pipeline(streams, move || {
            shared.as_ref().map_or(0, |s| s.transactions_completed())
        })
        .map_err(|e| SimError::Spawn(e.to_string()))?;
        let mut sim = Simulation::try_new(cfg, piped)?;
        sim.txn_source = Some(PipeStream::latest_tag);
        Ok(sim)
    }
}

impl Simulation<NodeWorkload> {
    /// [`Simulation::with_oltp`] without the pipeline: the workload
    /// generates on the simulator's own thread. Same reports; for
    /// callers that already keep every core busy, like a sweep with a
    /// worker per core.
    ///
    /// # Errors
    ///
    /// As [`Simulation::with_oltp`], less the producer thread's.
    pub fn with_oltp_direct(cfg: &SystemConfig, params: OltpParams) -> Result<Self, SimError> {
        let streams = OltpWorkload::build(params, cfg.total_cores())?;
        let mut sim = Simulation::try_new(cfg, streams)?;
        sim.txn_source =
            Some(|s| s.first().map_or(0, |w| w.shared().transactions_completed()));
        Ok(sim)
    }
}

impl<S: ReferenceStream> Simulation<S> {
    /// Builds a simulation of `cfg` fed by the given per-node streams,
    /// reporting invalid combinations as values instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::StreamCountMismatch`] unless `streams.len() ==
    /// cfg.total_cores()`; [`SimError::TooManyNodes`] beyond the
    /// directory's 64-node limit.
    pub fn try_new(cfg: &SystemConfig, streams: Vec<S>) -> Result<Self, SimError> {
        if streams.len() != cfg.total_cores() {
            return Err(SimError::StreamCountMismatch {
                streams: streams.len(),
                cores: cfg.total_cores(),
            });
        }
        if cfg.n_nodes() > MAX_NODES {
            return Err(SimError::TooManyNodes { nodes: cfg.n_nodes(), max: MAX_NODES });
        }
        let nodes = (0..cfg.n_nodes())
            .map(|_| Node {
                cores: (0..cfg.cores_per_node())
                    .map(|_| Core {
                        l1i: Cache::new(cfg.l1i()),
                        l1d: Cache::new(cfg.l1d()),
                        timing: Timing::for_model(cfg.processor()),
                        bd: ExecBreakdown::default(),
                        last_ifetch_line: NO_IFETCH_MEMO,
                    })
                    .collect(),
                l2: Cache::new(cfg.l2().geometry),
                rac: cfg.rac().map(|r| Cache::new(r.geometry)),
                misses: MissBreakdown::default(),
                rac_stats: RacStats::default(),
                upgrades: 0,
            })
            .collect();
        let n_streams = streams.len();
        Ok(Simulation {
            summary: cfg.summary(),
            latencies: cfg.latencies(),
            replicate_instructions: cfg.replicate_instructions(),
            nodes,
            streams,
            dir: Directory::new(cfg.n_nodes() as u8, LINE_SIZE, PAGE_SIZE),
            refs_run: 0,
            txn_source: None,
            txn_baseline: 0,
            injector: None,
            observer: Observer::disabled(),
            attr: None,
            sanitizer: None,
            batch_cols: vec![0; n_streams * BURST_COLS],
            batch_len: vec![0; n_streams],
            batch_head: vec![0; n_streams],
        })
    }

    /// Wires a fault injector into the simulation (builder style). An
    /// injector whose plan is [`csim_fault::FaultPlan::none`] never
    /// perturbs the run: the reports are bit-identical to a simulation
    /// without one.
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Wires a fault injector into an existing simulation.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Fault counters accumulated so far, when an injector is wired in.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.injector.as_ref().map(FaultInjector::stats)
    }

    /// Wires an observer into the simulation (builder style). The
    /// observer is strictly read-only with respect to the simulation:
    /// wiring one in — enabled or not — leaves every [`SimReport`]
    /// bit-identical to a run without it.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Wires an observer into an existing simulation.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Enables cycle attribution (builder style): every latency charged
    /// from here on is split into per-component contributions (L1
    /// probe, L2 array, directory, NoC hops, MC queue, fault extra) per
    /// miss class. Same contract as the observer: purely read-only, so
    /// reports stay bit-identical to a run without it.
    pub fn with_attribution(mut self) -> Self {
        self.set_attribution(true);
        self
    }

    /// Enables or disables cycle attribution on an existing simulation.
    /// Enabling resets any previous accumulation.
    pub fn set_attribution(&mut self, on: bool) {
        self.attr =
            if on { Some(Box::new(Attribution::new(self.latencies.l2_hit))) } else { None };
    }

    /// The accumulated cycle attribution, when enabled.
    pub fn attribution(&self) -> Option<&Attribution> {
        self.attr.as_deref()
    }

    /// Enables the runtime coherence sanitizer (builder style): every
    /// directory transition is cross-checked against an independent
    /// executable spec of the protocol, on a shadow copy of the
    /// directory. Enable it *before* the first reference runs — the
    /// shadow can only vouch for histories it has seen from reset.
    ///
    /// Zero-overhead contract: with the sanitizer off (the default),
    /// every [`SimReport`] is bit-identical to a build that never heard
    /// of it; on, the simulated machine is unchanged and only host time
    /// is spent.
    pub fn with_sanitizer(mut self) -> Self {
        self.set_sanitize(true);
        self
    }

    /// Enables or disables the sanitizer on an existing simulation.
    /// Turning it on mid-run discards nothing but starts a fresh shadow,
    /// which is only sound at reset; prefer enabling it at construction.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitizer = if on { Some(Box::new(Sanitizer::new())) } else { None };
    }

    /// Number of directory transitions the sanitizer has cross-checked,
    /// when it is enabled.
    pub fn sanitizer_checks(&self) -> Option<u64> {
        self.sanitizer.as_deref().map(Sanitizer::checks)
    }

    /// Audits the sanitizer's verdict: the first latched per-transition
    /// divergence if any, then a full shadow-vs-live directory sweep.
    /// `Ok(())` when the sanitizer is disabled.
    ///
    /// # Errors
    ///
    /// [`SimError::Sanitizer`] describing the first divergence.
    pub fn verify_sanitizer(&self) -> Result<(), SimError> {
        match self.sanitizer.as_deref() {
            None => Ok(()),
            Some(sz) => sz.verify_shadow(&self.dir).map_err(SimError::from),
        }
    }

    /// The observer (disabled by default), for reading back what it
    /// recorded.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Ends the simulation, keeping only its observer: the machine, the
    /// streams and the workload's producer thread are freed here.
    pub fn into_observer(self) -> Observer {
        self.observer
    }

    /// Number of simulated nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Runs `refs_per_node` rounds (one reference per core each) to
    /// populate caches and directory state, then clears all statistics.
    pub fn warm_up(&mut self, refs_per_node: u64) {
        self.advance(refs_per_node);
        self.reset_stats();
    }

    /// Runs `refs_per_node` rounds (one reference per core per round, so
    /// each node runs `refs_per_node` times its core count) and reports
    /// what happened.
    pub fn run(&mut self, refs_per_node: u64) -> SimReport {
        self.advance(refs_per_node);
        self.report(refs_per_node)
    }

    /// Strict mode: like [`Simulation::run`], but re-checks the
    /// machine-wide coherence invariants every `check_every` rounds (and
    /// once at the end), so a protocol bug is caught near the reference
    /// that introduced it instead of at the end of a long run.
    /// `check_every` is clamped to at least 1.
    ///
    /// # Errors
    ///
    /// The first [`CoherenceViolation`] found, wrapped in
    /// [`SimError::Coherence`].
    pub fn run_verified(
        &mut self,
        refs_per_node: u64,
        check_every: u64,
    ) -> Result<SimReport, SimError> {
        let every = check_every.max(1);
        let mut remaining = refs_per_node;
        while remaining > 0 {
            let chunk = remaining.min(every);
            self.advance(chunk);
            self.verify_coherence()?;
            self.verify_sanitizer()?;
            remaining -= chunk;
        }
        self.verify_coherence()?;
        self.verify_sanitizer()?;
        Ok(self.report(refs_per_node))
    }

    /// Clears every statistic (breakdowns, miss counts, cache and
    /// directory counters) without touching simulated state.
    pub fn reset_stats(&mut self) {
        for node in &mut self.nodes {
            for core in &mut node.cores {
                core.bd = ExecBreakdown::default();
                core.l1i.reset_stats();
                core.l1d.reset_stats();
            }
            node.misses = MissBreakdown::default();
            node.rac_stats = RacStats::default();
            node.upgrades = 0;
            node.l2.reset_stats();
            if let Some(rac) = &mut node.rac {
                rac.reset_stats();
            }
        }
        self.dir.reset_stats();
        if let Some(inj) = &mut self.injector {
            inj.reset_stats();
        }
        self.observer.reset();
        if let Some(attr) = &mut self.attr {
            **attr = Attribution::new(self.latencies.l2_hit);
        }
        self.refs_run = 0;
        self.txn_baseline = self.txn_source.map_or(0, |count| count(&self.streams));
    }

    /// Runs `rounds` dispatch rounds. A round hands every stream's next
    /// reference to its core, in stream order (stream `n * cores_per_node
    /// + c` is core `c` of node `n`), and then advances the logical clock
    /// `refs_run` by one: the fault model and event timestamps read it.
    ///
    /// References are gathered a [`BURST_COLS`]-deep column per stream
    /// ([`ReferenceStream::next_burst`]) and dispatched in spans: runs of
    /// rounds in which no column runs dry and no epoch closes. At the
    /// start of a span every empty column refills, in stream order,
    /// capped at the rounds left in the call, so the scratch holds no
    /// words between calls. A column is pulled only when its round needs
    /// the stream's next word, so the pulls happen in (round, stream)
    /// order, and a stream that generates only when its own buffer is
    /// empty generates at the same positions, in the same order across
    /// streams, as one `next_ref` per round would;
    /// `tests/batch_identity.rs` proves it against a stream whose
    /// bursts are one word long, which makes every round a span of its
    /// own. With [`Simulation::with_oltp`] the streams are pipeline
    /// consumers: the generation runs ahead on a producer thread that
    /// keeps that same order without knowing the run length
    /// ([`csim_trace::pipeline`]), and a pull here only copies words
    /// out of a ring; `tests/pipeline_identity.rs` proves the reports
    /// equal to the direct streams'.
    // analyze: hot
    // analyze: total — stream s owns batch_cols[s*BURST_COLS..][..BURST_COLS] and next_burst returns 1..=cap words by its trait contract, so every head and len stay inside that window and the span fits every column; try_new builds one stream per core on equal-sized nodes, so the node/core counters stay on the grid
    fn advance(&mut self, rounds: u64) {
        // Publish the host profiler's region once per advance call (one
        // relaxed store, amortized over the call's rounds).
        hostprof::set_region(Region::Advance);
        // The columns leave `self` for the call, so the span bodies read a
        // local slice that `access` cannot alias (~2% less CPU on one
        // stream than indexing `self.batch_cols`, 2-core x86-64 host).
        let mut cols = std::mem::take(&mut self.batch_cols);
        let (period, mut to_epoch) = self.epoch_countdown();
        let mut remaining = rounds;
        while remaining > 0 {
            let cap = remaining.min(BURST_COLS as u64) as usize;
            let mut span = remaining.min(to_epoch);
            for s in 0..self.streams.len() {
                if self.batch_head[s] == self.batch_len[s] {
                    let base = s * BURST_COLS;
                    let got = self.streams[s].next_burst(&mut cols[base..base + cap]);
                    self.batch_head[s] = base as u32;
                    self.batch_len[s] = (base + got) as u32;
                }
                span = span.min(u64::from(self.batch_len[s] - self.batch_head[s]));
            }
            let (base, span) = (self.refs_run, span as usize);
            if self.streams.len() == 1 {
                let head = self.batch_head[0] as usize;
                self.span_one_stream(&cols[head..head + span]);
            } else {
                // Round by round, in stream order, with the node and core
                // counters stepping along with `s` (nested node and core
                // loops cost ~6% more CPU on 8 nodes, 2-core x86-64 host).
                let cores_per_node = self.nodes[0].cores.len();
                for i in 0..span {
                    self.refs_run = base + i as u64;
                    let (mut n, mut c) = (0, 0);
                    for s in 0..self.streams.len() {
                        let word = cols[self.batch_head[s] as usize + i];
                        self.access(n, c, word);
                        c += 1;
                        if c == cores_per_node {
                            c = 0;
                            n += 1;
                        }
                    }
                }
            }
            for head in &mut self.batch_head {
                *head += span as u32;
            }
            self.refs_run = base + span as u64;
            remaining -= span as u64;
            to_epoch -= span as u64;
            if to_epoch == 0 {
                self.close_epoch();
                to_epoch = period;
            }
        }
        self.batch_cols = cols;
        hostprof::set_region(Region::Idle);
    }

    /// One span on the one-stream machine, which adds the repeat-fetch
    /// run scanner: straight-line code fetches back-to-back words of one
    /// line, and such a run retires as one batched call. Kept out of
    /// line so the uniprocessor loop's code generation does not depend
    /// on the interleaved body beside it: inlined there, it has measured
    /// from flat to about 7% slower on one stream.
    // analyze: hot
    // analyze: total — try_new rejects zero-core configs, so node 0 has core 0; col is indexed below col.len()
    #[inline(never)]
    fn span_one_stream(&mut self, col: &[u64]) {
        let base = self.refs_run;
        let mut i = 0;
        while i < col.len() {
            let word = col[i];
            // `word >> 6` (line, access kind and mode together) being
            // equal proves the whole run would take the fetch memo lane
            // of `access`. Bit-identity of the batch is the documented
            // contract of `retire_instructions` /
            // `record_repeat_read_hits`, and the lane reads no clock.
            if word >> PACKED_ACCESS_SHIFT & 0x3 == 0 {
                let line = (word & PACKED_ADDR_MASK) / LINE_SIZE;
                if line == self.nodes[0].cores[0].last_ifetch_line {
                    let key = word >> 6;
                    let mut k = 1;
                    while i + k < col.len() && col[i + k] >> 6 == key {
                        k += 1;
                    }
                    self.retire_ifetch_run(0, 0, k as u64);
                    i += k;
                    continue;
                }
            }
            self.refs_run = base + i as u64;
            self.access(0, 0, word);
            i += 1;
        }
    }

    /// The epoch length and the references left until the next epoch
    /// boundary: the dispatch loop counts down instead of dividing every
    /// round. Without epochs the length is `u64::MAX`, a boundary no run
    /// reaches.
    fn epoch_countdown(&self) -> (u64, u64) {
        let period = self.observer.epoch_len().unwrap_or(u64::MAX);
        (period, period - self.refs_run % period)
    }

    /// Hands the observer a cumulative snapshot of the machine-wide
    /// counters at an epoch boundary. O(nodes x cores): cheap relative
    /// to the epoch of work it closes.
    // analyze: cold — epoch-boundary bookkeeping: snapshots machine-wide counters once per epoch (thousands of references), never per reference
    fn close_epoch(&mut self) {
        let mut breakdown = ExecBreakdown::default();
        let mut misses = 0;
        let mut upgrades = 0;
        for node in &self.nodes {
            for core in &node.cores {
                breakdown.merge(&core.bd);
            }
            misses += node.misses.total();
            upgrades += node.upgrades;
        }
        self.observer.close_epoch(EpochSnapshot {
            refs_per_node: self.refs_run,
            breakdown,
            misses,
            upgrades,
            nacks: self.dir.stats().nacks,
            faults: self.injector.as_ref().map(|i| *i.stats()).unwrap_or_default(),
            retry_rho: self.injector.as_ref().map_or(0.0, FaultInjector::retry_utilization),
        });
    }

    fn report(&self, refs_per_node: u64) -> SimReport {
        let mut breakdown = ExecBreakdown::default();
        let mut misses = MissBreakdown::default();
        let mut rac = RacStats::default();
        let mut upgrades = 0;
        let mut l1i = csim_cache::CacheStats::default();
        let mut l1d = csim_cache::CacheStats::default();
        let mut per_node = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut node_bd = ExecBreakdown::default();
            for core in &node.cores {
                node_bd.merge(&core.bd);
                l1i.merge(core.l1i.stats());
                l1d.merge(core.l1d.stats());
            }
            per_node.push(node_bd);
            breakdown.merge(&node_bd);
            misses.merge(&node.misses);
            rac.merge(&node.rac_stats);
            upgrades += node.upgrades;
        }
        let transactions =
            self.txn_source.map_or(0, |count| count(&self.streams) - self.txn_baseline);
        SimReport {
            config_summary: self.summary.clone(),
            breakdown,
            per_node,
            misses,
            directory: *self.dir.stats(),
            l1i,
            l1d,
            rac,
            upgrades,
            transactions,
            refs_per_node,
            faults: self.injector.as_ref().map(|i| *i.stats()).unwrap_or_default(),
        }
    }

    // ---- the per-reference pipeline --------------------------------------

    /// Charges one directory/memory transaction to a core, routing the
    /// fault-free latency through the fault injector (NACK/retry, link
    /// degradation, memory-controller busy periods) when one is wired
    /// in. Pure L2 hits never come through here — they involve neither
    /// the directory nor a memory controller.
    fn charge(&mut self, n: usize, c: usize, class: StallClass, base: u64, obs: MissClass, line: u64) {
        let (latency, faults) = match &mut self.injector {
            None => (base, None),
            Some(inj) => {
                let kind = match class {
                    StallClass::L2Hit | StallClass::Local => TransactionKind::LocalMemory,
                    StallClass::RemoteClean => TransactionKind::RemoteClean,
                    StallClass::RemoteDirty => TransactionKind::RemoteDirty,
                };
                let before = *inj.stats();
                let latency = inj.transaction_latency(self.refs_run, kind, base);
                (latency, Some(inj.stats().delta(&before)))
            }
        };
        if let Some(d) = &faults {
            if d.nacks > 0 {
                // NACK outcomes are protocol events: surface them in
                // the directory counters alongside the rest.
                self.dir.record_nacks(d.nacks);
            }
            self.note_fault_outcomes(n, c, line, d);
        }
        self.observer.record_latency(obs, latency);
        if let Some(attr) = &mut self.attr {
            attr.record(obs, class, base, latency);
        }
        if self.observer.wants_events() {
            self.observer.record_event(Event {
                at: self.refs_run,
                node: n as u16,
                core: c as u16,
                line,
                kind: EventKind::Miss { class: obs, latency },
            });
        }
        // analyze: total — node and core ids come from the dispatch loop's walk over the node grid built in try_new
        let core = &mut self.nodes[n].cores[c];
        core.timing.stall(class, latency, &mut core.bd);
    }

    /// Surfaces what the fault injector did to one transaction in the
    /// observer: the NACK/retry extra cycles feed the
    /// [`MissClass::NackRetry`] histogram, and each outcome becomes a
    /// traced event.
    fn note_fault_outcomes(&mut self, n: usize, c: usize, line: u64, d: &FaultStats) {
        if d.nacks == 0 && d.watchdog_trips == 0 {
            return;
        }
        if d.nacks > 0 {
            self.observer.record_latency(MissClass::NackRetry, d.retry_cycles);
            if let Some(attr) = &mut self.attr {
                attr.record_nack(d.retry_cycles);
            }
        }
        if !self.observer.wants_events() {
            return;
        }
        let (at, node, core) = (self.refs_run, n as u16, c as u16);
        if d.nacks > 0 {
            self.observer.record_event(Event {
                at,
                node,
                core,
                line,
                kind: EventKind::Nack { count: d.nacks as u32 },
            });
        }
        if d.retries > 0 {
            self.observer.record_event(Event {
                at,
                node,
                core,
                line,
                kind: EventKind::Retry { count: d.retries as u32 },
            });
        }
        if d.watchdog_trips > 0 {
            self.observer.record_event(Event { at, node, core, line, kind: EventKind::Watchdog });
        }
    }

    /// A dirty line leaves node `n` for its home: directory writeback,
    /// the fault model's NACK dice for the fire-and-forget message
    /// (NACKs surface in the directory counters), and a traced
    /// writeback event.
    fn writeback(&mut self, n: usize, line: u64) {
        let wb = self.dir.writeback(line, n as NodeId);
        debug_assert!(wb.is_ok(), "simulator issued an illegal writeback: {wb:?}");
        if let Some(sz) = self.sanitizer.as_deref_mut() {
            sz.on_writeback(&self.dir, line, n as NodeId, wb);
        }
        if let Some(inj) = &mut self.injector {
            let nacks_before = inj.stats().nacks;
            inj.writeback();
            let nacked = inj.stats().nacks - nacks_before;
            if nacked > 0 {
                self.dir.record_nacks(nacked);
                if self.observer.wants_events() {
                    self.observer.record_event(Event {
                        at: self.refs_run,
                        node: n as u16,
                        core: 0,
                        line,
                        kind: EventKind::Nack { count: nacked as u32 },
                    });
                }
            }
        }
        if self.observer.wants_events() {
            self.observer.record_event(Event {
                at: self.refs_run,
                node: n as u16,
                core: 0,
                line,
                kind: EventKind::Writeback,
            });
        }
    }

    /// Retires a detected run of `k` back-to-back repeat fetches of the
    /// memoized instruction line: one batched timing call and one batched
    /// L1I hit-counter bump, bit-identical to `k` trips through the
    /// fetch memo lane of [`Simulation::access`] (the contracts of
    /// [`TimingModel::retire_instructions`] and
    /// [`Cache::record_repeat_read_hits`](csim_cache::Cache)).
    #[inline]
    fn retire_ifetch_run(&mut self, n: usize, c: usize, k: u64) {
        // analyze: total — node and core ids come from the dispatch loop's walk over the node grid built in try_new
        let core = &mut self.nodes[n].cores[c];
        core.timing.retire_instructions(k, &mut core.bd);
        core.l1i.record_repeat_read_hits(k);
    }

    /// Runs one packed reference word through the memory system. The
    /// line and access class read straight out of the word's bits (the
    /// hierarchy never looks at the mode). Split for inlining: this
    /// front half — the retire, the fetch memo and the L1 probe, which
    /// together resolve the vast majority of references — inlines into
    /// both span bodies of the dispatch loop, while everything past the
    /// L1 (ownership walks, the L2 and the miss machinery) stays behind
    /// the [`Simulation::access_below_l1`] call so the loop body keeps
    /// only the code that usually runs.
    #[inline(always)]
    fn access(&mut self, n: usize, c: usize, word: u64) {
        let line = (word & PACKED_ADDR_MASK) / LINE_SIZE;
        let class = word >> PACKED_ACCESS_SHIFT & 0x3;
        let (is_ifetch, write) = (class == 0, class == 2);
        // Retire + L1 probe share one bounds-checked core borrow: this
        // runs once per reference, so the double index was measurable.
        let (l1_hit, owned) = {
            // analyze: total — node and core ids come from the dispatch loop's walk over the node grid built in try_new
            let core = &mut self.nodes[n].cores[c];
            if is_ifetch {
                core.timing.retire_instruction(&mut core.bd);
                // Consecutive fetches of one line resolve on the memo;
                // see the `last_ifetch_line` field docs.
                if line == core.last_ifetch_line {
                    core.l1i.record_repeat_read_hit();
                    return;
                }
            }
            // A store that hits an L1 line this core owns needs no
            // ownership walk: the owned bit is set only by stores, which
            // leave the node's L2 copy modified, and cleared on every
            // core of the node when a remote read downgrades that copy
            // (`downgrade_owner`), so owned proves L2-dirty and
            // `ensure_ownership` would return immediately — at the price
            // of a probe into the much larger L2 slot array. The read of
            // the bit is fused into the store's own probe.
            if write {
                let (outcome, owned) = core.l1d.access_store_was_owned(line);
                (outcome.is_hit(), owned)
            } else {
                let l1 = if is_ifetch { &mut core.l1i } else { &mut core.l1d };
                let hit = l1.access(line, false).is_hit();
                if is_ifetch && hit {
                    core.last_ifetch_line = line;
                }
                (hit, false)
            }
        };
        if l1_hit && (!write || owned) {
            debug_assert!(
                !owned || self.nodes[n].l2.is_dirty(line),
                "owned L1 line {line:#x} is clean in the L2"
            );
            return;
        }
        self.access_below_l1(n, c, line, is_ifetch, write, l1_hit);
    }

    /// The slow back half of [`Simulation::access`]: an L1 write
    /// hit still needing the ownership walk, or an L1 miss heading into
    /// the L2 and the coherence machinery.
    // analyze: cold — the miss path runs once per L1 miss (or owned-store walk), not once per reference, and reaches the sanitizer's messages, observer events and directory slab growth on purpose
    // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
    #[inline(never)]
    fn access_below_l1(
        &mut self,
        n: usize,
        c: usize,
        line: u64,
        is_ifetch: bool,
        write: bool,
        l1_hit: bool,
    ) {
        if l1_hit {
            self.ensure_ownership(n, c, line);
            return;
        }

        // L2 (presence/recency only; dirtiness is managed by the
        // coherence flow below).
        let l2_hit = self.nodes[n].l2.access(line, false).is_hit();
        if l2_hit {
            if write {
                self.ensure_ownership(n, c, line);
            }
            let latency = self.latencies.l2_hit;
            self.observer.record_latency(MissClass::L2Hit, latency);
            if let Some(attr) = &mut self.attr {
                attr.record(MissClass::L2Hit, StallClass::L2Hit, latency, latency);
            }
            if self.observer.wants_events() {
                self.observer.record_event(Event {
                    at: self.refs_run,
                    node: n as u16,
                    core: c as u16,
                    line,
                    kind: EventKind::Miss { class: MissClass::L2Hit, latency },
                });
            }
            let core = &mut self.nodes[n].cores[c];
            core.timing.stall(StallClass::L2Hit, latency, &mut core.bd);
            let l1 = if is_ifetch { &mut core.l1i } else { &mut core.l1d };
            let _ = l1.insert(line, write);
            if is_ifetch {
                core.last_ifetch_line = line;
            }
            return;
        }

        self.l2_miss(n, c, line, is_ifetch, write);
    }

    /// A store touched a line the node caches: if the L2 copy is not
    /// modified, obtain ownership (invalidate other sharers).
    ///
    /// Cost model: a purely local ownership update (home here, nobody to
    /// invalidate) is free; otherwise the store stalls for a local or
    /// 2-hop directory transaction. Upgrades are counted separately from
    /// L2 misses, as in the paper.
    // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
    fn ensure_ownership(&mut self, n: usize, c: usize, line: u64) {
        if self.nodes[n].l2.is_dirty(line) {
            return;
        }
        let out = self.dir.write_miss(line, n as NodeId);
        debug_assert!(
            out.previous_owner.is_none(),
            "a cached line cannot be modified elsewhere (line {line:#x})"
        );
        if let Some(sz) = self.sanitizer.as_deref_mut() {
            sz.on_write_miss(&self.dir, line, n as NodeId, &out);
        }
        self.invalidate_nodes(n, out.invalidate, line);
        let node = &mut self.nodes[n];
        node.l2.mark_dirty(line);
        node.upgrades += 1;
        let local = out.home == n as NodeId;
        if local && out.invalidate.is_empty() {
            // Purely local ownership update: free, so it is invisible to
            // the latency observer too (no MissClass::Upgrade record).
            return;
        }
        let (class, latency) = if local {
            (StallClass::Local, self.latencies.local)
        } else {
            (StallClass::RemoteClean, self.latencies.remote_clean)
        };
        self.charge(n, c, class, latency, MissClass::Upgrade, line);
    }

    // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
    fn l2_miss(&mut self, n: usize, c: usize, line: u64, is_ifetch: bool, write: bool) {
        // OS-replicated instruction pages: every node has a private local
        // copy; no coherence involvement, so only the local memory
        // controller (never the directory) can slow the fetch down.
        if is_ifetch && self.replicate_instructions {
            let mut latency = self.latencies.local;
            if let Some(inj) = &mut self.injector {
                latency += inj.memory_fetch_extra(self.refs_run);
            }
            self.observer.record_latency(MissClass::Local, latency);
            if let Some(attr) = &mut self.attr {
                // Anything the injector added beyond the fault-free
                // local latency is attributed as fault extra.
                attr.record(MissClass::Local, StallClass::Local, self.latencies.local, latency);
            }
            if self.observer.wants_events() {
                self.observer.record_event(Event {
                    at: self.refs_run,
                    node: n as u16,
                    core: c as u16,
                    line,
                    kind: EventKind::Miss { class: MissClass::Local, latency },
                });
            }
            let node = &mut self.nodes[n];
            let core = &mut node.cores[c];
            core.timing.stall(StallClass::Local, latency, &mut core.bd);
            node.misses.instr_local += 1;
            self.fill(n, c, line, false, is_ifetch, write);
            return;
        }

        let home = self.dir.home(line);
        let remote_home = home != n as NodeId;

        // Remote access cache: probed for remote lines after an L2 miss.
        if remote_home {
            if let Some(rac) = self.nodes[n].rac.as_mut() {
                if rac.access(line, false).is_hit() {
                    self.rac_hit(n, c, line, is_ifetch, write);
                    return;
                }
                self.nodes[n].rac_stats.misses += 1;
            }
        }

        // Directory transaction.
        let (source, cold, downgraded, invalidate, previous_owner) = if write {
            let out = self.dir.write_miss(line, n as NodeId);
            if let Some(sz) = self.sanitizer.as_deref_mut() {
                sz.on_write_miss(&self.dir, line, n as NodeId, &out);
            }
            (out.source, out.cold, None, out.invalidate, out.previous_owner)
        } else {
            let out = self.dir.read_miss(line, n as NodeId);
            if let Some(sz) = self.sanitizer.as_deref_mut() {
                sz.on_read_miss(&self.dir, line, n as NodeId, &out);
            }
            (out.source, out.cold, out.downgraded_owner, NodeSet::empty(), None)
        };

        // Remote-side actions.
        if let Some(owner) = downgraded {
            self.downgrade_owner(owner, line, source);
        }
        if let Some(owner) = previous_owner {
            self.invalidate_all_at(owner as usize, line);
        }
        self.invalidate_nodes(n, invalidate, line);

        // Classify, charge, count.
        let (class, latency) = match source {
            FillSource::OwnerCache { in_rac, .. } => (
                StallClass::RemoteDirty,
                if in_rac { self.latencies.remote_dirty_in_rac } else { self.latencies.remote_dirty },
            ),
            FillSource::Home => {
                if remote_home {
                    (StallClass::RemoteClean, self.latencies.remote_clean)
                } else {
                    (StallClass::Local, self.latencies.local)
                }
            }
        };
        self.charge(n, c, class, latency, MissClass::from_stall(class), line);
        {
            let node = &mut self.nodes[n];
            match (is_ifetch, class) {
                (true, StallClass::Local) => node.misses.instr_local += 1,
                (true, _) => node.misses.instr_remote += 1,
                (false, StallClass::Local) => node.misses.data_local += 1,
                (false, StallClass::RemoteClean) => node.misses.data_remote_clean += 1,
                (false, _) => node.misses.data_remote_dirty += 1,
            }
            if cold {
                node.misses.cold += 1;
            }
        }

        self.fill(n, c, line, write, is_ifetch, write);

        // Fill-on-fetch into the RAC for remote lines (clean copy; a later
        // dirty L2 eviction refreshes it).
        if remote_home && self.nodes[n].rac.is_some() && !write {
            self.rac_fill(n, line);
        }
    }

    /// Service an L2 miss from the node's own RAC (data lives in local
    /// memory: local-latency, counted as a local miss).
    // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
    fn rac_hit(&mut self, n: usize, c: usize, line: u64, is_ifetch: bool, write: bool) {
        let parked_dirty = matches!(
            self.dir.state(line),
            LineState::Modified { owner, in_rac: true } if owner == n as NodeId
        );
        {
            let node = &mut self.nodes[n];
            node.rac_stats.hits += 1;
            if is_ifetch {
                node.misses.instr_local += 1;
            } else {
                node.misses.data_local += 1;
            }
        }
        if parked_dirty {
            // Our own modified line comes back from the RAC into the L2.
            let refetched = self.dir.owner_refetched_from_rac(line, n as NodeId);
            debug_assert!(refetched.is_ok(), "illegal RAC refetch: {refetched:?}");
            if let Some(sz) = self.sanitizer.as_deref_mut() {
                sz.on_rac_refetch(&self.dir, line, n as NodeId, refetched);
            }
            if let Some(rac) = self.nodes[n].rac.as_mut() {
                rac.invalidate(line);
            }
            self.charge(n, c, StallClass::Local, self.latencies.rac_hit, MissClass::Local, line);
            self.fill(n, c, line, true, is_ifetch, write);
            return;
        }
        if write {
            // Clean RAC copy but the store needs ownership: 2-hop upgrade
            // at the (remote) home, data supplied locally by the RAC.
            let out = self.dir.write_miss(line, n as NodeId);
            debug_assert!(out.previous_owner.is_none(), "valid RAC copy excludes a remote owner");
            if let Some(sz) = self.sanitizer.as_deref_mut() {
                sz.on_write_miss(&self.dir, line, n as NodeId, &out);
            }
            self.invalidate_nodes(n, out.invalidate, line);
            self.nodes[n].upgrades += 1;
            let latency = self.latencies.remote_clean;
            self.charge(n, c, StallClass::RemoteClean, latency, MissClass::Upgrade, line);
            self.fill(n, c, line, true, is_ifetch, write);
            return;
        }
        self.charge(n, c, StallClass::Local, self.latencies.rac_hit, MissClass::Local, line);
        self.fill(n, c, line, false, is_ifetch, write);
    }

    /// Install a line into the L2 (and requesting L1), handling the L2
    /// victim: inclusion invalidations, dirty writeback or RAC parking.
    // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
    fn fill(&mut self, n: usize, c: usize, line: u64, dirty: bool, is_ifetch: bool, write: bool) {
        let victim = self.nodes[n].l2.insert(line, dirty);
        if let Some(v) = victim {
            for core in &mut self.nodes[n].cores {
                core.l1i.invalidate(v.line);
                core.l1d.invalidate(v.line);
                if core.last_ifetch_line == v.line {
                    core.last_ifetch_line = NO_IFETCH_MEMO;
                }
            }
            if v.dirty {
                let victim_home = self.dir.home(v.line);
                let parkable = victim_home != n as NodeId;
                match self.nodes[n].rac.as_mut() {
                    Some(rac) if parkable => {
                        // Park the dirty victim in the RAC; a full RAC set
                        // first writes back its own dirty victim.
                        let displaced = if rac.mark_dirty(v.line) {
                            None
                        } else {
                            rac.insert(v.line, true)
                        };
                        let parked = self.dir.owner_moved_to_rac(v.line, n as NodeId);
                        debug_assert!(parked.is_ok(), "illegal RAC park: {parked:?}");
                        if let Some(sz) = self.sanitizer.as_deref_mut() {
                            sz.on_rac_park(&self.dir, v.line, n as NodeId, parked);
                        }
                        if let Some(rv) = displaced {
                            if rv.dirty {
                                self.writeback(n, rv.line);
                            }
                        }
                    }
                    _ => self.writeback(n, v.line),
                }
            }
        }
        let core = &mut self.nodes[n].cores[c];
        let l1 = if is_ifetch { &mut core.l1i } else { &mut core.l1d };
        let _ = l1.insert(line, write);
        if is_ifetch {
            core.last_ifetch_line = line;
        }
    }

    /// Install a clean copy of a freshly fetched remote line into the RAC.
    fn rac_fill(&mut self, n: usize, line: u64) {
        // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
        let Some(rac) = self.nodes[n].rac.as_mut() else { return };
        // The caller's RAC probe just missed, and the fill in between
        // can only park the L2's victim, never this line.
        debug_assert!(!rac.contains(line), "RAC fill of resident line {line:#x}");
        if let Some(rv) = rac.insert(line, false) {
            if rv.dirty {
                self.writeback(n, rv.line);
            }
        }
    }

    /// A remote read found this node's dirty copy: downgrade M -> S (the
    /// protocol writes the data back to the home as part of the 3-hop
    /// transaction).
    fn downgrade_owner(&mut self, owner: NodeId, line: u64, source: FillSource) {
        let in_rac = matches!(source, FillSource::OwnerCache { in_rac: true, .. });
        // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
        let node = &mut self.nodes[owner as usize];
        if in_rac {
            let cleaned = node.rac.as_mut().map(|r| r.clean(line)).unwrap_or(false);
            debug_assert!(cleaned, "directory said the owner's copy is in its RAC");
        } else {
            let cleaned = node.l2.clean(line);
            debug_assert!(cleaned, "directory said the owner's copy is in its L2");
            // The L2 copy is clean now, so no L1 of the node may keep
            // claiming ownership (the owned-store shortcut in
            // `access`); the L1 data stays dirty.
            for core in &mut node.cores {
                core.l1d.disown(line);
            }
        }
        if self.observer.wants_events() {
            self.observer.record_event(Event {
                at: self.refs_run,
                node: owner as u16,
                core: 0,
                line,
                kind: EventKind::Downgrade,
            });
        }
    }

    /// Checks the coherence invariants of the whole machine, returning
    /// the first violation found as a typed [`CoherenceViolation`]. Used
    /// by property tests and strict mode ([`Simulation::run_verified`]);
    /// O(total cache capacity + directory size).
    ///
    /// Invariants:
    /// 1. `Modified{owner, in_rac: false}` ⇒ the owner's L2 holds the
    ///    line dirty.
    /// 2. `Modified{owner, in_rac: true}` ⇒ the owner's RAC holds the
    ///    line dirty.
    /// 3. A line not `Modified` is dirty in no L2 and no RAC.
    /// 4. L1 contents are a subset of the L2 (inclusion).
    ///
    /// # Errors
    ///
    /// The first violated invariant, with the line and location.
    // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
    pub fn verify_coherence(&self) -> Result<(), CoherenceViolation> {
        for (line, state) in self.dir.iter() {
            match state {
                LineState::Modified { owner, in_rac: false } => {
                    if !self.nodes[owner as usize].l2.is_dirty(line) {
                        return Err(CoherenceViolation::NotDirtyInOwnerL2 { line, owner });
                    }
                }
                LineState::Modified { owner, in_rac: true } => {
                    let ok = self.nodes[owner as usize]
                        .rac
                        .as_ref()
                        .map(|r| r.is_dirty(line))
                        .unwrap_or(false);
                    if !ok {
                        return Err(CoherenceViolation::NotDirtyInOwnerRac { line, owner });
                    }
                }
                LineState::Shared(_) | LineState::Uncached => {
                    for (n, node) in self.nodes.iter().enumerate() {
                        if node.l2.is_dirty(line) {
                            return Err(CoherenceViolation::DirtyWithoutOwnership {
                                line,
                                node: n,
                                structure: "L2",
                            });
                        }
                        if node.rac.as_ref().map(|r| r.is_dirty(line)).unwrap_or(false) {
                            return Err(CoherenceViolation::DirtyWithoutOwnership {
                                line,
                                node: n,
                                structure: "RAC",
                            });
                        }
                    }
                }
            }
        }
        for (n, node) in self.nodes.iter().enumerate() {
            for core in &node.cores {
                for line in core.l1i.resident_lines().chain(core.l1d.resident_lines()) {
                    if !node.l2.contains(line) {
                        return Err(CoherenceViolation::InclusionViolated { line, node: n });
                    }
                }
            }
        }
        Ok(())
    }

    /// Invalidates `line` at every node in `set` on behalf of writer
    /// `requester`, tracing one invalidation event covering the batch.
    fn invalidate_nodes(&mut self, requester: usize, set: NodeSet, line: u64) {
        for m in set {
            self.invalidate_all_at(m as usize, line);
        }
        if !set.is_empty() && self.observer.wants_events() {
            self.observer.record_event(Event {
                at: self.refs_run,
                node: requester as u16,
                core: 0,
                line,
                kind: EventKind::Invalidation { targets: set.len() },
            });
        }
    }

    fn invalidate_all_at(&mut self, m: usize, line: u64) {
        // analyze: total — node ids come from the dispatch loop's walk over the node grid (try_new) or are directory-reported homes/owners/sharers, which the directory reduces modulo the node count
        let node = &mut self.nodes[m];
        for core in &mut node.cores {
            core.l1i.invalidate(line);
            core.l1d.invalidate(line);
            if core.last_ifetch_line == line {
                core.last_ifetch_line = NO_IFETCH_MEMO;
            }
        }
        node.l2.invalidate(line);
        if let Some(rac) = &mut node.rac {
            rac.invalidate(line);
        }
    }
}

impl<S> std::fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("summary", &self.summary)
            .field("nodes", &self.nodes.len())
            .field("refs_run", &self.refs_run)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_config::{CacheGeometry, IntegrationLevel, RacConfig, SystemConfig};
    use csim_trace::{ExecMode, MemRef, SliceStream};

    const LPP: u64 = PAGE_SIZE / LINE_SIZE; // lines per page = 128

    /// Test shorthand for the fallible constructor: every fixture here
    /// pairs a config with a matching stream count.
    fn sim_new<S: ReferenceStream>(cfg: &SystemConfig, streams: Vec<S>) -> Simulation<S> {
        Simulation::try_new(cfg, streams).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Byte address of a line homed at `home` (given `n` nodes) with a
    /// distinguishing index `i`.
    fn addr_homed(home: u64, i: u64, n_nodes: u64) -> u64 {
        ((i * n_nodes + home) * LPP) * LINE_SIZE
    }

    fn tiny_cfg(n: usize) -> SystemConfig {
        // Small caches so tests can force evictions: 1 KB 1-way L1s,
        // 8 KB 2-way off-chip L2.
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.nodes(n).l1(l1).l2_off_chip(8192, 2);
        b.build().unwrap()
    }

    fn load(a: u64) -> MemRef {
        MemRef::load(a, ExecMode::User)
    }
    fn store(a: u64) -> MemRef {
        MemRef::store(a, ExecMode::User)
    }
    fn ifetch(a: u64) -> MemRef {
        MemRef::ifetch(a, ExecMode::User)
    }

    #[test]
    fn uniprocessor_load_miss_then_hits() {
        let cfg = tiny_cfg(1);
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[load(0)])]);
        let rep = sim.run(10);
        // First access misses to local memory; the rest hit in L1.
        assert_eq!(rep.misses.total(), 1);
        assert_eq!(rep.misses.data_local, 1);
        assert_eq!(rep.misses.cold, 1);
        assert_eq!(rep.breakdown.local_cycles, cfg.latencies().local as f64);
        assert_eq!(rep.breakdown.l2_hit_cycles, 0.0);
    }

    #[test]
    fn l1_conflict_produces_l2_hits() {
        let cfg = tiny_cfg(1);
        // Two lines that conflict in a 1 KB direct-mapped L1 (16 sets)
        // but coexist in the 2-way L2.
        let a = 0u64;
        let b = 16 * 64;
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[load(a), load(b)])]);
        sim.warm_up(4);
        let rep = sim.run(10);
        assert_eq!(rep.misses.total(), 0, "both lines live in the L2");
        // Every access after warmup alternates and hits L2, not L1.
        assert_eq!(rep.breakdown.l2_hit_cycles, 10.0 * cfg.latencies().l2_hit as f64);
    }

    #[test]
    fn instructions_count_busy_cycles() {
        let cfg = tiny_cfg(1);
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[ifetch(0)])]);
        let rep = sim.run(100);
        assert_eq!(rep.breakdown.instructions, 100);
        assert_eq!(rep.breakdown.busy_cycles, 100.0);
        assert_eq!(rep.misses.instr_local, 1);
    }

    #[test]
    fn producer_consumer_is_a_three_hop_miss() {
        let cfg = tiny_cfg(2);
        let a = addr_homed(0, 1, 2); // homed at node 0
        // Node 0 writes the line, node 1 reads it.
        let s0 = SliceStream::cycle(&[store(a)]);
        let s1 = SliceStream::cycle(&[load(a)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(1);
        // Node 0: cold write miss to its local home. Node 1: 3-hop dirty.
        assert_eq!(rep.per_node[0].local_cycles, cfg.latencies().local as f64);
        assert_eq!(rep.per_node[1].remote_dirty_cycles, cfg.latencies().remote_dirty as f64);
        assert_eq!(rep.misses.data_remote_dirty, 1);
        assert_eq!(rep.directory.three_hop_fills, 1);
        assert_eq!(rep.directory.downgrades, 1);
    }

    #[test]
    fn migratory_line_ping_pongs_as_dirty_misses() {
        let cfg = tiny_cfg(2);
        let a = addr_homed(0, 3, 2);
        let s0 = SliceStream::cycle(&[store(a)]);
        let s1 = SliceStream::cycle(&[store(a)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        sim.warm_up(1);
        let rep = sim.run(10);
        // Every store misses and finds the other node's dirty copy.
        assert_eq!(rep.misses.data_remote_dirty, 20);
        assert_eq!(rep.misses.total(), 20);
    }

    #[test]
    fn read_shared_line_hits_everywhere_after_first_fetch() {
        let cfg = tiny_cfg(4);
        let a = addr_homed(2, 1, 4);
        let streams: Vec<_> = (0..4).map(|_| SliceStream::cycle(&[load(a)])).collect();
        let mut sim = sim_new(&cfg, vec![
            streams[0].clone(),
            streams[1].clone(),
            streams[2].clone(),
            streams[3].clone(),
        ]);
        sim.warm_up(1);
        let rep = sim.run(50);
        assert_eq!(rep.misses.total(), 0, "read sharing costs nothing after the fetch");
    }

    #[test]
    fn store_to_shared_line_upgrades_and_invalidates() {
        let cfg = tiny_cfg(2);
        let a = addr_homed(0, 1, 2);
        let s0 = SliceStream::cycle(&[load(a), store(a)]);
        let s1 = SliceStream::cycle(&[load(a), load(a)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(2);
        // Node 0 read (cold, local), node 1 read (2-hop), node 0 store
        // (upgrade invalidating node 1).
        assert_eq!(rep.upgrades, 1);
        assert_eq!(rep.directory.invalidations_sent, 1);
        // The upgrade is not counted as an L2 miss...
        assert_eq!(rep.misses.total(), 3, "two initial reads + node 1 re-read after inval");
    }

    #[test]
    fn local_upgrade_with_no_sharers_is_free() {
        let cfg = tiny_cfg(1);
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[load(0), store(0)])]);
        let rep = sim.run(5);
        assert_eq!(rep.upgrades, 1, "first store upgrades; later stores own the line");
        // No stall was charged for the upgrade: only the initial cold
        // fetch contributes.
        assert_eq!(rep.breakdown.local_cycles, cfg.latencies().local as f64);
    }

    /// Runs `warm` rounds, which end with a remote read downgrading a
    /// line the streams' first node has stored to, then one round in
    /// which a core of that node stores to the line again and hits its
    /// still-dirty L1 copy. The downgrade must have disowned that copy,
    /// so the store upgrades.
    fn assert_store_hit_reupgrades(cfg: &SystemConfig, streams: Vec<SliceStream>, warm: u64) {
        let mut sim = sim_new(cfg, streams);
        let before = sim.run(warm);
        assert_eq!((before.directory.downgrades, before.upgrades), (1, 0));
        let rep = sim.run(1);
        assert_eq!(rep.upgrades, 1, "the store hit must re-acquire ownership");
        assert_eq!(rep.directory.write_misses, before.directory.write_misses + 1);
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn store_hit_after_remote_downgrade_reupgrades() {
        // Node 0 stores, node 1 reads (3-hop), node 0 stores again.
        let a = addr_homed(0, 1, 2);
        let other = |i: u64| a + i * LINE_SIZE; // same page, other L1 sets
        let streams = vec![
            SliceStream::cycle(&[store(a), load(other(1)), store(a)]),
            SliceStream::cycle(&[load(other(3)), load(a), load(other(3))]),
        ];
        assert_store_hit_reupgrades(&tiny_cfg(2), streams, 2);
    }

    #[test]
    fn store_hit_after_remote_downgrade_reupgrades_on_every_core() {
        // Two cores per chip: core 0 stores, core 1 reads the line from
        // the shared L2 and stores too (no upgrade: the L2 copy is
        // dirty), chip 1 reads (3-hop), core 1 stores again. The
        // downgrade must disown the line in every L1 of chip 0.
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.nodes(2).cores_per_node(2).l1(l1).l2_off_chip(8192, 2);
        let a = addr_homed(0, 1, 2);
        let other = |i: u64| a + i * LINE_SIZE;
        let streams = vec![
            SliceStream::cycle(&[store(a), load(other(1)), load(other(1)), load(other(1))]),
            SliceStream::cycle(&[load(a), store(a), load(other(2)), store(a)]),
            SliceStream::cycle(&[load(other(3)), load(other(3)), load(a), load(other(3))]),
            SliceStream::cycle(&[load(other(4)); 4]),
        ];
        assert_store_hit_reupgrades(&b.build().unwrap(), streams, 3);
    }

    #[test]
    fn writeback_turns_dirty_misses_into_clean_misses() {
        let cfg = tiny_cfg(2);
        // Node 0 dirties a line homed at node 1, then streams enough
        // conflicting lines through its tiny L2 to evict it (writeback).
        let a = addr_homed(1, 0, 2);
        let mut refs0 = vec![store(a)];
        // 8 KB 2-way L2 = 64 sets; lines a+64*sets*k conflict with a.
        for k in 1..=4 {
            refs0.push(load(a + 64 * 64 * k));
        }
        refs0.push(load(addr_homed(0, 50, 2))); // idle filler
        let s0 = SliceStream::cycle(&refs0);
        let s1 = SliceStream::cycle(&[load(addr_homed(1, 60, 2))]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        sim.run(6);
        // After node 0's eviction, the line is clean at its home: node 1
        // reading it now is a 2-hop (here: local-home for node 1) miss,
        // not a 3-hop.
        let s1b = SliceStream::cycle(&[load(a)]);
        let mut streams = vec![SliceStream::cycle(&[load(addr_homed(0, 50, 2))]), s1b];
        let _ = &mut streams;
        // Drive node 1's read through the same simulation by swapping its
        // stream is not supported; instead check directory state directly.
        assert_eq!(sim.dir.state(a / 64), LineState::Uncached, "dirty eviction wrote back home");
        assert!(sim.dir.stats().writebacks >= 1);
    }

    #[test]
    fn l2_eviction_invalidates_l1_inclusion() {
        let cfg = tiny_cfg(1);
        // Fill one L2 set (2-way, 64 sets) with 3 conflicting lines.
        let a = 0u64;
        let b = 64 * 64;
        let c = 2 * 64 * 64;
        let refs = [load(a), load(b), load(c), load(a)];
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&refs)]);
        let rep = sim.run(4);
        // `a` was evicted from L2 by `c` (LRU), so the final load of `a`
        // must miss again even though the L1 could still have held it.
        assert_eq!(rep.misses.total(), 4);
    }

    #[test]
    fn replication_makes_instruction_misses_local() {
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.nodes(2).l1(l1).l2_off_chip(8192, 2).replicate_instructions(true);
        let cfg = b.build().unwrap();
        // An instruction line homed at node 0, fetched by node 1.
        let a = addr_homed(0, 1, 2);
        let s0 = SliceStream::cycle(&[load(addr_homed(0, 9, 2))]);
        let s1 = SliceStream::cycle(&[ifetch(a)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(1);
        assert_eq!(rep.misses.instr_local, 1);
        assert_eq!(rep.misses.instr_remote, 0);
        assert_eq!(rep.per_node[1].local_cycles, cfg.latencies().local as f64);
    }

    #[test]
    fn without_replication_remote_instructions_are_two_hop() {
        let cfg = tiny_cfg(2);
        let a = addr_homed(0, 1, 2);
        let s0 = SliceStream::cycle(&[load(addr_homed(0, 9, 2))]);
        let s1 = SliceStream::cycle(&[ifetch(a)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(1);
        assert_eq!(rep.misses.instr_remote, 1);
    }

    fn rac_cfg() -> SystemConfig {
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let rac = RacConfig { geometry: CacheGeometry::new(16384, 2, 64).unwrap() };
        let mut b = SystemConfig::builder();
        b.nodes(2)
            .l1(l1)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(8192, 2)
            .rac(rac);
        b.build().unwrap()
    }

    #[test]
    fn rac_turns_refetches_of_remote_lines_local() {
        let cfg = rac_cfg();
        // Node 0 reads a remote line, then four conflicting lines (also
        // remote) to evict it from its 8 KB L2, then re-reads it.
        let a = addr_homed(1, 0, 2);
        let mut refs = vec![load(a)];
        for k in 1..=2 {
            refs.push(load(a + 64 * 64 * k)); // same L2 set, also homed remotely
        }
        refs.push(load(a));
        let s0 = SliceStream::cycle(&refs);
        let s1 = SliceStream::cycle(&[load(addr_homed(1, 70, 2))]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(4);
        // The re-read hit the RAC: counted local, charged rac_hit.
        assert_eq!(rep.rac.hits, 1);
        assert!(rep.per_node[0].local_cycles >= cfg.latencies().rac_hit as f64);
    }

    #[test]
    fn dirty_lines_park_in_the_rac_and_stay_owned() {
        let cfg = rac_cfg();
        let a = addr_homed(1, 0, 2);
        // Node 0 dirties the remote line, then evicts it via conflicts.
        let mut refs = vec![store(a)];
        for k in 1..=2 {
            refs.push(load(a + 64 * 64 * k));
        }
        let s0 = SliceStream::cycle(&refs);
        let s1 = SliceStream::cycle(&[load(addr_homed(1, 70, 2))]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        sim.run(3);
        assert_eq!(
            sim.dir.state(a / 64),
            LineState::Modified { owner: 0, in_rac: true },
            "dirty victim parks in the RAC instead of writing back"
        );
        assert!(sim.dir.stats().writebacks == 0);
    }

    #[test]
    fn remote_read_of_rac_parked_line_costs_rac_dirty_latency() {
        let cfg = rac_cfg();
        let a = addr_homed(0, 1, 2); // homed at node 0, so node 1 parks it
        let mut refs1 = vec![store(a)];
        for k in 1..=2 {
            refs1.push(load(a + 64 * 64 * k + 64 * 128)); // remote-homed conflicts
        }
        refs1.push(load(addr_homed(1, 90, 2)));
        let s1 = SliceStream::cycle(&refs1);
        let s0 = SliceStream::cycle(&[
            load(addr_homed(0, 80, 2)),
            load(addr_homed(0, 80, 2)),
            load(addr_homed(0, 80, 2)),
            load(a),
        ]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(4);
        assert_eq!(
            rep.per_node[0].remote_dirty_cycles,
            cfg.latencies().remote_dirty_in_rac as f64,
            "dirty data in a remote RAC costs 250 ns, not 200 ns"
        );
    }

    #[test]
    fn reset_stats_clears_counts_but_keeps_cache_contents() {
        let cfg = tiny_cfg(1);
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[load(0)])]);
        sim.warm_up(5);
        let rep = sim.run(5);
        assert_eq!(rep.misses.total(), 0, "warmup kept the line resident");
        assert_eq!(rep.breakdown.total_cycles(), 0.0, "pure L1 hits cost nothing");
    }

    #[test]
    fn report_aggregates_per_node() {
        let cfg = tiny_cfg(2);
        let s0 = SliceStream::cycle(&[ifetch(addr_homed(0, 5, 2))]);
        let s1 = SliceStream::cycle(&[ifetch(addr_homed(1, 6, 2))]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(10);
        assert_eq!(rep.per_node.len(), 2);
        assert_eq!(rep.breakdown.instructions, 20);
        assert_eq!(
            rep.breakdown.busy_cycles,
            rep.per_node[0].busy_cycles + rep.per_node[1].busy_cycles
        );
    }

    #[test]
    #[should_panic(expected = "one reference stream per core")]
    fn stream_count_mismatch_panics() {
        let cfg = tiny_cfg(2);
        let _ = sim_new(&cfg, vec![SliceStream::cycle(&[load(0)])]);
    }

    #[test]
    fn cmp_cores_share_the_chip_l2() {
        // Two cores on one chip: core 0 writes a line, core 1 reads it.
        // The read misses core 1's L1 but hits the shared L2 — no
        // coherence traffic, no remote miss.
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.nodes(1).cores_per_node(2).l1(l1).l2_off_chip(8192, 2);
        let cfg = b.build().unwrap();
        let s0 = SliceStream::cycle(&[store(0)]);
        let s1 = SliceStream::cycle(&[load(0)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(4);
        // One cold write miss by core 0; core 1's first read is an L2 hit.
        assert_eq!(rep.misses.total(), 1);
        assert_eq!(rep.per_node.len(), 1);
        assert!(rep.breakdown.l2_hit_cycles > 0.0, "core 1 must hit the shared L2");
        assert_eq!(rep.breakdown.remote_cycles(), 0.0);
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn cmp_cross_chip_sharing_is_still_three_hop() {
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.nodes(2).cores_per_node(2).l1(l1).l2_off_chip(8192, 2);
        let cfg = b.build().unwrap();
        let a = addr_homed(0, 1, 2);
        // Chip 0 (cores 0,1) writes; chip 1 (cores 2,3) reads.
        let streams = vec![
            SliceStream::cycle(&[store(a)]),
            SliceStream::cycle(&[load(addr_homed(0, 9, 2))]),
            SliceStream::cycle(&[load(a)]),
            SliceStream::cycle(&[load(addr_homed(1, 9, 2))]),
        ];
        let mut sim = sim_new(&cfg, streams);
        let rep = sim.run(1);
        assert_eq!(rep.misses.data_remote_dirty, 1, "cross-chip read finds dirty data");
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn cmp_l2_eviction_invalidates_all_cores_l1s() {
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.nodes(1).cores_per_node(2).l1(l1).l2_off_chip(8192, 2);
        let cfg = b.build().unwrap();
        // Both cores load line a; then core 0 streams conflicting lines
        // through the shared L2 set until a is evicted; core 1's re-read
        // of a must then miss (its L1 copy was invalidated by inclusion).
        let a = 0u64;
        let s0 = SliceStream::cycle(&[load(a), load(64 * 64), load(2 * 64 * 64), load(3 * 64 * 64)]);
        let s1 = SliceStream::cycle(&[load(a)]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(4);
        // a was evicted by the third conflicting line; the 4th round's
        // core-1 load of a misses again.
        assert!(rep.misses.total() >= 5);
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn cmp_oltp_runs_and_stays_coherent() {
        let mut b = SystemConfig::builder();
        b.nodes(2)
            .cores_per_node(2)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(2 << 20, 8);
        let cfg = b.build().unwrap();
        let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
        sim.warm_up(30_000);
        let rep = sim.run(30_000);
        assert_eq!(rep.per_node.len(), 2);
        assert!(rep.breakdown.instructions > 50_000, "four cores retire instructions");
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn store_hitting_a_clean_rac_copy_upgrades_through_the_home() {
        let cfg = rac_cfg();
        let a = addr_homed(1, 0, 2); // remote line for node 0
        // Node 0 reads `a` (fills L2 + RAC), evicts it from L2 via
        // conflicts, then STORES it: the RAC supplies the data but
        // ownership needs a 2-hop upgrade.
        let mut refs = vec![load(a)];
        for k in 1..=2 {
            refs.push(load(a + 64 * 64 * k));
        }
        refs.push(store(a));
        let s0 = SliceStream::cycle(&refs);
        let s1 = SliceStream::cycle(&[load(addr_homed(1, 70, 2))]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(4);
        assert_eq!(rep.rac.hits, 1, "the store's data came from the RAC");
        assert_eq!(rep.upgrades, 1, "ownership required an upgrade");
        assert_eq!(
            sim.dir.state(a / 64),
            LineState::Modified { owner: 0, in_rac: false },
            "after the store the L2 holds the modified line"
        );
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn ooo_model_runs_inside_the_full_simulator() {
        use csim_config::OooParams;
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mut b = SystemConfig::builder();
        b.l1(l1).l2_off_chip(8192, 2).out_of_order(OooParams::paper());
        let cfg = b.build().unwrap();
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[ifetch(0)])]);
        let rep = sim.run(100);
        assert_eq!(rep.breakdown.instructions, 100);
        assert!(
            rep.breakdown.busy_cycles < 100.0,
            "a 4-wide core must retire at better than CPI 1"
        );
    }

    #[test]
    fn remote_instruction_misses_count_as_i_rem() {
        let cfg = tiny_cfg(2);
        let a = addr_homed(1, 1, 2); // homed at node 1
        let s0 = SliceStream::cycle(&[ifetch(a)]);
        let s1 = SliceStream::cycle(&[load(addr_homed(1, 50, 2))]);
        let mut sim = sim_new(&cfg, vec![s0, s1]);
        let rep = sim.run(1);
        assert_eq!(rep.misses.instr_remote, 1);
        assert_eq!(rep.misses.instr_local, 0);
        assert_eq!(
            rep.per_node[0].remote_clean_cycles,
            cfg.latencies().remote_clean as f64
        );
    }

    #[test]
    fn l2_mc_level_charges_higher_remote_clean_latency() {
        // The Section 4 pathology: MC on-chip without the CC makes 2-hop
        // misses slower (225 vs 175).
        let l1 = CacheGeometry::new(1024, 1, 64).unwrap();
        let mk = |level: IntegrationLevel| {
            let mut b = SystemConfig::builder();
            b.nodes(2).l1(l1).integration(level).l2_sram(8192, 2);
            b.build().unwrap()
        };
        let a = addr_homed(1, 1, 2);
        let run_one = |cfg: &SystemConfig| {
            let s0 = SliceStream::cycle(&[load(a)]);
            let s1 = SliceStream::cycle(&[load(addr_homed(1, 50, 2))]);
            let mut sim = sim_new(cfg, vec![s0, s1]);
            sim.run(1).per_node[0].remote_clean_cycles
        };
        let l2_only = run_one(&mk(IntegrationLevel::L2Integrated));
        let l2_mc = run_one(&mk(IntegrationLevel::L2McIntegrated));
        assert_eq!(l2_only, 175.0);
        assert_eq!(l2_mc, 225.0);
    }

    #[test]
    fn report_carries_config_summary_and_refs() {
        let cfg = tiny_cfg(1);
        let mut sim = sim_new(&cfg, vec![SliceStream::cycle(&[load(0)])]);
        let rep = sim.run(7);
        assert!(rep.config_summary.contains("1p"));
        assert_eq!(rep.refs_per_node, 7);
        assert_eq!(rep.transactions, 0, "no OLTP txn source for slice streams");
    }

    #[test]
    fn rac_with_replication_and_cmp_stays_coherent() {
        let mut b = SystemConfig::builder();
        b.nodes(2)
            .cores_per_node(2)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(256 << 10, 4)
            .rac(csim_config::RacConfig::paper())
            .replicate_instructions(true);
        let cfg = b.build().unwrap();
        let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
        sim.run(60_000);
        sim.verify_coherence().unwrap();
    }

    #[test]
    fn try_new_reports_mismatches_as_values() {
        let cfg = tiny_cfg(2);
        let err = Simulation::try_new(&cfg, vec![SliceStream::cycle(&[load(0)])]).unwrap_err();
        assert_eq!(err, crate::SimError::StreamCountMismatch { streams: 1, cores: 2 });
    }

    #[test]
    fn run_verified_matches_run_on_a_healthy_machine() {
        let cfg = tiny_cfg(2);
        let mk = || {
            let s0 = SliceStream::cycle(&[store(addr_homed(0, 1, 2)), load(addr_homed(1, 2, 2))]);
            let s1 = SliceStream::cycle(&[load(addr_homed(0, 1, 2)), store(addr_homed(1, 3, 2))]);
            sim_new(&cfg, vec![s0, s1])
        };
        let plain = mk().run(500);
        let verified = mk().run_verified(500, 50).expect("coherent");
        assert_eq!(plain, verified, "strict mode must not perturb the simulation");
    }

    #[test]
    fn inert_fault_injector_is_bit_identical_to_none() {
        use csim_fault::{FaultInjector, FaultPlan};
        let cfg = rac_cfg();
        let streams = || {
            vec![
                SliceStream::cycle(&[store(addr_homed(1, 0, 2)), load(addr_homed(0, 4, 2))]),
                SliceStream::cycle(&[load(addr_homed(1, 0, 2)), store(addr_homed(0, 7, 2))]),
            ]
        };
        let mut bare = sim_new(&cfg, streams());
        let mut wired = sim_new(&cfg, streams())
            .with_fault_injector(FaultInjector::new(FaultPlan::none(), 42).unwrap());
        bare.warm_up(200);
        wired.warm_up(200);
        assert_eq!(bare.run(1_000), wired.run(1_000));
    }

    #[test]
    fn sanitizer_on_is_bit_identical_to_off() {
        let cfg = rac_cfg();
        let streams = || {
            vec![
                SliceStream::cycle(&[store(addr_homed(1, 0, 2)), load(addr_homed(0, 4, 2))]),
                SliceStream::cycle(&[load(addr_homed(1, 0, 2)), store(addr_homed(0, 7, 2))]),
            ]
        };
        let mut bare = sim_new(&cfg, streams());
        let mut sane = sim_new(&cfg, streams()).with_sanitizer();
        bare.warm_up(200);
        sane.warm_up(200);
        assert_eq!(bare.run(1_000), sane.run(1_000));
        sane.verify_sanitizer().expect("clean run cross-checks clean");
        assert!(sane.sanitizer_checks().is_some_and(|c| c > 0), "the sanitizer actually ran");
        assert_eq!(bare.sanitizer_checks(), None);
    }

    #[test]
    fn sanitizer_vouches_for_a_full_oltp_run() {
        let mut b = SystemConfig::builder();
        b.nodes(2)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(256 << 10, 4)
            .rac(csim_config::RacConfig::paper());
        let cfg = b.build().unwrap();
        let mut sim =
            Simulation::with_oltp(&cfg, OltpParams::default()).unwrap().with_sanitizer();
        let rep = sim.run_verified(30_000, 5_000).expect("coherent and spec-conformant");
        assert!(rep.refs_per_node == 30_000);
        // An OLTP run on a small L2 exercises every transition kind the
        // sanitizer hooks: misses, upgrades, writebacks, RAC parking.
        assert!(sim.sanitizer_checks().is_some_and(|c| c > 1_000), "{:?}", sim.sanitizer_checks());
    }

    #[test]
    fn fault_storm_slows_the_machine_and_fills_the_counters() {
        use csim_fault::{FaultInjector, FaultPlan};
        let cfg = tiny_cfg(2);
        let streams = || {
            vec![
                SliceStream::cycle(&[store(addr_homed(0, 1, 2)), load(addr_homed(1, 2, 2))]),
                SliceStream::cycle(&[store(addr_homed(0, 1, 2)), load(addr_homed(1, 5, 2))]),
            ]
        };
        let mut plan = FaultPlan::storm();
        // Start the windows at 0 so the short test run sees them.
        plan.link_faults[0].start = 0;
        plan.mc_faults[0].start = 0;
        let clean = sim_new(&cfg, streams()).run(2_000);
        let mut sim = sim_new(&cfg, streams())
            .with_fault_injector(FaultInjector::new(plan, 7).unwrap());
        let faulty = sim.run(2_000);
        assert!(faulty.faults.nacks > 0, "5% NACKs over thousands of txns must fire");
        assert_eq!(
            faulty.directory.nacks, faulty.faults.nacks,
            "NACK outcomes surface in the directory counters too"
        );
        assert!(faulty.faults.retries > 0);
        assert!(faulty.faults.degraded_txns > 0);
        assert!(faulty.faults.mc_busy_txns > 0);
        assert!(
            faulty.breakdown.total_cycles() > clean.breakdown.total_cycles(),
            "faults must cost cycles"
        );
        assert_eq!(
            faulty.misses, clean.misses,
            "faults change timing, never the reference stream or miss classification"
        );
        sim.verify_coherence().expect("fault injection must not corrupt coherence");
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        use csim_fault::{FaultInjector, FaultPlan};
        let cfg = tiny_cfg(2);
        let run = |seed| {
            let streams = vec![
                SliceStream::cycle(&[store(addr_homed(0, 1, 2)), load(addr_homed(1, 2, 2))]),
                SliceStream::cycle(&[load(addr_homed(0, 1, 2))]),
            ];
            let mut sim = sim_new(&cfg, streams)
                .with_fault_injector(FaultInjector::new(FaultPlan::storm(), seed).unwrap());
            sim.run(3_000)
        };
        assert_eq!(run(9), run(9), "same (plan, seed) must reproduce the report");
        assert_ne!(run(9), run(10), "different fault seeds must diverge");
    }

    #[test]
    fn oltp_simulation_smoke() {
        let cfg = SystemConfig::paper_base_uni();
        let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
        sim.warm_up(20_000);
        let rep = sim.run(20_000);
        assert!(rep.breakdown.instructions > 10_000);
        assert!(rep.breakdown.total_cycles() > 0.0);
        assert!(rep.misses.total() > 0);
        assert_eq!(rep.misses.remote(), 0, "uniprocessor misses are all local");
    }
}
