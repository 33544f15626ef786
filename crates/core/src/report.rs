//! Simulation reports: miss breakdowns and figure-ready bars.

use csim_cache::CacheStats;
use csim_coherence::DirectoryStats;
use csim_fault::FaultStats;
use csim_obs::json::Json;
use csim_proc::ExecBreakdown;
use csim_stats::Bar;

/// L2 misses classified the way the paper's miss figures are drawn:
/// instruction vs data, by where the miss was serviced.
///
/// Hits in a node's own remote access cache count as *local* (the RAC's
/// data lives in local memory), mirroring the paper's Figure 11 where the
/// RAC converts remote misses into local ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// Instruction misses serviced locally (local home or RAC hit).
    pub instr_local: u64,
    /// Instruction misses serviced by a remote home (2-hop). Instructions
    /// are never dirty, so there is no 3-hop instruction category.
    pub instr_remote: u64,
    /// Data misses serviced locally (local home or RAC hit).
    pub data_local: u64,
    /// Data misses serviced clean by a remote home (2-hop).
    pub data_remote_clean: u64,
    /// Data misses serviced by dirty data in a remote cache (3-hop).
    pub data_remote_dirty: u64,
    /// Of the above, misses that touched their line for the first time
    /// machine-wide (cold misses).
    pub cold: u64,
}

impl MissBreakdown {
    /// Total L2 misses.
    pub fn total(&self) -> u64 {
        self.instr_local
            + self.instr_remote
            + self.data_local
            + self.data_remote_clean
            + self.data_remote_dirty
    }

    /// Total instruction misses.
    pub fn instr(&self) -> u64 {
        self.instr_local + self.instr_remote
    }

    /// Total data misses.
    pub fn data(&self) -> u64 {
        self.data_local + self.data_remote_clean + self.data_remote_dirty
    }

    /// Misses serviced by remote nodes (2-hop + 3-hop).
    pub fn remote(&self) -> u64 {
        self.instr_remote + self.data_remote_clean + self.data_remote_dirty
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &MissBreakdown) {
        self.instr_local += other.instr_local;
        self.instr_remote += other.instr_remote;
        self.data_local += other.data_local;
        self.data_remote_clean += other.data_remote_clean;
        self.data_remote_dirty += other.data_remote_dirty;
        self.cold += other.cold;
    }
}

/// Remote-access-cache effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RacStats {
    /// L2 misses satisfied by the node's own RAC.
    pub hits: u64,
    /// L2 misses to remote lines that also missed the RAC.
    pub misses: u64,
}

impl RacStats {
    /// RAC hit rate over remote-line L2 misses; zero when never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another set of counters.
    pub fn merge(&mut self, other: &RacStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Everything one simulation run produced.
///
/// `PartialEq` is field-by-field (floats included): two reports compare
/// equal only when the runs were bit-identical, which is exactly what
/// the determinism and zero-overhead regression tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// One-line description of the simulated configuration.
    pub config_summary: String,
    /// Execution time aggregated over all nodes.
    pub breakdown: ExecBreakdown,
    /// Execution time per node.
    pub per_node: Vec<ExecBreakdown>,
    /// L2 misses aggregated over all nodes.
    pub misses: MissBreakdown,
    /// Coherence-protocol counters.
    pub directory: DirectoryStats,
    /// Aggregated L1 instruction-cache counters.
    pub l1i: CacheStats,
    /// Aggregated L1 data-cache counters.
    pub l1d: CacheStats,
    /// RAC counters (all zero when no RAC is configured).
    pub rac: RacStats,
    /// Ownership upgrades (stores to shared lines); not counted as L2
    /// misses.
    pub upgrades: u64,
    /// Transactions committed during the measured window.
    pub transactions: u64,
    /// Rounds run during the measured window: references per core, so a
    /// node with several cores processes this many times its core count.
    pub refs_per_node: u64,
    /// Fault-injection counters (all zero when no injector is wired in
    /// or its plan is [`csim_fault::FaultPlan::none`]).
    pub faults: FaultStats,
}

impl SimReport {
    /// The paper's execution-time bar for this run: CPU, L2Hit, LocStall,
    /// RemStall (remote = 2-hop + 3-hop).
    pub fn exec_bar(&self, label: impl Into<String>) -> Bar {
        Bar::new(label)
            .with("CPU", self.breakdown.busy_cycles)
            .with("L2Hit", self.breakdown.l2_hit_cycles)
            .with("LocStall", self.breakdown.local_cycles)
            .with("RemStall", self.breakdown.remote_cycles())
    }

    /// The paper's miss bar for this run: I-Loc, I-Rem, D-Loc, D-RemClean,
    /// D-RemDirty.
    pub fn miss_bar(&self, label: impl Into<String>) -> Bar {
        Bar::new(label)
            .with("I-Loc", self.misses.instr_local as f64)
            .with("I-Rem", self.misses.instr_remote as f64)
            .with("D-Loc", self.misses.data_local as f64)
            .with("D-RemClean", self.misses.data_remote_clean as f64)
            .with("D-RemDirty", self.misses.data_remote_dirty as f64)
    }

    /// L2 misses per 1000 instructions.
    pub fn mpki(&self) -> f64 {
        if self.breakdown.instructions == 0 {
            0.0
        } else {
            self.misses.total() as f64 * 1000.0 / self.breakdown.instructions as f64
        }
    }

    /// The whole report as deterministic JSON: same report, same bytes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("config_summary", Json::str(&self.config_summary)),
            ("refs_per_node", Json::UInt(self.refs_per_node)),
            ("transactions", Json::UInt(self.transactions)),
            ("upgrades", Json::UInt(self.upgrades)),
            ("mpki", Json::Float(self.mpki())),
            ("breakdown", breakdown_json(&self.breakdown)),
            ("per_node", Json::Arr(self.per_node.iter().map(breakdown_json).collect())),
            ("misses", misses_json(&self.misses)),
            ("directory", directory_json(&self.directory)),
            ("l1i", cache_json(&self.l1i)),
            ("l1d", cache_json(&self.l1d)),
            (
                "rac",
                Json::obj([
                    ("hits", Json::UInt(self.rac.hits)),
                    ("misses", Json::UInt(self.rac.misses)),
                    ("hit_rate", Json::Float(self.rac.hit_rate())),
                ]),
            ),
            ("faults", faults_json(&self.faults)),
        ])
    }
}

fn breakdown_json(bd: &ExecBreakdown) -> Json {
    Json::obj([
        ("instructions", Json::UInt(bd.instructions)),
        ("busy_cycles", Json::Float(bd.busy_cycles)),
        ("l2_hit_cycles", Json::Float(bd.l2_hit_cycles)),
        ("local_cycles", Json::Float(bd.local_cycles)),
        ("remote_clean_cycles", Json::Float(bd.remote_clean_cycles)),
        ("remote_dirty_cycles", Json::Float(bd.remote_dirty_cycles)),
        ("total_cycles", Json::Float(bd.total_cycles())),
        ("cpi", Json::Float(bd.cpi())),
        ("cpu_utilization", Json::Float(bd.cpu_utilization())),
    ])
}

fn misses_json(m: &MissBreakdown) -> Json {
    Json::obj([
        ("instr_local", Json::UInt(m.instr_local)),
        ("instr_remote", Json::UInt(m.instr_remote)),
        ("data_local", Json::UInt(m.data_local)),
        ("data_remote_clean", Json::UInt(m.data_remote_clean)),
        ("data_remote_dirty", Json::UInt(m.data_remote_dirty)),
        ("cold", Json::UInt(m.cold)),
        ("total", Json::UInt(m.total())),
    ])
}

fn directory_json(d: &DirectoryStats) -> Json {
    Json::obj([
        ("read_misses", Json::UInt(d.read_misses)),
        ("write_misses", Json::UInt(d.write_misses)),
        ("invalidating_writes", Json::UInt(d.invalidating_writes)),
        ("invalidations_sent", Json::UInt(d.invalidations_sent)),
        ("three_hop_fills", Json::UInt(d.three_hop_fills)),
        ("writebacks", Json::UInt(d.writebacks)),
        ("downgrades", Json::UInt(d.downgrades)),
        ("nacks", Json::UInt(d.nacks)),
    ])
}

fn cache_json(c: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::UInt(c.hits)),
        ("misses", Json::UInt(c.misses)),
        ("write_hits", Json::UInt(c.write_hits)),
        ("write_misses", Json::UInt(c.write_misses)),
        ("evictions", Json::UInt(c.evictions)),
        ("dirty_evictions", Json::UInt(c.dirty_evictions)),
        ("invalidations", Json::UInt(c.invalidations)),
    ])
}

fn faults_json(f: &FaultStats) -> Json {
    Json::obj([
        ("nacks", Json::UInt(f.nacks)),
        ("retries", Json::UInt(f.retries)),
        ("backoff_cycles", Json::UInt(f.backoff_cycles)),
        ("retry_cycles", Json::UInt(f.retry_cycles)),
        ("watchdog_trips", Json::UInt(f.watchdog_trips)),
        ("degraded_txns", Json::UInt(f.degraded_txns)),
        ("degraded_extra_cycles", Json::UInt(f.degraded_extra_cycles)),
        ("mc_busy_txns", Json::UInt(f.mc_busy_txns)),
        ("mc_extra_cycles", Json::UInt(f.mc_extra_cycles)),
        ("total_extra_cycles", Json::UInt(f.total_extra_cycles())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss_breakdown() -> MissBreakdown {
        MissBreakdown {
            instr_local: 1,
            instr_remote: 2,
            data_local: 3,
            data_remote_clean: 4,
            data_remote_dirty: 5,
            cold: 2,
        }
    }

    #[test]
    fn totals_and_splits() {
        let m = miss_breakdown();
        assert_eq!(m.total(), 15);
        assert_eq!(m.instr(), 3);
        assert_eq!(m.data(), 12);
        assert_eq!(m.remote(), 11);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = miss_breakdown();
        a.merge(&miss_breakdown());
        assert_eq!(a.total(), 30);
        assert_eq!(a.cold, 4);
    }

    #[test]
    fn rac_hit_rate() {
        let r = RacStats { hits: 42, misses: 58 };
        assert!((r.hit_rate() - 0.42).abs() < 1e-12);
        assert_eq!(RacStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn bars_carry_all_components() {
        let report = SimReport {
            config_summary: "test".into(),
            breakdown: ExecBreakdown {
                instructions: 1000,
                busy_cycles: 10.0,
                l2_hit_cycles: 20.0,
                local_cycles: 30.0,
                remote_clean_cycles: 5.0,
                remote_dirty_cycles: 15.0,
            },
            per_node: vec![],
            misses: miss_breakdown(),
            directory: Default::default(),
            l1i: Default::default(),
            l1d: Default::default(),
            rac: Default::default(),
            upgrades: 0,
            transactions: 0,
            refs_per_node: 0,
            faults: Default::default(),
        };
        let eb = report.exec_bar("x");
        assert_eq!(eb.component("RemStall"), Some(20.0));
        assert_eq!(eb.total(), 80.0);
        let mb = report.miss_bar("x");
        assert_eq!(mb.total(), 15.0);
        assert_eq!(report.mpki(), 15.0);
    }
}
