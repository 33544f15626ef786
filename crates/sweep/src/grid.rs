//! Design points: a [`RunSpec`] is one fully-resolved run, and a
//! [`SweepPlan`] expands into an ordered list of them. This module is
//! the one place that maps a design point to its machine, its default
//! L2 and its manifest echo; the sweep engine and the `csim` front end
//! both go through it.

use csim_config::{
    CacheGeometry, ConfigError, IntegrationLevel, L2Config, L2Kind, OooParams, RacConfig,
    SystemConfig, LINE_SIZE,
};
use csim_workload::OltpParams;

use crate::plan::{integration_short_name, L2Spec, SweepError, SweepPlan};

/// One fully-resolved design point: everything needed to build and run
/// a single simulation, independent of every other run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Integration level of this run.
    pub integration: IntegrationLevel,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// The `2M8w`-style spec string, used in the run label.
    pub l2_label: String,
    /// Processor chips.
    pub nodes: usize,
    /// Cores per chip.
    pub cores: usize,
    /// Position of this run's seed on the plan's seed axis.
    pub seed_index: usize,
    /// The workload seed itself.
    pub seed: u64,
    /// Embedded-DRAM timing for on-chip L2s.
    pub dram: bool,
    /// Remote access cache.
    pub rac: bool,
    /// OS instruction-page replication.
    pub replicate: bool,
    /// Out-of-order cores.
    pub ooo: bool,
    /// Warm-up references per node.
    pub warm: u64,
    /// Measured references per node.
    pub meas: u64,
}

impl Default for RunSpec {
    /// The default plan's one run, and `csim` without flags: one Base
    /// chip with one in-order core, the 8M1w off-chip L2, the default
    /// workload seed, 2M warm-up and 2M measured references per node.
    fn default() -> Self {
        let l2 = default_l2(IntegrationLevel::Base);
        RunSpec {
            integration: IntegrationLevel::Base,
            l2_bytes: l2.bytes,
            l2_assoc: l2.assoc,
            l2_label: l2.label,
            nodes: 1,
            cores: 1,
            seed_index: 0,
            seed: OltpParams::default().seed,
            dram: false,
            rac: false,
            replicate: false,
            ooo: false,
            warm: 2_000_000,
            meas: 2_000_000,
        }
    }
}

impl RunSpec {
    /// The run's stable label, e.g. `l2/2M8w/8n1c/s0`: integration
    /// level, L2 geometry, topology, and position on the seed axis.
    /// Labels are unique within a plan and independent of worker count
    /// or execution order.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}n{}c/s{}",
            integration_short_name(self.integration),
            self.l2_label,
            self.nodes,
            self.cores,
            self.seed_index
        )
    }

    /// Maps this design point to its [`SystemConfig`]: an on-chip level
    /// gets an SRAM (or, with `dram`, embedded-DRAM) L2, an off-chip one
    /// a board-level L2, plus the paper's RAC and OOO core when asked.
    ///
    /// # Errors
    ///
    /// The config builder's [`ConfigError`] when the machine is
    /// impossible (e.g. an on-chip L2 too large for the die, or an L2
    /// size that is not a whole number of sets).
    pub fn system_config(&self) -> Result<SystemConfig, ConfigError> {
        let geometry = CacheGeometry::new(self.l2_bytes, self.l2_assoc, LINE_SIZE)?;
        let kind = match (self.integration.l2_on_chip(), self.dram) {
            (false, _) => L2Kind::OffChip,
            (true, false) => L2Kind::OnChipSram,
            (true, true) => L2Kind::OnChipDram,
        };
        let mut b = SystemConfig::builder();
        b.nodes(self.nodes)
            .cores_per_node(self.cores)
            .integration(self.integration)
            .replicate_instructions(self.replicate)
            .l2(L2Config::new(geometry, kind));
        if self.rac {
            b.rac(RacConfig::paper());
        }
        if self.ooo {
            b.out_of_order(OooParams::paper());
        }
        b.build()
    }

    /// [`RunSpec::system_config`] with the error tagged by this run's
    /// label, as the sweep engine reports it.
    ///
    /// # Errors
    ///
    /// [`SweepError::Run`] when the configuration is rejected.
    pub fn build_config(&self) -> Result<SystemConfig, SweepError> {
        self.system_config()
            .map_err(|e| SweepError::Run { label: self.label(), message: e.to_string() })
    }

    /// The run manifest's configuration echo: the design point as
    /// ordered key/value pairs, `nodes` through `meas_refs_per_node`.
    pub fn manifest_config(&self) -> Vec<(String, String)> {
        [
            ("nodes", self.nodes.to_string()),
            ("cores_per_node", self.cores.to_string()),
            ("integration", format!("{:?}", self.integration)),
            ("l2_bytes", self.l2_bytes.to_string()),
            ("l2_assoc", self.l2_assoc.to_string()),
            ("l2_dram", self.dram.to_string()),
            ("rac", self.rac.to_string()),
            ("replicate_instructions", self.replicate.to_string()),
            ("out_of_order", self.ooo.to_string()),
            ("warm_refs_per_node", self.warm.to_string()),
            ("meas_refs_per_node", self.meas.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// The L2 geometry a run gets when none is given: the paper's 8M1w
/// off-chip, 2M8w on-chip, because the off-chip default does not fit on
/// a die. Used for a plan's empty `l2` axis and for `csim` without
/// `--l2`.
pub fn default_l2(level: IntegrationLevel) -> L2Spec {
    if level.l2_on_chip() {
        L2Spec { bytes: 2 << 20, assoc: 8, label: "2M8w".to_string() }
    } else {
        L2Spec { bytes: 8 << 20, assoc: 1, label: "8M1w".to_string() }
    }
}

impl SweepPlan {
    /// Expands the grid into its ordered run list. The order is the
    /// nesting of the axes — integration, L2, nodes, cores, seeds — and
    /// is part of the report contract: run `i` of the merged report is
    /// always the same grid point, however many workers executed it.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::with_capacity(self.run_count());
        for &integration in &self.integration {
            let geometries: Vec<L2Spec> = if self.l2.is_empty() {
                vec![default_l2(integration)]
            } else {
                self.l2.clone()
            };
            for l2 in &geometries {
                for &nodes in &self.nodes {
                    for &cores in &self.cores {
                        for (seed_index, &seed) in self.seeds.iter().enumerate() {
                            runs.push(RunSpec {
                                integration,
                                l2_bytes: l2.bytes,
                                l2_assoc: l2.assoc,
                                l2_label: l2.label.clone(),
                                nodes,
                                cores,
                                seed_index,
                                seed,
                                dram: self.dram,
                                rac: self.rac,
                                replicate: self.replicate,
                                ooo: self.ooo,
                                warm: self.warm,
                                meas: self.meas,
                            });
                        }
                    }
                }
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::identity_op, reason = "the grid-size product keeps one factor per axis, 1s included")]
    fn expansion_order_is_the_axis_nesting() {
        let plan = SweepPlan {
            integration: vec![IntegrationLevel::Base, IntegrationLevel::L2Integrated],
            l2: vec![L2Spec::parse("2M1w").unwrap(), L2Spec::parse("2M8w").unwrap()],
            nodes: vec![1, 8],
            seeds: vec![42, 43],
            ..SweepPlan::default()
        };
        let runs = plan.expand();
        assert_eq!(runs.len(), plan.run_count());
        assert_eq!(runs.len(), 2 * 2 * 2 * 1 * 2);
        assert_eq!(runs[0].label(), "base/2M1w/1n1c/s0");
        assert_eq!(runs[1].label(), "base/2M1w/1n1c/s1");
        assert_eq!(runs[2].label(), "base/2M1w/8n1c/s0");
        assert_eq!(runs[4].label(), "base/2M8w/1n1c/s0");
        assert_eq!(runs[8].label(), "l2/2M1w/1n1c/s0");
        assert_eq!(runs[15].label(), "l2/2M8w/8n1c/s1");
        assert_eq!(runs[1].seed, 43);
    }

    #[test]
    fn empty_l2_axis_uses_the_per_level_default() {
        let plan = SweepPlan {
            integration: vec![IntegrationLevel::Base, IntegrationLevel::FullyIntegrated],
            ..SweepPlan::default()
        };
        let runs = plan.expand();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].l2_bytes, runs[0].l2_assoc), (8 << 20, 1));
        assert_eq!((runs[1].l2_bytes, runs[1].l2_assoc), (2 << 20, 8));
        assert_eq!(runs[1].label(), "all/2M8w/1n1c/s0");
    }

    #[test]
    fn specs_build_valid_configs() {
        let plan = SweepPlan {
            integration: vec![IntegrationLevel::Base, IntegrationLevel::L2Integrated],
            // A RAC only exists in multiprocessors, so this grid stays
            // multi-node throughout.
            nodes: vec![2, 4],
            rac: true,
            ooo: true,
            ..SweepPlan::default()
        };
        for spec in plan.expand() {
            let cfg = spec.build_config().unwrap();
            assert_eq!(cfg.integration(), spec.integration);
            assert_eq!(cfg.cores_per_node(), spec.cores);
        }
    }

    #[test]
    fn impossible_configs_surface_as_run_errors() {
        // A 64 MB on-chip SRAM L2 exceeds the die budget.
        let spec = RunSpec {
            integration: IntegrationLevel::FullyIntegrated,
            l2_bytes: 64 << 20,
            l2_assoc: 8,
            l2_label: "64M8w".to_string(),
            nodes: 1,
            cores: 1,
            seed_index: 0,
            seed: 1,
            dram: false,
            rac: false,
            replicate: false,
            ooo: false,
            warm: 0,
            meas: 1,
        };
        let err = spec.build_config().unwrap_err();
        assert!(matches!(err, SweepError::Run { .. }), "{err}");
        assert!(err.to_string().contains("all/64M8w/1n1c/s0"), "{err}");
        // A spec built field by field, past `L2Spec::parse`, with a size
        // that is no whole number of sets is an error, not a panic.
        let spec = RunSpec { l2_bytes: 1049, l2_assoc: 1, ..RunSpec::default() };
        let err = spec.build_config().unwrap_err();
        assert!(err.to_string().contains("whole number of 1-way sets"), "{err}");
    }
}
