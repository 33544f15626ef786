//! Full-system configuration and its builder.

use crate::error::ConfigError;
use crate::geometry::CacheGeometry;
use crate::integration::{IntegrationLevel, L2Config, L2Kind};
use crate::latency::LatencyTable;
use crate::processor::{OooParams, ProcessorModel};
use crate::{L1_ASSOC, L1_SIZE, LINE_SIZE, MP_NODES};

/// Remote access cache parameters (paper Section 6).
///
/// The RAC caches only remote data; its data lives in local main memory so
/// hits cost the local-memory latency, while its tags live on-chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RacConfig {
    /// Size / associativity / line size of the RAC.
    pub geometry: CacheGeometry,
}

impl RacConfig {
    /// The paper's RAC: 8 MB, 8-way.
    #[expect(clippy::expect_used, reason = "paper constants are validated by construction; failure is a build-time bug")]
    pub fn paper() -> Self {
        RacConfig {
            geometry: CacheGeometry::new(8 << 20, 8, LINE_SIZE)
                .expect("paper RAC geometry is valid"),
        }
    }
}

/// A validated description of one simulated machine.
///
/// Construct with [`SystemConfig::builder`]; every accessor below is
/// guaranteed consistent (the builder validates die limits, node counts and
/// integration-level / L2-kind agreement).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    n_nodes: usize,
    cores_per_node: usize,
    integration: IntegrationLevel,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    l2: L2Config,
    rac: Option<RacConfig>,
    replicate_instructions: bool,
    processor: ProcessorModel,
    latencies: LatencyTable,
}

impl SystemConfig {
    /// Starts building a configuration. Defaults: uniprocessor, `Base`
    /// integration, 8 MB direct-mapped off-chip L2, 64 KB 2-way L1s,
    /// in-order processor, no RAC, no instruction replication.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::new()
    }

    /// The paper's Base uniprocessor (8 MB direct-mapped off-chip L2).
    ///
    /// # Example
    ///
    /// ```
    /// let cfg = csim_config::SystemConfig::paper_base_uni();
    /// assert_eq!(cfg.n_nodes(), 1);
    /// assert_eq!(cfg.l2().geometry.label(), "8M1w");
    /// ```
    #[expect(clippy::expect_used, reason = "paper constants are validated by construction; failure is a build-time bug")]
    pub fn paper_base_uni() -> Self {
        Self::builder().build().expect("paper base uniprocessor config is valid")
    }

    /// The paper's Base 8-processor configuration.
    #[expect(clippy::expect_used, reason = "paper constants are validated by construction; failure is a build-time bug")]
    pub fn paper_base_mp8() -> Self {
        Self::builder().nodes(MP_NODES).build().expect("paper base MP config is valid")
    }

    /// The paper's fully-integrated design (2 MB 8-way on-chip SRAM L2,
    /// MC and CC/NR on chip) with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[expect(clippy::expect_used, reason = "paper constants are validated by construction; failure is a build-time bug")]
    pub fn paper_fully_integrated(n: usize) -> Self {
        Self::builder()
            .nodes(n)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(2 << 20, 8)
            .build()
            .expect("paper fully-integrated config is valid")
    }

    /// Number of processor nodes (chips).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Processor cores per chip, all sharing the chip's L2 (the paper's
    /// concluding chip-multiprocessing suggestion; 1 reproduces the
    /// paper's configurations).
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Total cores in the machine (`n_nodes * cores_per_node`).
    pub fn total_cores(&self) -> usize {
        self.n_nodes * self.cores_per_node
    }

    /// Integration level.
    pub fn integration(&self) -> IntegrationLevel {
        self.integration
    }

    /// L1 instruction cache geometry.
    pub fn l1i(&self) -> CacheGeometry {
        self.l1i
    }

    /// L1 data cache geometry.
    pub fn l1d(&self) -> CacheGeometry {
        self.l1d
    }

    /// L2 configuration.
    pub fn l2(&self) -> L2Config {
        self.l2
    }

    /// Remote access cache, if configured.
    pub fn rac(&self) -> Option<RacConfig> {
        self.rac
    }

    /// Whether instruction pages are replicated to every node (OS-based
    /// code replication, paper Section 6).
    pub fn replicate_instructions(&self) -> bool {
        self.replicate_instructions
    }

    /// Processor timing model.
    pub fn processor(&self) -> ProcessorModel {
        self.processor
    }

    /// Memory latencies for this configuration.
    pub fn latencies(&self) -> LatencyTable {
        self.latencies
    }

    /// A human-readable one-line summary, e.g.
    /// `"8p All 2M8w SRAM InOrder"`.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}p{} {} {} {:?} {}",
            self.n_nodes,
            if self.cores_per_node > 1 { format!("x{}c", self.cores_per_node) } else { String::new() },
            self.integration.label(),
            self.l2.geometry.label(),
            self.l2.kind,
            self.processor.label()
        );
        if self.rac.is_some() {
            s.push_str(" +RAC");
        }
        if self.replicate_instructions {
            s.push_str(" +IRepl");
        }
        s
    }
}

/// Builder for [`SystemConfig`]. Non-consuming: methods take `&mut self`
/// and return `&mut Self` so both one-liners and conditional configuration
/// read naturally.
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    n_nodes: usize,
    cores_per_node: usize,
    integration: IntegrationLevel,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    l2: L2Config,
    rac: Option<RacConfig>,
    replicate_instructions: bool,
    processor: ProcessorModel,
    latency_override: Option<LatencyTable>,
}

impl SystemConfigBuilder {
    fn new() -> Self {
        #[expect(clippy::expect_used, reason = "paper constants are validated by construction; failure is a build-time bug")]
        let l1 = CacheGeometry::new(L1_SIZE, L1_ASSOC, LINE_SIZE).expect("default L1 is valid");
        #[expect(clippy::expect_used, reason = "paper constants are validated by construction; failure is a build-time bug")]
        let l2_geom = CacheGeometry::new(8 << 20, 1, LINE_SIZE).expect("default L2 is valid");
        SystemConfigBuilder {
            n_nodes: 1,
            cores_per_node: 1,
            integration: IntegrationLevel::Base,
            l1i: l1,
            l1d: l1,
            l2: L2Config::new(l2_geom, L2Kind::OffChip),
            rac: None,
            replicate_instructions: false,
            processor: ProcessorModel::InOrder,
            latency_override: None,
        }
    }

    /// Sets the number of processor nodes (chips).
    pub fn nodes(&mut self, n: usize) -> &mut Self {
        self.n_nodes = n;
        self
    }

    /// Sets the number of cores per chip, all sharing the chip's L2 — a
    /// chip multiprocessor, the extension the paper's conclusion points
    /// to. Default 1.
    pub fn cores_per_node(&mut self, cores: usize) -> &mut Self {
        self.cores_per_node = cores;
        self
    }

    /// Sets the integration level.
    pub fn integration(&mut self, level: IntegrationLevel) -> &mut Self {
        self.integration = level;
        self
    }

    /// Sets an off-chip L2 of the given size and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is malformed; use [`Self::l2`] with a
    /// pre-validated [`CacheGeometry`] to handle errors instead.
    pub fn l2_off_chip(&mut self, size_bytes: u64, assoc: u32) -> &mut Self {
        #[expect(clippy::expect_used, reason = "documented panicking convenience setter; the builder's build() is the fallible path")]
        let g = CacheGeometry::new(size_bytes, assoc, LINE_SIZE)
            .expect("off-chip L2 geometry must be valid");
        self.l2 = L2Config::new(g, L2Kind::OffChip);
        self
    }

    /// Sets an on-chip SRAM L2 of the given size and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is malformed (die-limit checks happen at
    /// [`Self::build`] time, not here).
    pub fn l2_sram(&mut self, size_bytes: u64, assoc: u32) -> &mut Self {
        #[expect(clippy::expect_used, reason = "documented panicking convenience setter; the builder's build() is the fallible path")]
        let g = CacheGeometry::new(size_bytes, assoc, LINE_SIZE)
            .expect("SRAM L2 geometry must be valid");
        self.l2 = L2Config::new(g, L2Kind::OnChipSram);
        self
    }

    /// Sets an on-chip embedded-DRAM L2 of the given size and
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is malformed.
    pub fn l2_dram(&mut self, size_bytes: u64, assoc: u32) -> &mut Self {
        #[expect(clippy::expect_used, reason = "documented panicking convenience setter; the builder's build() is the fallible path")]
        let g = CacheGeometry::new(size_bytes, assoc, LINE_SIZE)
            .expect("DRAM L2 geometry must be valid");
        self.l2 = L2Config::new(g, L2Kind::OnChipDram);
        self
    }

    /// Sets the L2 from a pre-built [`L2Config`].
    pub fn l2(&mut self, l2: L2Config) -> &mut Self {
        self.l2 = l2;
        self
    }

    /// Overrides the L1 geometries (both caches; the paper uses identical
    /// 64 KB 2-way L1I and L1D).
    pub fn l1(&mut self, geometry: CacheGeometry) -> &mut Self {
        self.l1i = geometry;
        self.l1d = geometry;
        self
    }

    /// Adds a remote access cache.
    pub fn rac(&mut self, rac: RacConfig) -> &mut Self {
        self.rac = Some(rac);
        self
    }

    /// Enables OS-based replication of instruction pages at every node.
    pub fn replicate_instructions(&mut self, on: bool) -> &mut Self {
        self.replicate_instructions = on;
        self
    }

    /// Selects the in-order processor model (the default).
    pub fn in_order(&mut self) -> &mut Self {
        self.processor = ProcessorModel::InOrder;
        self
    }

    /// Selects the out-of-order processor model.
    pub fn out_of_order(&mut self, params: OooParams) -> &mut Self {
        self.processor = ProcessorModel::OutOfOrder(params);
        self
    }

    /// Replaces the derived latency table (for sensitivity studies).
    pub fn latencies(&mut self, table: LatencyTable) -> &mut Self {
        self.latency_override = Some(table);
        self
    }

    /// Validates and produces the [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// * [`ConfigError::BadNodeCount`] — zero nodes, or a RAC on a
    ///   uniprocessor.
    /// * [`ConfigError::L2KindMismatch`] — off-chip L2 with an integrated
    ///   level, or on-chip L2 with a non-integrated level.
    /// * [`ConfigError::L2TooLargeForDie`] — on-chip L2 over the process
    ///   technology limit (2 MB SRAM / 8 MB DRAM).
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        if self.n_nodes == 0 {
            return Err(ConfigError::BadNodeCount("at least one node is required".into()));
        }
        if self.cores_per_node == 0 || self.cores_per_node > 16 {
            return Err(ConfigError::BadNodeCount(
                "cores per node must be in 1..=16".into(),
            ));
        }
        if self.rac.is_some() && self.n_nodes < 2 {
            return Err(ConfigError::BadNodeCount(
                "a remote access cache only exists in multiprocessors".into(),
            ));
        }
        let on_chip_l2 = !matches!(self.l2.kind, L2Kind::OffChip);
        if self.integration.l2_on_chip() != on_chip_l2 {
            return Err(ConfigError::L2KindMismatch(format!(
                "integration level {:?} requires an {} L2 but got {:?}",
                self.integration,
                if self.integration.l2_on_chip() { "on-chip" } else { "off-chip" },
                self.l2.kind
            )));
        }
        if let Some(limit) = self.l2.kind.die_limit_bytes() {
            if self.l2.geometry.size_bytes() > limit {
                return Err(ConfigError::L2TooLargeForDie {
                    size_bytes: self.l2.geometry.size_bytes(),
                    limit_bytes: limit,
                });
            }
        }
        let latencies = self.latency_override.unwrap_or_else(|| {
            LatencyTable::for_system(self.integration, self.l2.kind, self.l2.geometry.assoc())
        });
        Ok(SystemConfig {
            n_nodes: self.n_nodes,
            cores_per_node: self.cores_per_node,
            integration: self.integration,
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            rac: self.rac,
            replicate_instructions: self.replicate_instructions,
            processor: self.processor,
            latencies,
        })
    }
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn in_order_is_the_default_processor_model() {
        let mut b = super::SystemConfig::builder();
        b.nodes(1).l2_off_chip(8 << 20, 1);
        let default_cfg = b.build().unwrap();
        let mut b = super::SystemConfig::builder();
        b.nodes(1).l2_off_chip(8 << 20, 1).in_order();
        let explicit = b.build().unwrap();
        assert_eq!(default_cfg.processor, explicit.processor);
    }

    use super::*;

    #[test]
    fn default_build_is_paper_base_uniprocessor() {
        let cfg = SystemConfig::paper_base_uni();
        assert_eq!(cfg.n_nodes(), 1);
        assert_eq!(cfg.integration(), IntegrationLevel::Base);
        assert_eq!(cfg.l2().geometry.size_bytes(), 8 << 20);
        assert_eq!(cfg.l2().geometry.assoc(), 1);
        assert_eq!(cfg.l1i().size_bytes(), 64 << 10);
        assert_eq!(cfg.l1d().assoc(), 2);
        assert_eq!(cfg.latencies().l2_hit, 25);
        assert_eq!(cfg.processor(), ProcessorModel::InOrder);
    }

    #[test]
    fn mp8_has_eight_nodes() {
        assert_eq!(SystemConfig::paper_base_mp8().n_nodes(), 8);
    }

    #[test]
    fn fully_integrated_latencies_derive_from_level() {
        let cfg = SystemConfig::paper_fully_integrated(8);
        assert_eq!(cfg.latencies().l2_hit, 15);
        assert_eq!(cfg.latencies().local, 75);
        assert_eq!(cfg.latencies().remote_clean, 150);
        assert_eq!(cfg.latencies().remote_dirty, 200);
    }

    #[test]
    fn zero_nodes_rejected() {
        let err = SystemConfig::builder().nodes(0).build().unwrap_err();
        assert!(matches!(err, ConfigError::BadNodeCount(_)));
    }

    #[test]
    fn rac_on_uniprocessor_rejected() {
        let err = SystemConfig::builder()
            .nodes(1)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(1 << 20, 4)
            .rac(RacConfig::paper())
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadNodeCount(_)));
    }

    #[test]
    fn sram_over_die_limit_rejected() {
        let err = SystemConfig::builder()
            .integration(IntegrationLevel::L2Integrated)
            .l2_sram(4 << 20, 8)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::L2TooLargeForDie { .. }));
    }

    #[test]
    fn dram_allows_8mb_but_not_16mb() {
        assert!(SystemConfig::builder()
            .integration(IntegrationLevel::L2Integrated)
            .l2_dram(8 << 20, 8)
            .build()
            .is_ok());
        assert!(SystemConfig::builder()
            .integration(IntegrationLevel::L2Integrated)
            .l2_dram(16 << 20, 8)
            .build()
            .is_err());
    }

    #[test]
    fn off_chip_l2_with_integrated_level_rejected() {
        let err = SystemConfig::builder()
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_off_chip(8 << 20, 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::L2KindMismatch(_)));
    }

    #[test]
    fn on_chip_l2_with_base_level_rejected() {
        let err = SystemConfig::builder()
            .integration(IntegrationLevel::Base)
            .l2_sram(2 << 20, 8)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::L2KindMismatch(_)));
    }

    #[test]
    fn latency_override_is_honored() {
        let custom = LatencyTable {
            l2_hit: 1,
            local: 2,
            remote_clean: 3,
            remote_dirty: 4,
            rac_hit: 5,
            remote_dirty_in_rac: 6,
        };
        let cfg = SystemConfig::builder().latencies(custom).build().unwrap();
        assert_eq!(cfg.latencies(), custom);
    }

    #[test]
    fn summary_mentions_key_features() {
        let mut b = SystemConfig::builder();
        b.nodes(8)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(2 << 20, 8)
            .rac(RacConfig::paper())
            .replicate_instructions(true);
        let cfg = b.build().unwrap();
        let s = cfg.summary();
        assert!(s.contains("8p"));
        assert!(s.contains("All"));
        assert!(s.contains("2M8w"));
        assert!(s.contains("+RAC"));
        assert!(s.contains("+IRepl"));
    }

    #[test]
    fn builder_supports_conditional_configuration() {
        let want_rac = true;
        let mut b = SystemConfig::builder();
        b.nodes(8).integration(IntegrationLevel::FullyIntegrated).l2_sram(1 << 20, 4);
        if want_rac {
            b.rac(RacConfig::paper());
        }
        let cfg = b.build().unwrap();
        assert!(cfg.rac().is_some());
    }
}
