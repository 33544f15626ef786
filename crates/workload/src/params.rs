//! Workload parameters.
//!
//! Every knob of the synthetic OLTP engine lives here. The defaults are
//! calibrated (see EXPERIMENTS.md) so that the reference streams reproduce
//! the memory-system signature the paper characterizes for TPC-B on Oracle
//! 7.3.2: L1-overwhelming instruction and data footprints, a hot set that
//! a 2 MB associative L2 captures, heavy read-write sharing of SGA
//! metadata in multiprocessor runs, and a cold stream (account rows,
//! history, log I/O) that no cache captures.

use std::error::Error;
use std::fmt;

/// An invalid combination of workload parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamsError(String);

impl ParamsError {
    pub(crate) fn from_msg(msg: &str) -> Self {
        ParamsError(msg.to_string())
    }
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload parameters: {}", self.0)
    }
}

impl Error for ParamsError {}

/// Parameters of the synthetic TPC-B / Oracle workload.
///
/// Plain data with public fields; call [`OltpParams::validate`] after
/// hand-editing, or rely on [`OltpParams::default`] which is always valid.
#[derive(Clone, Debug, PartialEq)]
pub struct OltpParams {
    /// Master RNG seed; every process stream derives from it.
    pub seed: u64,

    // --- TPC-B schema (scale: 40 branches, as in the paper) ---
    /// Number of branches.
    pub branches: u64,
    /// Tellers per branch (TPC-B: 10).
    pub tellers_per_branch: u64,
    /// Accounts per branch (TPC-B: 100 000).
    pub accounts_per_branch: u64,
    /// Fraction of transactions whose account belongs to the teller's own
    /// branch (TPC-B's 85/15 home/remote rule).
    pub home_account_fraction: f64,

    // --- process architecture ---
    /// Dedicated server processes per processor (the paper uses 8).
    pub servers_per_node: usize,

    // --- code footprint ---
    /// Hot database-engine text, in 64-byte lines (default 10240 = 640 KB).
    pub db_code_lines: u64,
    /// Hot kernel text, in lines (default 4096 = 256 KB).
    pub kernel_code_lines: u64,
    /// Zipf skew of function popularity (0 = uniform).
    pub code_zipf: f64,
    /// Lines per function (straight-line run before jumping).
    pub func_lines: u64,
    /// Instructions per 64-byte line (4-byte instructions = 16).
    pub instrs_per_line: u64,

    // --- transaction path lengths (instructions) ---
    /// Database-engine instructions per transaction (parse + execute).
    pub txn_db_instrs: u64,
    /// Kernel instructions for client/pipe handling per transaction.
    pub txn_pipe_instrs: u64,
    /// Mixed commit-path instructions per transaction (log syscall).
    pub txn_commit_instrs: u64,
    /// Kernel instructions per context switch.
    pub switch_instrs: u64,
    /// Log-writer burst length (instructions), run on node 0.
    pub lgwr_instrs: u64,
    /// Commits that accumulate before a log-writer burst.
    pub lgwr_batch: u64,
    /// Database-writer burst length (instructions).
    pub dbwr_instrs: u64,
    /// Scheduler rounds between database-writer bursts.
    pub dbwr_period: u64,

    // --- data reference mix (per instruction) ---
    /// Probability an instruction carries a load.
    pub p_load: f64,
    /// Probability an instruction carries a store.
    pub p_store: f64,
    /// Probability a background data reference re-touches one of the
    /// process's recently used lines instead of a fresh target (temporal
    /// locality of register spills, loop variables, cursor state).
    pub bg_reuse: f64,

    // --- data footprints (in 64-byte lines unless noted) ---
    /// Hot private PGA/stack lines per server process.
    pub pga_hot_lines: u64,
    /// Warm private work-area lines per server process (sort areas,
    /// cursor caches) — touched at a lower rate than the PGA but large
    /// enough to stress the L2.
    pub work_area_lines: u64,
    /// Hot shared SGA metadata lines (latches, buffer headers, list
    /// heads) — the communication-miss driver in multiprocessor runs.
    pub meta_hot_lines: u64,
    /// Zipf skew of metadata line popularity.
    pub meta_zipf: f64,
    /// Hot shared read-mostly SGA lines (dictionary cache, descriptors).
    pub shared_read_lines: u64,
    /// Zipf skew of read-mostly line popularity.
    pub shared_read_zipf: f64,
    /// Log-buffer ring size in lines (Oracle redo log buffer).
    pub log_ring_lines: u64,
    /// Hot kernel data lines per node (run queues, pipe structures).
    pub kernel_node_lines: u64,
    /// Globally shared kernel data lines (file table, global locks).
    pub kernel_shared_lines: u64,
    /// Kernel stack lines per server process.
    pub kernel_stack_lines: u64,

    // --- background mix weights (normalized internally) ---
    /// User loads: weight of private PGA/stack.
    pub w_uload_private: f64,
    /// User loads: weight of hot shared metadata.
    pub w_uload_meta: f64,
    /// User loads: weight of read-mostly shared SGA.
    pub w_uload_shared_read: f64,
    /// User loads: weight of the private work area.
    pub w_uload_work: f64,
    /// User stores: weight of private PGA/stack.
    pub w_ustore_private: f64,
    /// User stores: weight of hot shared metadata.
    pub w_ustore_meta: f64,
    /// User stores: weight of the private work area.
    pub w_ustore_work: f64,
    /// Kernel loads/stores: weight of per-process kernel stack.
    pub w_k_stack: f64,
    /// Kernel loads/stores: weight of per-node kernel data.
    pub w_k_node: f64,
    /// Kernel loads/stores: weight of globally shared kernel data.
    pub w_k_shared: f64,
    /// Fraction of kernel *stores* that go to the globally shared kernel
    /// region (the rest follow the load mix).
    pub k_shared_store_fraction: f64,

    // --- database block geometry ---
    /// Oracle data block size in bytes (2 KB in period installs).
    pub block_bytes: u64,
    /// Account row bytes (controls rows per block).
    pub account_row_bytes: u64,
    /// History rows per block before moving to a fresh block.
    pub history_rows_per_block: u64,
}

impl Default for OltpParams {
    fn default() -> Self {
        OltpParams {
            seed: 0xC0FF_EE00_2000,
            branches: 40,
            tellers_per_branch: 10,
            accounts_per_branch: 100_000,
            home_account_fraction: 0.85,
            servers_per_node: 8,
            db_code_lines: 10_240,
            kernel_code_lines: 4_096,
            code_zipf: 1.05,
            func_lines: 8,
            instrs_per_line: 16,
            txn_db_instrs: 12_000,
            txn_pipe_instrs: 1_200,
            txn_commit_instrs: 1_800,
            switch_instrs: 400,
            lgwr_instrs: 1_500,
            lgwr_batch: 4,
            dbwr_instrs: 2_000,
            dbwr_period: 24,
            p_load: 0.26,
            p_store: 0.13,
            bg_reuse: 0.65,
            pga_hot_lines: 96,
            work_area_lines: 768,
            meta_hot_lines: 3_072,
            meta_zipf: 0.92,
            shared_read_lines: 1_536,
            shared_read_zipf: 0.92,
            log_ring_lines: 2_048,
            kernel_node_lines: 1_024,
            kernel_shared_lines: 96,
            kernel_stack_lines: 64,
            w_uload_private: 0.60,
            w_uload_meta: 0.05,
            w_uload_shared_read: 0.18,
            w_uload_work: 0.33,
            w_ustore_private: 0.84,
            w_ustore_meta: 0.045,
            w_ustore_work: 0.12,
            w_k_stack: 0.45,
            w_k_node: 0.45,
            w_k_shared: 0.10,
            k_shared_store_fraction: 0.02,
            block_bytes: 2_048,
            account_row_bytes: 100,
            history_rows_per_block: 40,
        }
    }
}

impl OltpParams {
    /// Total accounts in the database.
    pub fn total_accounts(&self) -> u64 {
        self.branches * self.accounts_per_branch
    }

    /// Total tellers.
    pub fn total_tellers(&self) -> u64 {
        self.branches * self.tellers_per_branch
    }

    /// Account rows per database block, ignoring block-header overhead
    /// (the schema layer subtracts the 128-byte header; see
    /// [`crate::Schema::rows_per_block`]).
    pub fn account_rows_per_block(&self) -> u64 {
        (self.block_bytes / self.account_row_bytes).max(1)
    }

    /// Approximate instructions per transaction (excluding daemon and
    /// scheduler overhead).
    pub fn txn_instrs(&self) -> u64 {
        self.txn_db_instrs + self.txn_pipe_instrs + self.txn_commit_instrs
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] describing the first violated constraint:
    /// zero counts, probabilities outside [0, 1], `p_load + p_store > 1`,
    /// or non-positive mix weights.
    pub fn validate(&self) -> Result<(), ParamsError> {
        let err = |m: &str| Err(ParamsError(m.to_string()));
        if self.branches == 0 || self.tellers_per_branch == 0 || self.accounts_per_branch == 0 {
            return err("schema counts must be nonzero");
        }
        if self.servers_per_node == 0 {
            return err("at least one server process per node is required");
        }
        if self.db_code_lines == 0 || self.kernel_code_lines == 0 {
            return err("code footprints must be nonzero");
        }
        if self.func_lines == 0 || self.instrs_per_line == 0 {
            return err("function geometry must be nonzero");
        }
        if self.txn_db_instrs == 0 {
            return err("transactions must execute database code");
        }
        if !(0.0..=1.0).contains(&self.home_account_fraction) {
            return err("home_account_fraction must be in [0, 1]");
        }
        if self.p_load < 0.0 || self.p_store < 0.0 || self.p_load + self.p_store > 1.0 {
            return err("p_load/p_store must be nonnegative with sum <= 1");
        }
        if !(0.0..=1.0).contains(&self.bg_reuse) {
            return err("bg_reuse must be in [0, 1]");
        }
        let weights = [
            self.w_uload_private,
            self.w_uload_meta,
            self.w_uload_shared_read,
            self.w_uload_work,
            self.w_ustore_work,
            self.w_ustore_private,
            self.w_ustore_meta,
            self.w_k_stack,
            self.w_k_node,
            self.w_k_shared,
        ];
        if weights.iter().any(|w| *w < 0.0) || weights.iter().all(|w| *w == 0.0) {
            return err("mix weights must be nonnegative and not all zero");
        }
        if !(0.0..=1.0).contains(&self.k_shared_store_fraction) {
            return err("k_shared_store_fraction must be in [0, 1]");
        }
        if self.meta_hot_lines == 0
            || self.pga_hot_lines == 0
            || self.log_ring_lines == 0
            || self.shared_read_lines == 0
        {
            return err("data footprints must be nonzero");
        }
        if self.block_bytes == 0
            || self.account_row_bytes == 0
            || self.account_row_bytes > self.block_bytes
        {
            return err("block geometry is inconsistent");
        }
        if self.history_rows_per_block == 0 {
            return err("history_rows_per_block must be nonzero");
        }
        if self.lgwr_batch == 0 || self.dbwr_period == 0 {
            return err("daemon periods must be nonzero");
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::field_reassign_with_default, reason = "each case perturbs one default field")]
mod tests {
    #[test]
    fn txn_instrs_sums_the_per_phase_budgets() {
        let p = super::OltpParams::default();
        assert_eq!(p.txn_instrs(), p.txn_db_instrs + p.txn_pipe_instrs + p.txn_commit_instrs);
        assert!(p.txn_instrs() > 0);
    }

    use super::*;

    #[test]
    fn defaults_are_valid_and_match_the_paper_scale() {
        let p = OltpParams::default();
        p.validate().expect("defaults must validate");
        assert_eq!(p.branches, 40);
        assert_eq!(p.total_accounts(), 4_000_000);
        assert_eq!(p.total_tellers(), 400);
        assert_eq!(p.servers_per_node, 8);
    }

    #[test]
    fn account_rows_per_block() {
        let p = OltpParams::default();
        assert_eq!(p.account_rows_per_block(), 20);
    }

    #[test]
    fn validation_rejects_zero_schema() {
        let mut p = OltpParams::default();
        p.branches = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        let mut p = OltpParams::default();
        p.p_load = 0.9;
        p.p_store = 0.2;
        assert!(p.validate().is_err());
        let mut p = OltpParams::default();
        p.home_account_fraction = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_negative_weights() {
        let mut p = OltpParams::default();
        p.w_uload_meta = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_row_bigger_than_block() {
        let mut p = OltpParams::default();
        p.account_row_bytes = 4096;
        assert!(p.validate().is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let mut p = OltpParams::default();
        p.servers_per_node = 0;
        let e = p.validate().unwrap_err();
        assert!(e.to_string().contains("server process"));
    }
}
