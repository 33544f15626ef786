//! The TPC-B schema and its mapping onto database blocks.
//!
//! TPC-B models a bank: `branches`, 10 tellers per branch, 100 000
//! accounts per branch, and an append-only history table. Each transaction
//! updates one account, its teller and its branch, and appends a history
//! row. This module decides *where those rows live*: which block of which
//! table region, and which cache line within the block — the mapping that
//! turns schema-level activity into the paper's memory-system behavior
//! (40 ultra-hot migratory branch lines, 400 hot teller lines with false
//! sharing, and a cold random account stream).

use csim_trace::SimRng;

use crate::layout::{Region, LINE_BYTES};
use crate::params::OltpParams;
use crate::stream::prob_threshold;

/// Block header size in bytes (Oracle block overhead).
pub(crate) const BLOCK_HEADER_BYTES: u64 = 128;

/// A row's location: the line index within its table region, plus the
/// block number (used to derive the buffer-header address in the SGA).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowRef {
    /// Line index within the table's region.
    pub row_line: u64,
    /// Block number within the table (for buffer-header lookup).
    pub block: u64,
}

/// Derived schema geometry and row-placement logic.
#[derive(Clone, Debug)]
pub struct Schema {
    branches: u64,
    tellers_per_branch: u64,
    accounts_per_branch: u64,
    /// TPC-B's home/remote rule in the integer domain of
    /// [`prob_threshold`]: a 53-bit draw below this picks a home-branch
    /// account, deciding exactly like `gen_f64() < home_fraction`.
    home_thresh: u64,
    rows_per_block: u64,
    lines_per_block: u64,
    row_bytes: u64,
    history_rows_per_block: u64,
}

impl Schema {
    /// Builds the schema geometry from workload parameters.
    pub fn new(params: &OltpParams) -> Self {
        let rows_per_block =
            ((params.block_bytes - BLOCK_HEADER_BYTES) / params.account_row_bytes).max(1);
        Schema {
            branches: params.branches,
            tellers_per_branch: params.tellers_per_branch,
            accounts_per_branch: params.accounts_per_branch,
            home_thresh: prob_threshold(params.home_account_fraction),
            rows_per_block,
            lines_per_block: params.block_bytes / LINE_BYTES,
            row_bytes: params.account_row_bytes,
            history_rows_per_block: params.history_rows_per_block,
        }
    }

    /// Number of branches.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Data rows per block (after the block header).
    pub fn rows_per_block(&self) -> u64 {
        self.rows_per_block
    }

    /// Draws a teller uniformly; the transaction's branch is the teller's.
    pub(crate) fn pick_teller(&self, rng: &mut SimRng) -> u64 {
        rng.gen_range(0..self.branches * self.tellers_per_branch)
    }

    /// The branch a teller belongs to.
    pub fn branch_of_teller(&self, teller: u64) -> u64 {
        teller / self.tellers_per_branch
    }

    /// Draws the account for a transaction at `branch`, following TPC-B's
    /// 85/15 home/remote rule. The draw `next_u64() >> 11` is exactly
    /// what `gen_f64` would consume, so the RNG stream and the decision
    /// are bit-identical to the float comparison.
    pub fn pick_account(&self, rng: &mut SimRng, branch: u64) -> u64 {
        if rng.next_u64() >> 11 < self.home_thresh {
            branch * self.accounts_per_branch + rng.gen_range(0..self.accounts_per_branch)
        } else {
            rng.gen_range(0..self.branches * self.accounts_per_branch)
        }
    }

    fn packed_row(&self, row: u64) -> RowRef {
        let block = row / self.rows_per_block;
        let within = row % self.rows_per_block;
        let byte = BLOCK_HEADER_BYTES + within * self.row_bytes;
        RowRef { row_line: block * self.lines_per_block + byte / LINE_BYTES, block }
    }

    /// Location of an account row ([`Region::AccountBlocks`]): rows are
    /// packed ~19 per 2 KB block, so the 4 M accounts span a cold stream
    /// of hundreds of megabytes.
    pub fn account_row(&self, account: u64) -> RowRef {
        self.packed_row(account)
    }

    /// Location of a teller row ([`Region::TellerBlocks`]): packed like
    /// accounts, so nearby tellers *share lines* — deliberate false
    /// sharing, as in untuned row packing.
    pub fn teller_row(&self, teller: u64) -> RowRef {
        self.packed_row(teller)
    }

    /// Location of a branch row ([`Region::BranchBlocks`]): one row per
    /// block (padded, as tuned installs do), giving 40 ultra-hot migratory
    /// lines plus their headers.
    pub fn branch_row(&self, branch: u64) -> RowRef {
        RowRef {
            row_line: branch * self.lines_per_block + BLOCK_HEADER_BYTES / LINE_BYTES,
            block: branch,
        }
    }

    /// Location of the `seq`-th history row appended by a node
    /// ([`Region::HistoryBlocks`]); history rows are ~64 bytes so two
    /// share a line, and a fresh (cold) block starts every
    /// `history_rows_per_block` rows.
    pub fn history_row(&self, seq: u64) -> RowRef {
        let block = seq / self.history_rows_per_block;
        let within = seq % self.history_rows_per_block;
        RowRef {
            row_line: block * self.lines_per_block + BLOCK_HEADER_BYTES / LINE_BYTES + within / 2,
            block,
        }
    }

    /// The region holding a table's blocks.
    pub fn region_of(table: Table, node: u8) -> Region {
        match table {
            Table::Account => Region::AccountBlocks,
            Table::Teller => Region::TellerBlocks,
            Table::Branch => Region::BranchBlocks,
            Table::History => Region::HistoryBlocks { node },
        }
    }
}

/// The four TPC-B tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Table {
    /// 4 M rows, uniformly accessed: the cold stream.
    Account,
    /// 400 rows, hot and write-shared.
    Teller,
    /// 40 rows, ultra-hot and migratory.
    Branch,
    /// Append-only.
    History,
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_trace::SimRng;

    fn schema() -> Schema {
        Schema::new(&OltpParams::default())
    }

    #[test]
    fn rows_per_block_accounts_for_header() {
        // (2048 - 128) / 100 = 19 rows.
        assert_eq!(schema().rows_per_block(), 19);
    }

    #[test]
    fn teller_and_branch_relationship() {
        let s = schema();
        assert_eq!(s.branch_of_teller(0), 0);
        assert_eq!(s.branch_of_teller(9), 0);
        assert_eq!(s.branch_of_teller(10), 1);
        assert_eq!(s.branch_of_teller(399), 39);
    }

    #[test]
    fn home_rule_biases_account_choice() {
        let s = schema();
        let mut rng = SimRng::seed_from_u64(3);
        let branch = 7u64;
        let lo = branch * 100_000;
        let hi = lo + 100_000;
        let n = 10_000;
        let home = (0..n).filter(|_| (lo..hi).contains(&s.pick_account(&mut rng, branch))).count();
        let frac = home as f64 / n as f64;
        // 85% home plus 15% * (1/40) random hits ≈ 85.4%.
        assert!((0.82..0.89).contains(&frac), "home fraction {frac}");
    }

    #[test]
    fn account_rows_pack_into_blocks() {
        let s = schema();
        let r0 = s.account_row(0);
        let r18 = s.account_row(18);
        let r19 = s.account_row(19);
        assert_eq!(r0.block, 0);
        assert_eq!(r18.block, 0);
        assert_eq!(r19.block, 1);
        // First row starts after the 128-byte header: line 2 of the block.
        assert_eq!(r0.row_line, 2);
        // Block 1 starts 32 lines in.
        assert_eq!(r19.row_line, 34);
    }

    #[test]
    fn adjacent_tellers_share_lines() {
        let s = schema();
        // Rows are 100 bytes: tellers 0 and 1 both touch line 2/3 region.
        let a = s.teller_row(0);
        let b = s.teller_row(1);
        assert_eq!(a.block, b.block);
        assert!(b.row_line - a.row_line <= 1, "packed rows must be adjacent");
    }

    #[test]
    fn branch_rows_are_padded_one_per_block() {
        let s = schema();
        let a = s.branch_row(0);
        let b = s.branch_row(1);
        assert_eq!(a.block, 0);
        assert_eq!(b.block, 1);
        assert_eq!(b.row_line - a.row_line, 32, "one 2 KB block apart");
    }

    #[test]
    fn history_moves_to_fresh_blocks() {
        let s = schema();
        let first = s.history_row(0);
        let last_in_block = s.history_row(39);
        let next_block = s.history_row(40);
        assert_eq!(first.block, last_in_block.block);
        assert_eq!(next_block.block, 1);
        // Two rows per line.
        assert_eq!(s.history_row(0).row_line, s.history_row(1).row_line);
        assert_ne!(s.history_row(1).row_line, s.history_row(2).row_line);
    }

    #[test]
    fn tables_map_to_regions() {
        assert_eq!(Schema::region_of(Table::Account, 3), Region::AccountBlocks);
        assert_eq!(Schema::region_of(Table::History, 3), Region::HistoryBlocks { node: 3 });
    }
}
