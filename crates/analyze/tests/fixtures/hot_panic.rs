//! Fixture: a panicking operation on a declared hot path.
//!
//! `.unwrap()` is one `no-panic` finding, hot or not — the hot-path
//! pass adds no second rule for it. `debug_assert!` is workspace policy
//! and stays allowed: the second function proves the ban does not
//! overreach.

// analyze: hot
pub fn fixture_hot_lookup(table: &[u64], i: usize) -> u64 {
    *table.get(i).unwrap()
}

// analyze: hot
pub fn fixture_hot_checked(x: u64) -> u64 {
    debug_assert!(x > 0);
    x - 1
}
