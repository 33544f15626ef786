//! Fixture: a panicking call beside a debug assertion.
//!
//! `.unwrap()` is one `no-panic` finding and nothing else.
//! `debug_assert!` is workspace policy and stays allowed: the second
//! function proves the ban does not overreach.

pub fn fixture_lookup(table: &[u64], i: usize) -> u64 {
    *table.get(i).unwrap()
}

pub fn fixture_checked(x: u64) -> u64 {
    debug_assert!(x > 0);
    x - 1
}
