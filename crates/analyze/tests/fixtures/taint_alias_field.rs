//! Fixture: a struct field typed through a hash alias, iterated into an
//! export sink.
//!
//! Mounted as `crates/obs/src/export.rs` (a sink path). `lines` is a
//! `LineMap`, and `LineMap` is a `HashMap` declared after the struct,
//! so only the alias says the field is hash-ordered. The taint pass
//! must still see the walk over it.

use std::collections::HashMap;

pub struct FixtureDirectory {
    lines: LineMap<u8>,
}

type LineMap<V> = HashMap<u64, V>;

impl FixtureDirectory {
    pub fn fixture_tracked_lines(&self) -> Vec<u64> {
        let mut v = Vec::new();
        for line in self.lines.keys() {
            v.push(*line);
        }
        v
    }
}
