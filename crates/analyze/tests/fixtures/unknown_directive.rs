//! Fixture: `analyze:` directives of no known kind.
//!
//! The `total` contract is a known directive. The other two name no
//! kind any pass reads: a retired one and a misspelt one. Prose that
//! merely mentions `// analyze: pure` inside a doc comment is not a
//! directive.

fn fixture_known(v: &[u8]) -> u8 {
    // analyze: total — the fixture's slice is never empty
    v[0]
}

fn fixture_retired(n: u64) -> f64 {
    // analyze: pure — a kind no pass reads
    n as f64
}

// analyze: hto — a misspelt hot marker
fn fixture_misspelt() {}
