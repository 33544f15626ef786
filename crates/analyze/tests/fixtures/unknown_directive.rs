//! Fixture: `analyze:` directives of no known kind.
//!
//! The `total` contract is a known directive. The other three name no
//! kind any pass reads: a retired one, a misspelt one, and a leftover
//! `lint:` escape (clippy's `#[expect]` replaced them). Prose that
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

fn fixture_leftover(v: Option<u8>) -> u8 {
    // lint: allow(no-panic) — a retired escape
    v.unwrap_or(0)
}
