//! Fixture: `analyze:` and `lint:` directives, none of a known kind.
//!
//! No pass reads either prefix. The four below are a retired `total`
//! contract (a reasoned `#[expect(clippy::indexing_slicing)]` replaced
//! it), a retired kind, a misspelt one, and a leftover `lint:` escape
//! (clippy's `#[expect]` replaced them). Prose that merely mentions
//! `// analyze: pure` inside a doc comment is not a directive.

fn fixture_contracted(v: &[u8]) -> u8 {
    // analyze: total — the fixture's slice is never empty
    v.first().copied().unwrap_or(0)
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
