//! Negative fixture for the panic-freedom rules: the unguarded sites
//! must fire, the dataflow-proved index must stay silent, and both
//! contract levels (site and function) must suppress with a reason.

#![forbid(unsafe_code)]

/// Reachable from the mounted `src/bin/csim.rs` entry point via the
/// name-based call graph.
pub fn entry() {
    let v = vec![1u64, 2];
    let i = pick();
    bad_index(&v, i);
    guarded_index(&v, i);
    contracted_site(&v, i);
    contracted_fn(&v, i);
}

fn pick() -> usize {
    0
}

fn bad_index(v: &[u64], i: usize) -> u64 {
    v[i] // expected finding: unchecked-index
}

fn guarded_index(v: &[u64], i: usize) -> u64 {
    if i < v.len() {
        v[i] // clean: the bounds dataflow proves `i < v.len()`
    } else {
        0
    }
}

fn contracted_site(v: &[u64], i: usize) -> u64 {
    // analyze: total — fixture: the caller reduces i before the call
    v[i]
}

// analyze: total — fixture: every caller validates i against v.len()
fn contracted_fn(v: &[u64], i: usize) -> u64 {
    v[i]
}
