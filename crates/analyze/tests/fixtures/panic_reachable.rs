//! Negative fixture for the panic-freedom rules: the unguarded sites
//! must fire, the dataflow-proved index must stay silent, and both
//! contract levels (site and function) must suppress with a reason.
//! Panicking calls are `no-panic` findings whether or not a check
//! dominates them: the one panic ban accepts no dataflow discharge.

#![forbid(unsafe_code)]

/// Reachable from the mounted `src/bin/csim.rs` entry point via the
/// name-based call graph.
pub fn entry() {
    let v = vec![1u64, 2];
    let i = pick();
    bad_unwrap(&v);
    checked_unwrap(&v);
    bad_index(&v, i);
    guarded_index(&v, i);
    contracted_site(&v, i);
    contracted_fn(&v, i);
}

fn pick() -> usize {
    0
}

fn bad_unwrap(v: &[u64]) -> u64 {
    *v.first().unwrap() // expected finding: no-panic (unchecked)
}

fn checked_unwrap(v: &[u64]) -> u64 {
    let o = v.first();
    if o.is_some() {
        *o.unwrap() // expected finding: no-panic (dominated by is_some)
    } else {
        0
    }
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
