//! Negative fixture for the panic-freedom rules: an unguarded site in
//! any shipped simulator function must fire, whether `main` calls it by
//! name, passes it by path, or never reaches it at all; the
//! dataflow-proved index must stay silent, and both contract levels
//! (site and function) must suppress with a reason.

#![forbid(unsafe_code)]

const TABLE: [u64; 2] = [3, 4];

/// Called by name from the mounted `src/bin/csim.rs` entry point.
pub fn entry() {
    let v = vec![1u64, 2];
    let i = pick();
    bad_index(&v, i);
    guarded_index(&v, i);
    contracted_site(&v, i);
    contracted_fn(&v, i);
    let picks = vec![0usize, 1];
    let _: u64 = picks.iter().map(by_path).sum();
}

fn pick() -> usize {
    0
}

fn bad_index(v: &[u64], i: usize) -> u64 {
    v[i] // expected finding: called by name
}

fn by_path(i: &usize) -> u64 {
    let k = *i;
    TABLE[k] // expected finding: passed by path
}

fn never_called(v: &[u64], i: usize) -> u64 {
    v[i] // expected finding: called by nobody
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
