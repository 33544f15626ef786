//! Fixture: `analyze: total` contracts that discharge nothing.
//!
//! Three contracts each discharge an unchecked index and are live: one
//! at a site, one above a `fn`, and one above a `fn` nothing calls
//! (every shipped fn is scanned, called or not). The others are stale:
//! one sits above an index the dataflow proves, one four lines above
//! its site, and one above a `fn` with no partial operation.

#![forbid(unsafe_code)]

pub fn entry() {
    let v = vec![1u64, 2];
    let i = pick();
    live_site(&v, i);
    live_fn(&v, i);
    proved(&v, i);
    out_of_reach(&v, i);
    no_site(&v);
}

fn pick() -> usize {
    0
}

fn live_site(v: &[u64], i: usize) -> u64 {
    // analyze: total — the live site contract
    v[i]
}

// analyze: total — the live fn contract
fn live_fn(v: &[u64], i: usize) -> u64 {
    let j = i;
    let k = j;
    let m = k;
    v[m]
}

fn proved(v: &[u64], i: usize) -> u64 {
    if i < v.len() {
        // analyze: total — over a site the dataflow already proves
        v[i]
    } else {
        0
    }
}

fn out_of_reach(v: &[u64], i: usize) -> u64 {
    // analyze: total — four lines is out of reach
    let w = v;
    let k = i;
    let _ = k;
    w[i]
}

// analyze: total — above a fn with nothing partial
fn no_site(v: &[u64]) -> usize {
    v.len()
}

// analyze: total — the uncalled fn contract
fn uncalled(v: &[u64], i: usize) -> u64 {
    v[i]
}
