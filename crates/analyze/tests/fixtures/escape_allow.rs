//! Fixture: the escape hatch, in both its valid and invalid forms.
//!
//! Both functions are hot roots that grow a Vec. The first carries a
//! reasoned `lint: allow` and must be *suppressed* (counted, not a
//! finding). The second carries a reasonless allow, which the escape
//! policy treats as inert: the finding must still fire. Reasons are the
//! whole point — an escape nobody can audit is a hole, not an escape.

// analyze: hot
pub fn fixture_reserved_push(v: &mut Vec<u64>, x: u64) {
    // lint: allow(hot-alloc) — capacity is reserved at construction, so the push never reallocates
    v.push(x);
}

// analyze: hot
pub fn fixture_unreserved_push(v: &mut Vec<u64>, x: u64) {
    // lint: allow(hot-alloc)
    v.push(x);
}
