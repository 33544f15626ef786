//! Fixture: the escape hatch, in both its valid and invalid forms.
//!
//! Both functions make a panicking call. The first carries a reasoned
//! `lint: allow` and must be *suppressed* (counted, not a finding). The
//! second carries a reasonless allow, which the escape policy treats as
//! inert: the finding must still fire. Reasons are the whole point — an
//! escape nobody can audit is a hole, not an escape.

pub fn fixture_reasoned(g: Option<u64>) -> u64 {
    // lint: allow(no-panic) — every caller passes Some, checked at construction
    g.expect("checked at construction")
}

pub fn fixture_reasonless(g: Option<u64>) -> u64 {
    // lint: allow(no-panic)
    g.unwrap()
}
