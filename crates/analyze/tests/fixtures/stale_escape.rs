//! Fixture: `lint: allow` markers that suppress nothing.
//!
//! The first marker suppresses the `no-panic` finding below it and is
//! live, as is the last one, above a `fn`, which covers its whole body.
//! The others are stale: one names a rule with no finding in reach, one
//! sits four lines above its finding, and one has no reason.

fn fixture_live(g: Option<u8>) -> u8 {
    // lint: allow(no-panic) — the live escape
    g.expect("checked")
}

fn fixture_wrong_rule(g: Option<u8>) -> u8 {
    // lint: allow(no-wallclock) — names a rule that does not fire here
    g.unwrap()
}

fn fixture_out_of_reach(g: Option<u8>) -> u8 {
    // lint: allow(no-panic) — four lines is out of reach
    let v = g
        .map(|x| x + 1)
        .map(|x| x + 2)
        .unwrap();
    v
}

fn fixture_reasonless(g: Option<u8>) -> u8 {
    // lint: allow(no-panic)
    g.unwrap()
}

// lint: allow(taint-export) — a marker above the fn covers its whole body
fn fixture_fn_level(m: &std::collections::HashMap<u64, u8>) -> Vec<u64> {
    let mut v = Vec::new();
    v.reserve(m.len());
    v.push(0);
    v.extend(m.keys().copied());
    v
}
