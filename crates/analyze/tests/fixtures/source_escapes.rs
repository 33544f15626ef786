//! Fixture: how `lint: allow` markers bind to source-rule sites.
//!
//! A reasoned marker on the line above, or three lines above a wrapped
//! expression, suppresses. A reasonless marker, a marker four lines
//! up, and a marker spelled inside a string literal do not. Two stacked
//! markers for different rules each suppress their own rule. A string
//! with a line continuation must not shift the suppressed line.

fn fixture_reasoned(g: Option<u8>) -> u8 {
    // lint: allow(no-panic) — geometry is a compile-time constant
    g.expect("checked")
}

fn fixture_wrapped(g: Option<u8>) -> u8 {
    // lint: allow(no-panic) — the wrapped call is still in range
    let v = g
        .map(|x| x + 1)
        .unwrap();
    v
}

fn fixture_too_far(g: Option<u8>) -> u8 {
    // lint: allow(no-panic) — four lines is out of range
    let v = g
        .map(|x| x + 1)
        .map(|x| x + 2)
        .unwrap();
    v
}

fn fixture_reasonless(g: Option<u8>) -> u8 {
    // lint: allow(no-panic)
    g.expect("checked")
}

fn fixture_string_marker(g: Option<u8>) -> u8 {
    let _s = "// lint: allow(no-panic) — fake, inside a string";
    g.expect("checked")
}

fn fixture_stacked(g: Option<u8>) -> (u8, std::time::Instant) {
    // lint: allow(no-panic) — stacked markers for two rules
    // lint: allow(no-wallclock) — neither may shadow the other
    (g.unwrap(), std::time::Instant::now())
}

fn fixture_continuation(g: Option<u8>) -> u8 {
    let _s = "first \
        second";
    // lint: allow(no-panic) — exercised in a test
    g.expect("checked")
}
