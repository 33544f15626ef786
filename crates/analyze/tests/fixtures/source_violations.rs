//! Fixture: every banned token of the source rules, one site per line.
//!
//! Mounted at a plain library path, the panic and wall-clock sites must
//! fire; mounted at an export path, the hash containers fire too; under
//! `crates/bench/` the panic sites are exempt. The `unwrap_or` family on
//! the last line is total and must never fire.

use std::collections::HashMap;

fn fixture_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

fn fixture_expect(x: Option<u8>) -> u8 {
    x.expect("present")
}

fn fixture_macros(k: u8) -> u8 {
    match k {
        0 => panic!("zero"),
        1 => todo!(),
        2 => unimplemented!(),
        _ => unreachable!(),
    }
}

fn fixture_clock() -> std::time::Instant {
    std::time::Instant::now()
}

fn fixture_epoch() -> std::time::SystemTime {
    std::time::UNIX_EPOCH
}

fn fixture_multibyte(y: Option<char>) -> [char; 2] {
    ['é', y.unwrap()]
}

fn fixture_map() -> HashMap<u8, u8> {
    HashMap::new()
}

fn fixture_total(a: Option<u8>, b: Option<u8>, c: Option<u8>) -> u8 {
    a.unwrap_or(0) + b.unwrap_or_else(|| 1) + c.unwrap_or_default()
}
