//! Fixture: banned tokens where the source rules must not look.
//!
//! Comments (`x.unwrap()`, `panic!`, `Instant::now()`, `HashMap`), string
//! and raw-string literals, char literals next to lifetimes, and a
//! `#[cfg(test)]` module are all exempt. The one real violation sits on
//! the last function, after the test module closes, to prove scanning
//! resumes there.

// A line comment naming x.unwrap() and SystemTime::now().
/* A block comment: panic!("no"), HashSet::new(), todo!() */
fn fixture_strings<'a>(s: &'a str) -> (&'a str, &'static str, &'static str, char) {
    let _ = "x.unwrap() and .expect( and Instant::now() and HashMap";
    (s, r#"panic! "quoted" unwrap()"#, "a line \
        continuation .expect(", '\'')
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    fn fixture_in_test(x: Option<u8>) -> u8 {
        let _t = std::time::Instant::now();
        let _m: HashMap<u8, u8> = HashMap::new();
        x.unwrap()
    }
}

fn fixture_after_tests(y: Option<u8>) -> u8 {
    y.unwrap()
}
