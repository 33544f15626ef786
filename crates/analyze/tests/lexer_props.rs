//! Property tests for the lexer every analysis pass stands on.
//!
//! The lexer is the root of trust for `csim-analyze`: if it panics,
//! the gate goes down; if it drops bytes, offsets and line numbers lie.
//! Two properties, each checked two ways:
//!
//! * **Total** — `lex` and `markers` never panic, on thousands of
//!   adversarial byte strings drawn from the workspace's deterministic
//!   [`SimRng`] (no external fuzzing crates).
//! * **Lossless** — token texts tile the input exactly, with gapless
//!   offsets and line numbers that count the newlines before each
//!   token — on the same random inputs *and* on every real `.rs` file
//!   in the workspace.

use std::fs;
use std::path::{Path, PathBuf};

use csim_analyze::lex::{lex, markers};
use csim_trace::SimRng;

/// Characters the generator favors: the lexer's tricky alphabet —
/// delimiters, escapes, raw-string fences, multi-byte unicode.
const SPICE: &[char] = &[
    '"', '\'', '\\', '/', '*', '#', 'r', 'b', '\n', '{', '}', '(', ')', '!', '—', 'é', '→', '0',
    '.', '_', 'x',
];

fn random_source(rng: &mut SimRng, len: usize) -> String {
    let mut s = String::with_capacity(len);
    for _ in 0..len {
        if rng.gen_bool(0.6) {
            s.push(SPICE[rng.gen_range_usize(0..SPICE.len())]);
        } else {
            // Any printable ASCII, occasionally a control byte.
            let c = rng.gen_range(0x09..0x7f) as u8 as char;
            s.push(c);
        }
    }
    s
}

fn check_invariants(src: &str) {
    let toks = lex(src);
    // Losslessness: token slices tile the input exactly.
    let rebuilt: String = toks.iter().map(|t| t.text).collect();
    assert_eq!(rebuilt, src, "lex must tile the input");
    // Offsets agree with the tiling, and each token's line counts the
    // newlines before it.
    let mut at = 0usize;
    let mut line = 1usize;
    for t in &toks {
        assert_eq!(t.start, at, "token offsets must be gapless");
        assert_eq!(t.line, line, "token line must count the newlines before it");
        at += t.text.len();
        line += t.text.bytes().filter(|&b| b == b'\n').count();
    }
    // markers() is total (it returns; content is input-dependent).
    let _ = markers(src);
}

#[test]
fn lexer_survives_adversarial_bytes() {
    let mut rng = SimRng::seed_from_u64(0x1e8);
    for case in 0..4000 {
        let len = rng.gen_range_usize(0..160);
        let src = random_source(&mut rng, len);
        // A panic here prints the offending input via the test harness.
        check_invariants(&src);
        let _ = case;
    }
}

#[test]
fn lexer_survives_truncation_of_real_constructs() {
    // Unterminated strings, raw strings, block comments, char literals:
    // every prefix of a construct-heavy source must lex without panic
    // and still tile.
    let base = r####"/* nested /* block */ */ const S: &str = "esc \" \\ \n"; let r = r#"raw " end"#; let c = 'é'; // line — comment
fn f<'a>(x: &'a str) -> u64 { x.len() as u64 } let b = b"bytes"; let n = 1.5e-3f64;"####;
    for cut in 0..base.len() {
        if base.is_char_boundary(cut) {
            check_invariants(&base[..cut]);
        }
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        if p.is_dir() {
            if name != "target" && name != ".git" {
                walk(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn every_workspace_source_round_trips() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    walk(&root.join("tests"), &mut files);
    walk(&root.join("examples"), &mut files);
    assert!(files.len() > 100, "workspace walk found only {} files", files.len());
    for f in files {
        let src = fs::read_to_string(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        check_invariants(&src);
    }
}
