//! Pass 8 — f64 integer-exactness at `// analyze: exact` sites.
//!
//! PR 9's batched dispatch replaced `n` repetitions of
//! `busy_cycles += 1.0` with one `busy_cycles += n as f64`, and the
//! equivalence argument (DESIGN.md §16) rests on a number-theoretic
//! fact: every value that ever flows into the accumulator is an
//! *integer-valued* f64, and IEEE-754 addition of integer-valued
//! doubles is exact below 2^53 — so the closed form is bit-identical
//! to the loop. This pass turns that argument from prose into a CI
//! gate.
//!
//! The abstract domain over f64 expressions is the three-point lattice
//! `SmallInt ⊑ IntExact ⊑ Unknown`:
//!
//! * **SmallInt** — integer-valued and provably `< 2^53` (casts from
//!   `u32`-and-narrower, `f64::from(u32)`, small integer-valued
//!   literals, `.len()` of an in-memory collection);
//! * **IntExact** — integer-valued, magnitude unknown. Closed under
//!   `+`, `-`, `*` (every representable f64 ≥ 2^52 is an integer, so
//!   rounding an integer sum/product yields an integer) and under
//!   `min`/`max` (which return one operand). Arithmetic on two
//!   SmallInts is IntExact, not SmallInt: the sum may cross 2^53;
//! * **Unknown** — everything else: division, non-integer literals,
//!   unrecognized calls, untracked fields, `f64` parameters.
//!
//! A statement within reach of an `// analyze: exact` marker (same
//! ≤3-line binding as every other marker) is verified: an assignment
//! or compound assignment must have a non-Unknown right-hand side
//! (rule **`exact-rhs`**); a call must have non-Unknown value
//! arguments — `&`/`&mut` arguments are passed by reference, not
//! accumulated, and are skipped (rule **`exact-call`**). The marker
//! claims nothing the pass trusts: it only points the proof obligation
//! at a site. `// lint: allow(exact-rhs|exact-call) — reason` is the
//! escape hatch, counted like every suppression.
//!
//! Variable values come from the same forward dataflow as the
//! panic-freedom pass: parameters seed from declared types in the
//! signature, `let`/`=`/`+=` update the environment, and joins take
//! the pointwise lattice maximum.

use std::collections::BTreeMap;

use crate::lex::TokKind;

use crate::cfg::{Cfg, EdgeKind};
use crate::dataflow::{fixpoint, Analysis};
use crate::model::{FnItem, Section, SourceFile, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// Abstract value of a numeric expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Val {
    /// Integer-valued and `< 2^53` in magnitude.
    SmallInt,
    /// Integer-valued f64 (or any integer), magnitude unbounded.
    IntExact,
    /// Possibly fractional.
    Unknown,
}

impl Val {
    fn join(self, o: Val) -> Val {
        self.max(o)
    }

    /// `+`/`-`/`*` of two abstract values: integer-valued is closed,
    /// smallness is not.
    fn arith(self, o: Val) -> Val {
        if self == Val::Unknown || o == Val::Unknown {
            Val::Unknown
        } else {
            Val::IntExact
        }
    }
}

type Env = BTreeMap<String, Val>;

/// Result of the exactness pass.
pub struct ExactnessResult {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Suppressions consumed.
    pub suppressions: Vec<Suppression>,
    /// Marked statements verified.
    pub exact_sites: usize,
}

/// Runs the pass over every shipped fn in a file carrying
/// `// analyze: exact` markers.
pub fn run(ws: &Workspace) -> ExactnessResult {
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    let mut exact_sites = 0usize;
    for f in &ws.fns {
        let file = ws.file_of(f);
        if f.in_test
            || !matches!(file.section, Section::Src | Section::Bin)
            || file.exact_lines.is_empty()
        {
            continue;
        }
        let Some(body) = f.body else { continue };
        // Cheap pre-filter: some marker must bind into this body's
        // line range.
        if body.0 >= body.1 || body.1 > file.toks.len() {
            continue;
        }
        let lo = file.toks[body.0].line as usize;
        let hi = file.toks[body.1 - 1].line as usize;
        if !file.exact_lines.iter().any(|&m| m + 3 >= lo && m <= hi) {
            continue;
        }
        let cfg = Cfg::build(file, body);
        let analysis = ExactFlow { entry: seed_params(ws, f) };
        let states = fixpoint(&analysis, &cfg, file);
        for (b, blk) in cfg.blocks.iter().enumerate() {
            let Some(mut env) = states[b].clone() else { continue };
            for &r in &blk.stmts {
                let line = file.toks[r.0].line as usize;
                if file.exact_for(line) {
                    exact_sites += 1;
                    verify_stmt(&env, file, f, r, &mut findings, &mut suppressions);
                }
                transfer(&mut env, file, r);
            }
        }
    }
    ExactnessResult { findings, suppressions, exact_sites }
}

/// Seeds the environment from the fn signature's typed parameters.
fn seed_params(ws: &Workspace, f: &FnItem) -> Env {
    let file = ws.file_of(f);
    let (s, e) = f.sig;
    let e = e.min(file.toks.len());
    let mut env = Env::new();
    let mut i = s;
    while i + 1 < e {
        if file.toks[i].kind == TokKind::Ident && file.text(file.toks[i + 1]) == ":" {
            // Skip `&`, `mut`, lifetimes to the first type ident.
            let mut j = i + 2;
            while j < e {
                let t = file.text(file.toks[j]);
                if t == "&" || t == "mut" || t == "'" || file.toks[j].kind == TokKind::Lifetime {
                    j += 1;
                } else {
                    break;
                }
            }
            if j < e {
                if let Some(v) = type_val(file.text(file.toks[j])) {
                    env.insert(file.text(file.toks[i]).to_string(), v);
                }
            }
        }
        i += 1;
    }
    env
}

/// Abstract value implied by a declared integer/float type.
fn type_val(ty: &str) -> Option<Val> {
    match ty {
        "u8" | "u16" | "u32" | "i8" | "i16" | "i32" => Some(Val::SmallInt),
        "u64" | "i64" | "u128" | "i128" | "usize" | "isize" => Some(Val::IntExact),
        "f64" | "f32" => Some(Val::Unknown),
        _ => None,
    }
}

struct ExactFlow {
    entry: Env,
}

impl Analysis for ExactFlow {
    type State = Env;

    fn entry_state(&self) -> Env {
        self.entry.clone()
    }

    fn join(&self, into: &mut Env, other: &Env) {
        for (k, v) in other {
            into.entry(k.clone()).and_modify(|cur| *cur = cur.join(*v)).or_insert(*v);
        }
    }

    fn transfer_stmt(&self, st: &mut Env, file: &SourceFile, range: (usize, usize)) {
        transfer(st, file, range);
    }

    fn transfer_edge(&self, _: &mut Env, _: &SourceFile, _: Option<(usize, usize)>, _: EdgeKind) {}
}

fn txt(file: &SourceFile, i: usize) -> &str {
    file.text(file.toks[i])
}

fn matching(file: &SourceFile, i: usize, e: usize) -> usize {
    let (open, close) = match txt(file, i) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return i,
    };
    let mut depth = 0usize;
    let mut j = i;
    while j < e {
        let t = txt(file, j);
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    e.saturating_sub(1)
}

fn skip_group(file: &SourceFile, i: usize, e: usize) -> usize {
    match txt(file, i) {
        "(" | "[" | "{" => matching(file, i, e) + 1,
        _ => i + 1,
    }
}

fn adj(file: &SourceFile, i: usize) -> bool {
    i + 1 < file.toks.len() && file.toks[i].end == file.toks[i + 1].start
}

/// Locates the assignment operator in a statement range: returns
/// `(lhs_end, rhs_start, compound_op)` for `=`, `+=`, `-=`, `*=`,
/// `/=`, `%=`; `None` otherwise.
fn find_assign(file: &SourceFile, s: usize, e: usize) -> Option<(usize, usize, Option<&str>)> {
    let mut i = s;
    while i < e {
        let t = txt(file, i);
        if t == "=" {
            // Exclude `==`, `=>`, `<=`, `>=`, `!=`.
            let next_merges = adj(file, i) && i + 1 < e && matches!(txt(file, i + 1), "=" | ">");
            let prev = i.checked_sub(1).map(|p| txt(file, p)).unwrap_or("");
            let prev_adj = i >= 1 && adj(file, i - 1);
            if next_merges || (prev_adj && matches!(prev, "=" | "<" | ">" | "!")) {
                i += 1;
                continue;
            }
            if prev_adj && matches!(prev, "+" | "-" | "*" | "/" | "%") {
                return Some((i - 1, i + 1, Some(prev)));
            }
            return Some((i, i + 1, None));
        }
        // `let` statements assign too; keep scanning.
        i = skip_group(file, i, e);
    }
    None
}

/// Applies one statement to the environment.
fn transfer(env: &mut Env, file: &SourceFile, (s, e): (usize, usize)) {
    let e = e.min(file.toks.len());
    if s >= e {
        return;
    }
    // `for IDENT in a..b` binds an integer.
    if txt(file, s) == "for" && s + 2 < e && file.toks[s + 1].kind == TokKind::Ident && txt(file, s + 2) == "in" {
        // Only plain numeric ranges prove integrality.
        let mut has_range = false;
        let mut i = s + 3;
        while i < e {
            if txt(file, i) == "." && adj(file, i) && i + 1 < e && txt(file, i + 1) == "." {
                has_range = true;
                break;
            }
            i = skip_group(file, i, e);
        }
        let name = txt(file, s + 1).to_string();
        env.insert(name, if has_range { Val::IntExact } else { Val::Unknown });
        return;
    }
    let mut s = s;
    let is_let = txt(file, s) == "let";
    if is_let {
        s += 1;
        if s < e && txt(file, s) == "mut" {
            s += 1;
        }
    }
    let Some((lhs_end, rhs_start, compound)) = find_assign(file, s, e) else { return };
    // LHS must be a bare ident to track; dotted paths (fields) stay
    // untracked — reads of them are Unknown anyway.
    if lhs_end == s + 1 || (is_let && lhs_end > s) || lhs_end >= 1 {
        // Identify the assigned name: the token just before the op
        // must be an ident and the one before that must not be `.`.
        let t = lhs_end.checked_sub(1);
        let Some(ti) = t else { return };
        if file.toks[ti].kind != TokKind::Ident {
            return;
        }
        if ti >= 1 && txt(file, ti - 1) == "." {
            return; // field path: untracked
        }
        // A `let x: f64 = ..` annotation wins over RHS inference only
        // for integer types (the declared type proves integrality).
        let name = txt(file, ti).to_string();
        let mut re = rhs_start;
        let mut rhs_end = rhs_start;
        while re < e && txt(file, re) != ";" {
            re = skip_group(file, re, e);
            rhs_end = re;
        }
        let rhs = eval(env, file, rhs_start, rhs_end.min(e));
        let val = match compound {
            Some("/") | Some("%") => Val::Unknown,
            Some(_) => env.get(&name).copied().unwrap_or(Val::Unknown).arith(rhs),
            None => {
                // Declared integer type annotation on a let binding.
                let ann = (is_let && ti + 1 < e && txt(file, ti + 1) == ":")
                    .then(|| type_val(txt(file, ti + 2)))
                    .flatten();
                ann.unwrap_or(rhs)
            }
        };
        env.insert(name, val);
    }
}

/// Evaluates an expression token range to an abstract value.
fn eval(env: &Env, file: &SourceFile, s: usize, e: usize) -> Val {
    let e = e.min(file.toks.len());
    if s >= e {
        return Val::Unknown;
    }
    // Split at top-level `+`/`-`/`*`/`/`/`%` (left-assoc; all the same
    // for exactness — except division, which demotes).
    let mut i = s;
    let mut last_op: Option<(&str, usize)> = None;
    while i < e {
        let t = txt(file, i);
        if matches!(t, "+" | "-" | "*" | "/" | "%") {
            // Unary minus at the start or after another operator is
            // not a split point; `->`, `*=`-style pairs can't appear
            // inside an expression operand here.
            let prevs = i.checked_sub(1).map(|p| txt(file, p));
            let unary = i == s
                || matches!(prevs, Some("+" | "-" | "*" | "/" | "%" | "(" | "[" | "," | "=" | "<" | ">"));
            let arrow = t == "-" && adj(file, i) && i + 1 < e && txt(file, i + 1) == ">";
            if !(unary || arrow) {
                last_op = Some((t, i));
            }
        }
        i = skip_group(file, i, e);
    }
    if let Some((op, oi)) = last_op {
        let l = eval(env, file, s, oi);
        let r = eval(env, file, oi + 1, e);
        return match op {
            "/" | "%" => Val::Unknown,
            _ => l.arith(r),
        };
    }
    // `EXPR as TYPE` cast.
    let mut i = s;
    while i < e {
        if file.toks[i].kind == TokKind::Ident && txt(file, i) == "as" && i + 1 < e {
            let inner = eval(env, file, s, i);
            let ty = txt(file, i + 1);
            return match ty {
                // Casting *to* an integer type truncates: integral.
                "u8" | "u16" | "u32" | "i8" | "i16" | "i32" => Val::SmallInt,
                "u64" | "i64" | "u128" | "i128" | "usize" | "isize" => Val::IntExact,
                // `x as f64` preserves the value's integrality class
                // (u64→f64 rounds to a representable f64, which at
                // that magnitude is still an integer).
                "f64" | "f32" => inner,
                _ => Val::Unknown,
            };
        }
        i = skip_group(file, i, e);
    }
    primary(env, file, s, e)
}

/// A primary expression: literal, path, call chain, parenthesized.
fn primary(env: &Env, file: &SourceFile, s: usize, e: usize) -> Val {
    // Unary minus preserves the class.
    if txt(file, s) == "-" {
        return primary(env, file, s + 1, e);
    }
    // Full paren wrapper.
    if txt(file, s) == "(" && matching(file, s, e) == e - 1 {
        return eval(env, file, s + 1, e - 1);
    }
    // Method-call tail: `RECV.len()`, `RECV.min(X)`, `RECV.max(X)`,
    // `RECV.count()`.
    if e >= 3 && txt(file, e - 1) == ")" {
        let open = {
            // find the `(` matching the final `)`
            let mut depth = 0usize;
            let mut j = e;
            let mut found = None;
            while j > s {
                j -= 1;
                match txt(file, j) {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            found = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            found
        };
        if let Some(open) = open {
            if open >= 2 && file.toks[open - 1].kind == TokKind::Ident && txt(file, open - 2) == "." {
                let m = txt(file, open - 1);
                match m {
                    "len" | "count" => return Val::SmallInt,
                    "min" | "max" => {
                        let recv = primary(env, file, s, open - 2);
                        let arg = eval(env, file, open + 1, e - 1);
                        return recv.join(arg);
                    }
                    _ => return Val::Unknown,
                }
            }
            // `f64::from(X)`: the argument type is u32-or-narrower by
            // the std impl set, so the result is SmallInt.
            if open >= 3
                && txt(file, open - 1) == "from"
                && txt(file, open - 2) == ":"
                && open >= 4
                && txt(file, open - 4) == "f64"
            {
                return Val::SmallInt;
            }
            return Val::Unknown;
        }
    }
    // Single token.
    if e - s == 1 {
        let tok = file.toks[s];
        let t = txt(file, s);
        match tok.kind {
            TokKind::Num => return literal_val(t),
            TokKind::Ident => return env.get(t).copied().unwrap_or(Val::Unknown),
            _ => return Val::Unknown,
        }
    }
    Val::Unknown
}

/// True when an argument expression is visibly numeric: a literal, a
/// cast, arithmetic, or an ident the environment tracks. Untracked
/// idents (structs, reborrowed `&mut` receivers passed bare) carry no
/// f64 value the marker could be claiming exact, so `exact-call` skips
/// them rather than flagging everything the type system would reject
/// anyway.
fn looks_numeric(env: &Env, file: &SourceFile, s: usize, e: usize) -> bool {
    let e = e.min(file.toks.len());
    for i in s..e {
        let tok = file.toks[i];
        let t = file.text(tok);
        match tok.kind {
            TokKind::Num => return true,
            TokKind::Ident if t == "as" || env.contains_key(t) => return true,
            _ if matches!(t, "+" | "-" | "*" | "/" | "%") => return true,
            _ => {}
        }
    }
    false
}

/// Classifies a numeric literal.
fn literal_val(text: &str) -> Val {
    let clean = text.replace('_', "");
    let clean = clean
        .strip_suffix("f64")
        .or_else(|| clean.strip_suffix("f32"))
        .unwrap_or(&clean);
    let clean = ["usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8"]
        .iter()
        .find_map(|s| clean.strip_suffix(s))
        .unwrap_or(clean);
    if clean.starts_with("0x") || clean.starts_with("0b") || clean.starts_with("0o") {
        return Val::IntExact;
    }
    match clean.parse::<f64>() {
        Ok(v) if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 => Val::SmallInt,
        Ok(v) if v.fract() == 0.0 => Val::IntExact,
        _ => Val::Unknown,
    }
}

/// Verifies one marked statement.
fn verify_stmt(
    env: &Env,
    file: &SourceFile,
    f: &FnItem,
    (s, e): (usize, usize),
    findings: &mut Vec<Finding>,
    suppressions: &mut Vec<Suppression>,
) {
    let e = e.min(file.toks.len());
    if s >= e {
        return;
    }
    let line = file.toks[s].line as usize;
    let mut emit = |rule: &str, msg: String| {
        if let Some(reason) = file.allow_for(rule, line) {
            suppressions.push(Suppression {
                rule: rule.to_string(),
                file: file.rel.clone(),
                line,
                reason: reason.to_string(),
            });
        } else {
            findings.push(Finding {
                pass: Pass::Exactness,
                rule: rule.to_string(),
                file: file.rel.clone(),
                line,
                message: msg,
                excerpt: file.line_text(line).to_string(),
                chain: vec![f.display_name()],
            });
        }
    };
    // Assignment (plain or compound): the RHS must be integer-valued.
    let scan_s = if txt(file, s) == "let" { s + 1 } else { s };
    if let Some((_, rhs_start, compound)) = find_assign(file, scan_s, e) {
        let mut rhs_end = rhs_start;
        let mut i = rhs_start;
        while i < e && txt(file, i) != ";" {
            i = skip_group(file, i, e);
            rhs_end = i;
        }
        let v = match compound {
            Some("/") | Some("%") => Val::Unknown,
            _ => eval(env, file, rhs_start, rhs_end.min(e)),
        };
        if v == Val::Unknown {
            emit(
                "exact-rhs",
                "marked exact, but the right-hand side is not provably integer-valued".into(),
            );
        }
        return;
    }
    // Call: every by-value argument must be integer-valued.
    let mut i = s;
    while i < e && txt(file, i) != "(" {
        i += 1;
    }
    if i >= e {
        return; // neither assignment nor call: the marker is inert
    }
    let close = matching(file, i, e);
    let mut a = i + 1;
    while a < close {
        let arg_s = a;
        let mut a2 = a;
        while a2 < close && txt(file, a2) != "," {
            a2 = skip_group(file, a2, close);
        }
        if txt(file, arg_s) != "&" {
            let v = eval(env, file, arg_s, a2);
            if v == Val::Unknown && looks_numeric(env, file, arg_s, a2) {
                emit(
                    "exact-call",
                    format!(
                        "marked exact, but argument `{}` is not provably integer-valued",
                        (arg_s..a2).map(|j| txt(file, j)).collect::<Vec<_>>().join(" ")
                    ),
                );
            }
        }
        a = a2 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;

    fn run_on(lib: &str) -> ExactnessResult {
        let mut ws = Workspace { crates: vec!["proc".into()], ..Workspace::default() };
        ws.add_file("crates/proc/src/lib.rs".into(), "proc".into(), Section::Src, lib.into());
        run(&ws)
    }

    #[test]
    fn integer_increments_verify_and_fractions_fire() {
        let r = run_on(
            "pub struct B { pub c: f64 }\n\
             pub fn good(b: &mut B, n: usize) {\n\
                 // analyze: exact\n\
                 b.c += n as f64;\n\
             }\n\
             pub fn also_good(b: &mut B) {\n\
                 // analyze: exact\n\
                 b.c += 1.0;\n\
             }\n\
             pub fn bad(b: &mut B, x: f64) {\n\
                 // analyze: exact\n\
                 b.c += x * 0.5;\n\
             }\n",
        );
        assert_eq!(r.exact_sites, 3);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "exact-rhs");
        assert_eq!(r.findings[0].chain, ["bad"]);
    }

    #[test]
    fn division_demotes_even_on_integers() {
        let r = run_on(
            "pub fn f(acc: &mut f64, n: u64) {\n\
                 // analyze: exact\n\
                 *acc += (n / 2) as f64;\n\
             }\n",
        );
        // `n / 2` is still an integer — but `(n/2) as f64` evaluates
        // through the cast rule, which preserves the *inner* class:
        // division demotes to Unknown first. The contract is that the
        // pass proves what it can see; integer division is deliberately
        // conservative (DESIGN.md §17) — escape with an allow.
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn locals_flow_through_the_dataflow() {
        let r = run_on(
            "pub fn f(acc: &mut f64, v: &[u64], w: u32) {\n\
                 let n = v.len();\n\
                 let k = n.min(64);\n\
                 let small = f64::from(w);\n\
                 // analyze: exact\n\
                 *acc += k as f64 + small;\n\
             }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.exact_sites, 1);
    }

    #[test]
    fn join_demotes_when_one_path_is_fractional() {
        let r = run_on(
            "pub fn f(acc: &mut f64, c: bool, x: f64) {\n\
                 let mut d = 1.0;\n\
                 if c { d = x; }\n\
                 // analyze: exact\n\
                 *acc += d;\n\
             }\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let ok = run_on(
            "pub fn f(acc: &mut f64, c: bool) {\n\
                 let mut d = 1.0;\n\
                 if c { d = 2.0; }\n\
                 // analyze: exact\n\
                 *acc += d;\n\
             }\n",
        );
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn marked_calls_check_value_arguments() {
        let r = run_on(
            "pub struct B { pub c: f64 }\n\
             pub fn retire(n: usize, b: &mut B) { b.c += n as f64; }\n\
             pub fn good(b: &mut B, k: usize) {\n\
                 // analyze: exact\n\
                 retire(k, b);\n\
             }\n\
             pub fn bad(b: &mut B, x: f64) {\n\
                 // analyze: exact\n\
                 retire(x as usize, b);\n\
                 // analyze: exact\n\
                 unrelated(x);\n\
             }\n\
             pub fn unrelated(_x: f64) {}\n",
        );
        // `x as usize` truncates → integral → fine; `unrelated(x)`
        // passes a raw f64 by value → finding.
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "exact-call");
    }

    #[test]
    fn allows_suppress_with_reason() {
        let r = run_on(
            "pub fn f(acc: &mut f64, x: f64) {\n\
                 // analyze: exact\n\
                 // lint: allow(exact-rhs) — calibration constant is integral by table construction\n\
                 *acc += x;\n\
             }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressions.len(), 1);
        assert_eq!(r.suppressions[0].rule, "exact-rhs");
    }

    #[test]
    fn loop_counters_are_integral() {
        let r = run_on(
            "pub fn f(acc: &mut f64, n: usize) {\n\
                 for i in 0..n {\n\
                     // analyze: exact\n\
                     *acc += i as f64;\n\
                 }\n\
             }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
