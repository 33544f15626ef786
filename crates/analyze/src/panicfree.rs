//! Pass 2 — interprocedural panic-freedom over the CFG/dataflow engine.
//!
//! The crash-safe sweep engine (DESIGN.md §13) isolates worker panics
//! at one boundary, and the paper's methodology stands on cycle
//! accounting that never aborts mid-run — so shipped code reachable
//! from the simulator entry point (`main` in `src/bin/csim.rs`) must
//! not reach a partial operation at all. Panicking calls (`.unwrap()`,
//! `panic!`, ...) are clippy's, banned in every shipped file outside the
//! bench harness (a superset of this cone) by `cargo lint-shipped`; this
//! pass proves the two properties only a dataflow can:
//!
//! * **`unchecked-index`** — `v[i]`, `v[0]`, and range slices whose
//!   bound the forward dataflow cannot prove in range;
//! * **`underflow-sub`** — `.len() - k` where emptiness has not been
//!   ruled out on every path.
//!
//! A site is discharged by a *dominating check the dataflow can see*
//! (`if i < v.len()`, `for i in 0..v.len()`, `.enumerate()` indices,
//! `!v.is_empty()` with early return, `assert!`, `.min(K)` against a
//! `[T; K]` buffer), or by an explicit contract: a site-level
//! `// analyze: total — reason` within three lines, or a function-level
//! `// analyze: total — reason` above the `fn`. Every discharge by
//! contract is counted as a suppression in the report.
//!
//! Facts are must-facts: joined by intersection at CFG merges, killed
//! on assignment, `&mut` escape, or a length-changing method call.
//! Scope is the simulator's runtime crates — the analyzer, checker,
//! and bench tooling are excluded (they share function *names* with
//! runtime code under the over-approximate call graph; DESIGN.md §17).

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::TokKind;

use crate::cfg::{Cfg, EdgeKind};
use crate::dataflow::{fixpoint, Analysis};
use crate::graph::CallGraph;
use crate::model::{FnItem, Section, SourceFile, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// Crates whose code runs inside a simulation process. Names that the
/// over-approximate call graph resolves into tooling crates
/// (`analyze`, `check`, `bench`) are out of scope by policy.
const SIM_CRATES: &[&str] = &[
    "(root)", "cache", "coherence", "config", "core", "fault", "noc", "obs", "proc", "prof",
    "stats", "sweep", "trace", "workload",
];

/// Assertion macros: fact generators, not findings.
const ASSERT_MACROS: &[&str] = &["assert", "debug_assert", "assert_eq", "assert_ne", "debug_assert_eq", "debug_assert_ne"];
/// Methods that change a container's length (kill its facts).
const LEN_MUTATORS: &[&str] = &[
    "push", "pop", "clear", "truncate", "remove", "swap_remove", "insert", "drain", "resize",
    "retain", "extend", "extend_from_slice", "append", "split_off", "dedup",
];

/// Result of the panic-freedom pass.
pub struct PanicFreeResult {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Contract discharges consumed.
    pub suppressions: Vec<Suppression>,
    /// `(file, marker line)` of every `analyze: total` contract that
    /// discharged a site: the escape pass reports the others.
    pub totals_used: BTreeSet<(String, usize)>,
    /// Shipped fns scanned (reachable from the entry points, in scope).
    pub reachable_fns: usize,
}

/// Runs the pass.
pub fn run(ws: &Workspace, graph: &CallGraph) -> PanicFreeResult {
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .filter(|f| {
            f.name == "main"
                && !f.in_test
                && ws.files[f.file].section == Section::Bin
                && ws.files[f.file].rel.ends_with("src/bin/csim.rs")
        })
        .map(|f| f.id)
        .collect();
    let pred = graph.reach_forward(&roots);
    let field_maps = collect_field_arrays(ws);
    let no_fields = FieldLens::new();

    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    let mut totals_used = BTreeSet::new();
    let mut reachable_fns = 0usize;
    for &fid in pred.keys() {
        let f = &ws.fns[fid];
        let file = ws.file_of(f);
        if f.in_test
            || !matches!(file.section, Section::Src | Section::Bin)
            || !SIM_CRATES.contains(&f.crate_name.as_str())
        {
            continue;
        }
        reachable_fns += 1;
        let Some(body) = f.body else { continue };
        let chain = CallGraph::chain(ws, &pred, fid);
        let fields = field_maps.get(&f.crate_name).unwrap_or(&no_fields);
        let cfg = Cfg::build(file, body);
        let states = fixpoint(&Bounds { fields }, &cfg, file);
        for (b, blk) in cfg.blocks.iter().enumerate() {
            let Some(st) = states[b].clone() else { continue };
            let mut st = st;
            for &r in &blk.stmts {
                scan_stmt(&mut st, file, r, fields, &mut |rule, line, msg| {
                    let (fs, ss, ts) = (&mut findings, &mut suppressions, &mut totals_used);
                    emit(file, f, &chain, rule, line, msg, fs, ss, ts);
                });
            }
        }
    }
    PanicFreeResult { findings, suppressions, totals_used, reachable_fns }
}

/// Routes one undischarged site to a finding or a contract suppression,
/// recording the `analyze: total` marker that discharged it, if any.
#[expect(clippy::too_many_arguments, reason = "the site, its context and the three outputs it routes to")]
fn emit(
    file: &SourceFile,
    f: &FnItem,
    chain: &[String],
    rule: &str,
    line: usize,
    msg: String,
    findings: &mut Vec<Finding>,
    suppressions: &mut Vec<Suppression>,
    totals_used: &mut BTreeSet<(String, usize)>,
) {
    if let Some((marker, reason)) = file.total_for(line).or(f.total.as_ref()) {
        totals_used.insert((file.rel.clone(), *marker));
        suppressions.push(Suppression {
            rule: rule.to_string(),
            file: file.rel.clone(),
            line,
            reason: reason.to_string(),
        });
    } else {
        findings.push(Finding {
            pass: Pass::PanicFree,
            rule: rule.to_string(),
            file: file.rel.clone(),
            line,
            message: msg,
            excerpt: file.line_text(line).to_string(),
            chain: chain.to_vec(),
        });
    }
}

// ---------------------------------------------------------------------
// Fact language (must-facts, string-encoded, `:`-separated segments)
// ---------------------------------------------------------------------
//   lt:I:P        ident I < P.len()
//   le_len:I:P    ident I <= P.len()
//   len_gt:P:K    P.len() > K            (K a decimal literal)
//   eqlen:I:P     ident I == P.len()  (lets `i < n` rewrite to lt:i:P)
//   ltc:I:K       ident I < K         (K literal or const ident)
//   lec:I:K       ident I <= K
//   arraylen:P:K  P is a local `[T; K]` array

type Facts = BTreeSet<String>;

/// Declared `[T; K]` struct-field lengths, per crate: field name → K.
/// `self.s[1]` with `s: [u64; 4]` is in bounds by the field's type, the
/// same way a local's `arraylen` fact works. Keyed by bare field name —
/// two same-named fields in one crate keep the smaller length (sound),
/// and a same-named non-array field is a documented name-collision
/// over-approximation of the token-level model.
type FieldLens = BTreeMap<String, u64>;

/// Scans declaration sites (`name : [ty; K]`) across a crate's shipped
/// files. Locals and params with array annotations match too, which is
/// harmless: they mean the same thing.
fn collect_field_arrays(ws: &Workspace) -> BTreeMap<String, FieldLens> {
    let mut out: BTreeMap<String, FieldLens> = BTreeMap::new();
    for file in &ws.files {
        if !matches!(file.section, Section::Src | Section::Bin) {
            continue;
        }
        let map = out.entry(file.crate_name.clone()).or_default();
        let toks = &file.toks;
        for i in 0..toks.len().saturating_sub(3) {
            if toks[i].kind != TokKind::Ident
                || file.text(toks[i + 1]) != ":"
                || file.text(toks[i + 2]) != "["
            {
                continue;
            }
            let close = matching(file, i + 2, toks.len());
            if close < i + 5 || close >= toks.len() {
                continue;
            }
            if file.text(toks[close - 2]) != ";" || toks[close - 1].kind != TokKind::Num {
                continue;
            }
            let Some(k) = parse_const(file.text(toks[close - 1])) else { continue };
            let name = file.text(toks[i]).to_string();
            map.entry(name).and_modify(|v| *v = (*v).min(k)).or_insert(k);
        }
    }
    out
}

struct Bounds<'a> {
    fields: &'a FieldLens,
}

impl Analysis for Bounds<'_> {
    type State = Facts;

    fn entry_state(&self) -> Facts {
        Facts::new()
    }

    fn join(&self, into: &mut Facts, other: &Facts) {
        into.retain(|k| other.contains(k));
    }

    fn transfer_stmt(&self, st: &mut Facts, file: &SourceFile, range: (usize, usize)) {
        scan_stmt(st, file, range, self.fields, &mut |_, _, _| {});
    }

    fn transfer_edge(
        &self,
        st: &mut Facts,
        file: &SourceFile,
        cond: Option<(usize, usize)>,
        kind: EdgeKind,
    ) {
        let Some((s, e)) = cond else { return };
        if s >= e || e > file.toks.len() {
            return;
        }
        let head = file.text(file.toks[s]);
        match (head, kind) {
            ("if" | "while", EdgeKind::BranchTrue) => cond_facts(st, file, s + 1, e, true),
            ("if" | "while", EdgeKind::BranchFalse) => cond_facts(st, file, s + 1, e, false),
            ("for", EdgeKind::BranchTrue) => for_facts(st, file, s + 1, e),
            _ => {}
        }
    }
}

/// Token text helper.
fn txt(file: &SourceFile, i: usize) -> &str {
    file.text(file.toks[i])
}

/// True when tokens `i` and `i+1` are adjacent (no gap) — multi-char
/// operators arrive as single-char puncts.
fn adj(file: &SourceFile, i: usize) -> bool {
    i + 1 < file.toks.len() && file.toks[i].end == file.toks[i + 1].start
}

/// Matching close for the opener at `i`, bounded by `e`.
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

/// One depth-0 step (whole group or one token).
fn skip_group(file: &SourceFile, i: usize, e: usize) -> usize {
    match txt(file, i) {
        "(" | "[" | "{" => matching(file, i, e) + 1,
        _ => i + 1,
    }
}

/// Walks the `.`-joined path ending at token `last` (inclusive);
/// returns the normalized path and its start index, or `None` when the
/// receiver is not a simple path (call results, nested indexing).
fn path_back(file: &SourceFile, last: usize) -> Option<(String, usize)> {
    let mut i = last;
    // Length-preserving view calls are transparent: `s.as_bytes()[k]` is
    // in bounds exactly when `s[k]` would be, so facts about `s` carry
    // through the view. Only methods whose output length equals the
    // receiver's length belong in this list.
    while i >= 4
        && txt(file, i) == ")"
        && txt(file, i - 1) == "("
        && matches!(txt(file, i - 2), "as_bytes" | "as_slice" | "as_mut_slice" | "as_str")
        && txt(file, i - 3) == "."
    {
        i -= 4;
    }
    let last = i;
    if file.toks[i].kind != TokKind::Ident {
        return None;
    }
    loop {
        if i >= 2 && txt(file, i - 1) == "." && file.toks[i - 2].kind == TokKind::Ident {
            // keep extending unless the segment before is itself a call
            // or index result (`foo().x`, `v[0].x`).
            i -= 2;
        } else {
            break;
        }
    }
    let mut s = String::new();
    for j in i..=last {
        s.push_str(txt(file, j));
    }
    Some((s, i))
}

/// Kills every fact that mentions `name` as a segment (or a dotted path
/// rooted at it). `rebind` kills (`let`, `=`) take everything;
/// borrow/mutator kills spare `arraylen` facts — a `[T; N]` local's
/// length is a type property no callee can change.
fn kill(st: &mut Facts, name: &str, rebind: bool) {
    st.retain(|fact| {
        if !rebind && fact.starts_with("arraylen:") {
            return true;
        }
        !fact.split(':').skip(1).any(|seg| {
            seg == name
                || seg.strip_prefix(name).is_some_and(|r| r.starts_with('.'))
                || name.strip_prefix(seg).is_some_and(|r| r.starts_with('.'))
        })
    });
}

/// Parses a decimal literal (underscores and integer suffixes allowed).
fn parse_const(text: &str) -> Option<u64> {
    let digits: String = text.chars().take_while(|c| c.is_ascii_digit() || *c == '_').collect();
    if digits.is_empty() {
        return None;
    }
    digits.replace('_', "").parse().ok()
}

/// True when the fact set proves `P.len() > k`.
fn proves_len_gt(st: &Facts, path: &str, k: u64) -> bool {
    let pref = format!("len_gt:{path}:");
    if st.iter().any(|f| {
        f.strip_prefix(&pref).and_then(parse_const).is_some_and(|j| j >= k)
    }) {
        return true;
    }
    // A `[T; N]` local with numeric N > k is length-proved by its type.
    let apref = format!("arraylen:{path}:");
    st.iter().any(|f| f.strip_prefix(&apref).and_then(parse_const).is_some_and(|n| n > k))
}

/// True when the fact set proves ident `i` is a valid index into `P`.
fn proves_lt(st: &Facts, idx: &str, path: &str) -> bool {
    if st.contains(&format!("lt:{idx}:{path}")) {
        return true;
    }
    // i < K (or i <= K-1) against a `[T; N]` array: safe when K and N
    // are the same constant name, or both numeric with K <= N (strict
    // for lec).
    let apref = format!("arraylen:{path}:");
    for af in st.iter().filter(|f| f.starts_with(&apref)) {
        let n = &af[apref.len()..];
        let ltp = format!("ltc:{idx}:");
        let lep = format!("lec:{idx}:");
        for f in st.iter() {
            if let Some(k) = f.strip_prefix(&ltp) {
                if k == n {
                    return true;
                }
                if let (Some(kv), Some(nv)) = (parse_const(k), parse_const(n)) {
                    if kv <= nv {
                        return true;
                    }
                }
            }
            if let Some(k) = f.strip_prefix(&lep) {
                if let (Some(kv), Some(nv)) = (parse_const(k), parse_const(n)) {
                    if kv < nv {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// True when the fact set proves ident `idx` < the numeric bound `n`.
fn proves_lt_const(st: &Facts, idx: &str, n: u64) -> bool {
    let ltp = format!("ltc:{idx}:");
    let lep = format!("lec:{idx}:");
    st.iter().any(|f| {
        f.strip_prefix(&ltp).and_then(parse_const).is_some_and(|k| k <= n)
            || f.strip_prefix(&lep).and_then(parse_const).is_some_and(|k| k < n)
    })
}

/// True when the fact set proves ident `b` <= the numeric bound `n`
/// (valid slice end against a `[T; n]` field).
fn proves_le_const(st: &Facts, b: &str, n: u64) -> bool {
    let ltp = format!("ltc:{b}:");
    let lep = format!("lec:{b}:");
    st.iter().any(|f| {
        f.strip_prefix(&ltp).and_then(parse_const).is_some_and(|k| k <= n + 1)
            || f.strip_prefix(&lep).and_then(parse_const).is_some_and(|k| k <= n)
    })
}

/// True when the fact set proves ident `b` is a valid *slice bound*
/// (`b <= P.len()`).
fn proves_le_len(st: &Facts, bound: &str, path: &str) -> bool {
    if st.contains(&format!("le_len:{bound}:{path}"))
        || st.contains(&format!("lt:{bound}:{path}"))
        || st.contains(&format!("eqlen:{bound}:{path}"))
    {
        return true;
    }
    // b <= K against a `[T; N]` array with K == N (or numeric K <= N).
    let apref = format!("arraylen:{path}:");
    for af in st.iter().filter(|f| f.starts_with(&apref)) {
        let n = &af[apref.len()..];
        for p in [format!("lec:{bound}:"), format!("ltc:{bound}:")] {
            for f in st.iter() {
                if let Some(k) = f.strip_prefix(&p) {
                    if k == n {
                        return true;
                    }
                    if let (Some(kv), Some(nv)) = (parse_const(k), parse_const(n)) {
                        if kv <= nv {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Condition → facts
// ---------------------------------------------------------------------

/// Facts from an `if`/`while` condition along the true (`pos`) or
/// false edge. Conjunctions split on the true edge, disjunctions on
/// the false edge (De Morgan); mixed shapes contribute nothing.
fn cond_facts(st: &mut Facts, file: &SourceFile, s: usize, e: usize, pos: bool) {
    let mut new: Vec<String> = Vec::new();
    cond_facts_into(&mut new, st, file, s, e, pos);
    st.extend(new);
}

/// [`cond_facts`], but collecting the derived facts into `out` instead
/// of inserting them — for callers that need scoped insertion (the
/// if-expression overlay in [`scan_stmt`]).
fn cond_facts_into(
    out: &mut Vec<String>,
    st: &Facts,
    file: &SourceFile,
    s: usize,
    e: usize,
    pos: bool,
) {
    let sep: &[&str] = if pos { &["&", "&"] } else { &["|", "|"] };
    let other: &[&str] = if pos { &["|", "|"] } else { &["&", "&"] };
    // Bail out when the other connective appears at depth 0.
    let mut i = s;
    while i < e {
        if txt(file, i) == other[0] && adj(file, i) && i + 1 < e && txt(file, i + 1) == other[1] {
            return;
        }
        i = skip_group(file, i, e);
    }
    let mut start = s;
    let mut i = s;
    while i <= e {
        let is_sep = i + 1 < e
            && txt(file, i) == sep[0]
            && adj(file, i)
            && txt(file, i + 1) == sep[1];
        if i == e || is_sep {
            conjunct_facts(out, st, file, start, i, pos);
            if i == e {
                break;
            }
            i += 2;
            start = i;
        } else {
            i = skip_group(file, i, e);
        }
    }
}

/// Facts from one comparison / predicate conjunct.
fn conjunct_facts(
    out: &mut Vec<String>,
    st: &Facts,
    file: &SourceFile,
    mut s: usize,
    mut e: usize,
    pos: bool,
) {
    // Strip a full-width paren wrapper and leading negation.
    while s < e && txt(file, s) == "(" && matching(file, s, e) == e - 1 {
        s += 1;
        e -= 1;
    }
    if s < e && txt(file, s) == "!" {
        return conjunct_facts(out, st, file, s + 1, e, !pos);
    }
    if s >= e {
        return;
    }
    // A `let` pattern on the true edge binds names; it bounds nothing.
    if pos && txt(file, s) == "let" {
        return;
    }
    // `P.is_empty()` on its false edge: `P` is non-empty.
    if !pos
        && e >= s + 5
        && txt(file, e - 1) == ")"
        && txt(file, e - 2) == "("
        && txt(file, e - 3) == "is_empty"
        && txt(file, e - 4) == "."
    {
        if let Some((p, ps)) = path_back(file, e - 5) {
            if ps == s {
                out.push(format!("len_gt:{p}:0"));
            }
        }
        // fall through: a comparison may still end in `)` (e.g.
        // `v.len() > 0`), handled below.
    }
    // Find the top-level comparator.
    let mut i = s;
    let mut op: Option<(&str, usize, usize)> = None; // (op, idx, width)
    while i < e {
        let t = txt(file, i);
        match t {
            "<" | ">" => {
                let wide = adj(file, i) && i + 1 < e && txt(file, i + 1) == "=";
                op = Some((if t == "<" { if wide { "<=" } else { "<" } } else if wide { ">=" } else { ">" }, i, if wide { 2 } else { 1 }));
                break;
            }
            "=" if adj(file, i) && i + 1 < e && txt(file, i + 1) == "=" => {
                op = Some(("==", i, 2));
                break;
            }
            _ => {}
        }
        i = skip_group(file, i, e);
    }
    let Some((op, oi, ow)) = op else { return };
    let (ls, le) = (s, oi);
    let (rs, re) = (oi + ow, e);
    let lhs = operand(st, file, ls, le);
    let rhs = operand(st, file, rs, re);
    use Operand::{Const, Ident, Len};
    // Normalize to `left OP right` with facts for the edge polarity.
    // On the false edge the comparison is negated.
    let eff = if pos {
        op
    } else {
        match op {
            "<" => ">=",
            "<=" => ">",
            ">" => "<=",
            ">=" => "<",
            _ => return, // != / == negation yields nothing useful
        }
    };
    match (lhs, eff, rhs) {
        (Ident(i), "<", Len(p)) => out.push(format!("lt:{i}:{p}")),
        (Ident(i), "<=" | "==", Len(p)) => out.push(format!("le_len:{i}:{p}")),
        (Len(p), ">", Ident(i)) => out.push(format!("lt:{i}:{p}")),
        (Len(p), ">=", Ident(i)) => out.push(format!("le_len:{i}:{p}")),
        (Ident(i), "<", Const(k)) => out.push(format!("ltc:{i}:{k}")),
        (Ident(i), "<=" | "==", Const(k)) => out.push(format!("lec:{i}:{k}")),
        (Const(k), ">", Ident(i)) => out.push(format!("ltc:{i}:{k}")),
        (Const(k), ">=", Ident(i)) => out.push(format!("lec:{i}:{k}")),
        (Len(p), ">" | "==", Const(k)) => {
            if let Some(kv) = parse_const(&k) {
                if eff == ">" {
                    out.push(format!("len_gt:{p}:{kv}"));
                } else if kv > 0 {
                    out.push(format!("len_gt:{p}:{}", kv - 1));
                }
            }
        }
        (Len(p), ">=", Const(k)) => {
            if let Some(kv) = parse_const(&k) {
                if kv > 0 {
                    out.push(format!("len_gt:{p}:{}", kv - 1));
                }
            }
        }
        (Const(k), "<", Len(p)) => {
            if let Some(kv) = parse_const(&k) {
                out.push(format!("len_gt:{p}:{kv}"));
            }
        }
        (Const(k), "<=" | "==", Len(p)) => {
            if let Some(kv) = parse_const(&k) {
                if kv > 0 {
                    out.push(format!("len_gt:{p}:{}", kv - 1));
                }
            }
        }
        _ => {}
    }
}

/// One comparison operand, classified.
enum Operand {
    Ident(String),
    Const(String),
    /// `P.len()` — carries P.
    Len(String),
    Other,
}

fn operand(st: &Facts, file: &SourceFile, s: usize, e: usize) -> Operand {
    if s >= e {
        return Operand::Other;
    }
    // `P.len()`
    if e - s >= 3
        && txt(file, e - 1) == ")"
        && txt(file, e - 2) == "("
        && txt(file, e - 3) == "len"
        && e - s >= 5
        && txt(file, e - 4) == "."
    {
        if let Some((p, ps)) = path_back(file, e - 5) {
            if ps == s {
                return Operand::Len(p);
            }
        }
        return Operand::Other;
    }
    if e - s == 1 {
        let t = txt(file, s);
        let tok = file.toks[s];
        if tok.kind == TokKind::Num {
            return Operand::Const(t.to_string());
        }
        if tok.kind == TokKind::Ident {
            // `i < n` where `n == P.len()` rewrites to `i < P.len()`.
            let pref = format!("eqlen:{t}:");
            if let Some(f) = st.iter().find(|f| f.starts_with(&pref)) {
                return Operand::Len(f[pref.len()..].to_string());
            }
            if t.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()) {
                return Operand::Const(t.to_string());
            }
            return Operand::Ident(t.to_string());
        }
    }
    Operand::Other
}

/// Facts from a `for` head along the body edge: `for i in 0..P.len()`,
/// `for i in 0..K`, `for (i, ..) in P.iter().enumerate()`.
fn for_facts(st: &mut Facts, file: &SourceFile, s: usize, e: usize) {
    // Locate `in` at depth 0.
    let mut i = s;
    let mut in_idx = None;
    while i < e {
        if file.toks[i].kind == TokKind::Ident && txt(file, i) == "in" {
            in_idx = Some(i);
            break;
        }
        i = skip_group(file, i, e);
    }
    let Some(ii) = in_idx else { return };
    // Pattern: bare ident, or `(i, ..)` tuple (first element).
    let idx = if ii == s + 1 && file.toks[s].kind == TokKind::Ident {
        Some(txt(file, s).to_string())
    } else if txt(file, s) == "(" && file.toks[s + 1].kind == TokKind::Ident {
        Some(txt(file, s + 1).to_string())
    } else {
        None
    };
    let Some(idx) = idx else { return };
    // Iterator: `0 .. END` (exclusive) or `P.iter().enumerate()`.
    let it_s = ii + 1;
    if it_s < e && txt(file, it_s) == "0" && it_s + 2 < e && txt(file, it_s + 1) == "." && txt(file, it_s + 2) == "." {
        let inclusive = it_s + 3 < e && txt(file, it_s + 3) == "=";
        if inclusive {
            return;
        }
        match operand(st, file, it_s + 3, e) {
            Operand::Len(p) => {
                st.insert(format!("lt:{idx}:{p}"));
            }
            Operand::Const(k) => {
                st.insert(format!("ltc:{idx}:{k}"));
            }
            _ => {}
        }
        return;
    }
    // `P.iter().enumerate()` / `P.iter_mut().enumerate()`.
    if e >= 4 && txt(file, e - 1) == ")" && txt(file, e - 2) == "(" && txt(file, e - 3) == "enumerate" && txt(file, e - 4) == "." {
        let mut j = e - 4; // before `.enumerate()`
        if j >= 3 && txt(file, j - 1) == ")" && txt(file, j - 2) == "(" {
            let m = txt(file, j - 3);
            if (m == "iter" || m == "iter_mut") && j >= 4 && txt(file, j - 4) == "." {
                j -= 4;
                if let Some((p, ps)) = path_back(file, j - 1) {
                    if ps == it_s {
                        st.insert(format!("lt:{idx}:{p}"));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Statement walk: fact gen/kill + site checks
// ---------------------------------------------------------------------

/// Walks one statement range, updating facts and reporting undischarged
/// sites through `sink(rule, line, message)`.
///
/// Kills and `let`-derived facts are *deferred to the end of the
/// statement*: a site inside `f(&mut v[..w])` is checked against the
/// facts holding when the expression evaluates, before the callee can
/// mutate anything. Statement ranges are `;`-granular, so the deferral
/// never leaks past a sequence point. Assertion facts apply
/// immediately — the assert itself is the sequence point that makes
/// them true.
///
/// Short-circuit conjunctions guard their own right-hand sides:
/// in `pos < b.len() && b[pos] == 0`, the index only evaluates once
/// the bound held, so each `&&` folds the conjunct to its left into a
/// *temporary* fact overlay scoped to the rest of the statement
/// (popped at the enclosing group's close, reset at `,` and `||`, and
/// removed entirely before the statement's deferred kills/gens apply —
/// edge transfer re-derives branch facts separately, so nothing leaks
/// to the false edge).
fn scan_stmt(
    st: &mut Facts,
    file: &SourceFile,
    (s, e): (usize, usize),
    fields: &FieldLens,
    sink: &mut dyn FnMut(&str, usize, String),
) {
    let e = e.min(file.toks.len());
    let mut kills: Vec<(String, bool)> = Vec::new();
    let mut gens: Vec<String> = Vec::new();
    // Temporary conjunct-guard facts: the ones newly inserted (absent
    // before), plus group markers for scope-correct removal. Each mark
    // also remembers the condition range of the `if` whose branch the
    // group is, so the matching `else {` block can receive the negated
    // facts (`if v.is_empty() { .. } else { v[..] }` as an expression).
    let mut temp: Vec<String> = Vec::new();
    let mut marks: Vec<(usize, Option<(usize, usize)>)> = Vec::new();
    let mut pending_if: Option<(usize, usize)> = None; // (cond_start, brace_pos)
    let mut pending_else: Option<(usize, usize)> = None; // cond range of the `if`
    let mut seg_start = s;
    let mut i = s;
    // Branch-head statements start at their keyword; the first
    // conjunct's comparison begins after it.
    if i < e && matches!(txt(file, i), "if" | "while" | "else") {
        while i < e && matches!(txt(file, i), "if" | "while" | "else") {
            seg_start = i + 1;
            i += 1;
        }
        i = s; // only seg_start moves; the walk still sees every token
    }
    while i < e {
        let t = txt(file, i);
        let kind = file.toks[i].kind;
        let line = file.toks[i].line as usize;
        // Conjunct-guard bookkeeping (never consumes the token for the
        // handlers below, except the `&&` pair itself).
        match t {
            "(" | "{" => {
                let mark = temp.len();
                let mut branch_cond = None;
                if t == "{" {
                    // The brace opening an if-expression's branch gets
                    // the condition's facts (true edge); the brace after
                    // `else` gets the negation (false edge). Scoped to
                    // the group via the temp/mark machinery.
                    let seed = if let Some((cs, bp)) = pending_if.take() {
                        (bp == i).then(|| {
                            branch_cond = Some((cs, bp));
                            (cs, bp, true)
                        })
                    } else {
                        pending_else.take().map(|(cs, ce)| (cs, ce, false))
                    };
                    if let Some((cs, ce, pos)) = seed {
                        let mut new = Vec::new();
                        cond_facts_into(&mut new, st, file, cs, ce, pos);
                        for fact in new {
                            if st.insert(fact.clone()) {
                                temp.push(fact);
                            }
                        }
                    }
                }
                marks.push((mark, branch_cond));
            }
            ")" | "}" => {
                if let Some((m, branch_cond)) = marks.pop() {
                    for fact in temp.drain(m..) {
                        st.remove(&fact);
                    }
                    if let Some(cond) = branch_cond {
                        if i + 2 < e && txt(file, i + 1) == "else" && txt(file, i + 2) == "{" {
                            pending_else = Some(cond);
                        }
                    }
                }
                seg_start = i + 1;
            }
            // `A || B`: B only runs when A is false, so A's negation
            // holds across B (`len < 10 || bytes[8] != b' '`).
            "|" if adj(file, i)
                && i + 1 < e
                && txt(file, i + 1) == "|"
                && i >= 1
                && (matches!(file.toks[i - 1].kind, TokKind::Ident | TokKind::Num)
                    || matches!(txt(file, i - 1), ")" | "]")) =>
            {
                let mut new = Vec::new();
                conjunct_facts(&mut new, st, file, seg_start.min(i), i, false);
                for fact in new {
                    if st.insert(fact.clone()) {
                        temp.push(fact);
                    }
                }
                seg_start = i + 2;
                i += 2;
                continue;
            }
            "," | "|" | ";" => {
                let m = marks.last().map(|m| m.0).unwrap_or(0);
                for fact in temp.drain(m..) {
                    st.remove(&fact);
                }
                seg_start = i + 1;
            }
            "if" if kind == TokKind::Ident => {
                // Locate the brace opening this if's branch; the tokens
                // between are the condition.
                let mut j = i + 1;
                while j < e && txt(file, j) != "{" {
                    j = skip_group(file, j, e);
                }
                if j < e {
                    pending_if = Some((i + 1, j));
                }
            }
            "&" if adj(file, i)
                && i + 1 < e
                && txt(file, i + 1) == "&"
                && i >= 1
                && (matches!(file.toks[i - 1].kind, TokKind::Ident | TokKind::Num)
                    || matches!(txt(file, i - 1), ")" | "]")) =>
            {
                let mut new = Vec::new();
                conjunct_facts(&mut new, st, file, seg_start.min(i), i, true);
                for fact in new {
                    if st.insert(fact.clone()) {
                        temp.push(fact);
                    }
                }
                seg_start = i + 2;
                i += 2;
                continue;
            }
            _ => {}
        }
        // Assertion macros: their argument is the check — derive facts,
        // skip site detection inside.
        if kind == TokKind::Ident
            && ASSERT_MACROS.contains(&t)
            && i + 2 < e
            && txt(file, i + 1) == "!"
            && txt(file, i + 2) == "("
        {
            let close = matching(file, i + 2, e);
            if t == "assert" || t == "debug_assert" {
                cond_facts(st, file, i + 3, close, true);
            }
            i = close + 1;
            continue;
        }
        // `let` bindings: eqlen / arraylen / min-bound facts, plus the
        // kill of the rebound name.
        if kind == TokKind::Ident && t == "let" {
            i = let_facts(&mut gens, &mut kills, st, file, i, e);
            continue;
        }
        // `.len() - k` underflow.
        if kind == TokKind::Ident
            && t == "len"
            && i >= 1
            && txt(file, i - 1) == "."
            && i + 2 < e
            && txt(file, i + 1) == "("
            && txt(file, i + 2) == ")"
        {
            if i + 3 < e && txt(file, i + 3) == "-" && !(adj(file, i + 3) && i + 4 < e && txt(file, i + 4) == ">") {
                if let Some((p, _)) = path_back(file, i - 2) {
                    let k = if i + 4 < e { parse_const(txt(file, i + 4)) } else { None };
                    let ok = match k {
                        Some(kv) if kv > 0 => proves_len_gt(st, &p, kv - 1),
                        _ => false,
                    };
                    if !ok {
                        sink(
                            "underflow-sub",
                            line,
                            format!("`{p}.len() - ..` may underflow (emptiness not ruled out)"),
                        );
                    }
                } else {
                    sink("underflow-sub", line, "`.len() - ..` on an unresolvable receiver".into());
                }
            }
            i += 3;
            continue;
        }
        // Length-changing methods and `&mut` escapes kill facts.
        if kind == TokKind::Ident
            && LEN_MUTATORS.contains(&t)
            && i >= 1
            && txt(file, i - 1) == "."
            && i + 1 < e
            && txt(file, i + 1) == "("
        {
            if let Some((p, _)) = path_back(file, i.saturating_sub(2)) {
                kills.push((p, false));
            }
            i += 1;
            continue;
        }
        if t == "&" && i + 1 < e && txt(file, i + 1) == "mut" && i + 2 < e && file.toks[i + 2].kind == TokKind::Ident {
            // The borrowed root segment is killed conservatively (the
            // path may extend with more segments; `kill` matches
            // prefixes).
            kills.push((txt(file, i + 2).to_string(), false));
            i += 2;
            continue;
        }
        // Indexing site: `[` after an ident/`]`/`)`.
        if t == "["
            && i >= 1
            && (file.toks[i - 1].kind == TokKind::Ident || txt(file, i - 1) == "]" || txt(file, i - 1) == ")")
        {
            let close = matching(file, i, e);
            check_index(st, file, fields, i, close, line, sink);
            // Walk inside the brackets too (nested sites, fact kills).
            i += 1;
            continue;
        }
        // Assignments kill the assigned path's facts. `=` that is not
        // `==`, `=>`, `<=`, `>=`, `!=`.
        if t == "="
            && !(adj(file, i) && i + 1 < e && matches!(txt(file, i + 1), "=" | ">"))
            && !(i >= 1
                && adj(file, i - 1)
                && matches!(txt(file, i - 1), "=" | "<" | ">" | "!"))
        {
            // Compound ops (`+=`, `-=`, ..) sit immediately before.
            let lhs_end = if i >= 1
                && adj(file, i - 1)
                && matches!(txt(file, i - 1), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
            {
                i.checked_sub(2)
            } else {
                i.checked_sub(1)
            };
            if let Some(le) = lhs_end {
                if file.toks[le].kind == TokKind::Ident {
                    if let Some((p, _)) = path_back(file, le) {
                        kills.push((p, true));
                    }
                }
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    for fact in temp {
        st.remove(&fact);
    }
    for (p, rebind) in &kills {
        kill(st, p, *rebind);
    }
    st.extend(gens);
}

/// Facts from a `let` statement starting at token `i` (the `let`).
/// Pushes deferred facts/kills; returns the index to resume scanning
/// from (just past the binding name, so the RHS is still walked for
/// sites).
fn let_facts(
    gens: &mut Vec<String>,
    kills: &mut Vec<(String, bool)>,
    st: &Facts,
    file: &SourceFile,
    i: usize,
    e: usize,
) -> usize {
    let mut j = i + 1;
    if j < e && txt(file, j) == "mut" {
        j += 1;
    }
    if j >= e || file.toks[j].kind != TokKind::Ident {
        return i + 1;
    }
    let name = txt(file, j).to_string();
    kills.push((name.clone(), true));
    // Optional `: [T; K]` annotation.
    let mut k = j + 1;
    if k < e && txt(file, k) == ":" {
        let ty_s = k + 1;
        if ty_s < e && txt(file, ty_s) == "[" {
            let close = matching(file, ty_s, e);
            // `[T ; K]` — K is the last token before the close.
            if close > ty_s + 2 && txt(file, close - 2) == ";" {
                gens.push(format!("arraylen:{name}:{}", txt(file, close - 1)));
            }
            k = close + 1;
        } else {
            while k < e && txt(file, k) != "=" && txt(file, k) != ";" {
                k = skip_group(file, k, e);
            }
        }
    }
    // `= RHS ;`
    while k < e && txt(file, k) != "=" && txt(file, k) != ";" {
        k = skip_group(file, k, e);
    }
    if k >= e || txt(file, k) != "=" || (adj(file, k) && k + 1 < e && txt(file, k + 1) == "=") {
        return j + 1;
    }
    let rs = k + 1;
    let mut re = rs;
    while re < e && txt(file, re) != ";" {
        re = skip_group(file, re, e);
    }
    if rs >= re {
        return j + 1;
    }
    // RHS = `[ .. ; K ]` array literal.
    if txt(file, rs) == "[" && matching(file, rs, re) == re - 1 {
        let close = re - 1;
        if close > rs + 2 && txt(file, close - 2) == ";" {
            gens.push(format!("arraylen:{name}:{}", txt(file, close - 1)));
        }
        return j + 1;
    }
    // RHS = `vec![ .. ; N ]` — the macro's length operand is the
    // vector's length: a single-ident `N` yields `N == name.len()`, a
    // literal yields the length outright.
    if txt(file, rs) == "vec"
        && rs + 2 < re
        && txt(file, rs + 1) == "!"
        && txt(file, rs + 2) == "["
        && matching(file, rs + 2, re) == re - 1
    {
        let close = re - 1;
        if close > rs + 4 && txt(file, close - 2) == ";" {
            let t = txt(file, close - 1);
            match file.toks[close - 1].kind {
                TokKind::Ident => gens.push(format!("eqlen:{t}:{name}")),
                TokKind::Num => {
                    if let Some(k) = parse_const(t) {
                        if k > 0 {
                            gens.push(format!("len_gt:{name}:{}", k - 1));
                        }
                    }
                }
                _ => {}
            }
        }
        return j + 1;
    }
    // RHS = `P.len()`.
    if let Operand::Len(p) = operand(st, file, rs, re) {
        gens.push(format!("eqlen:{name}:{p}"));
        return j + 1;
    }
    // RHS ends `.min(K)` with a constant or const-ident bound.
    if re >= rs + 4
        && txt(file, re - 1) == ")"
        && txt(file, re - 3) == "("
        && txt(file, re - 4) == "min"
        && re >= rs + 5
        && txt(file, re - 5) == "."
    {
        let b = txt(file, re - 2);
        let btok = file.toks[re - 2];
        let is_const = btok.kind == TokKind::Num
            || (btok.kind == TokKind::Ident
                && b.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()));
        if is_const {
            gens.push(format!("lec:{name}:{b}"));
        }
    }
    j + 1
}

/// Checks one index/slice site `recv[open..close]`.
fn check_index(
    st: &Facts,
    file: &SourceFile,
    fields: &FieldLens,
    open: usize,
    close: usize,
    line: usize,
    sink: &mut dyn FnMut(&str, usize, String),
) {
    let Some((recv, _)) = (open >= 1).then(|| path_back(file, open - 1)).flatten() else {
        sink(
            "unchecked-index",
            line,
            "indexing an unresolvable receiver (call or nested-index result)".into(),
        );
        return;
    };
    // A dotted path whose final segment is a declared `[T; K]` field
    // has type-level length K.
    let field_len: Option<u64> = recv
        .contains('.')
        .then(|| recv.rsplit('.').next().and_then(|seg| fields.get(seg).copied()))
        .flatten();
    let (s, e) = (open + 1, close);
    if s >= e {
        // `v[]` cannot parse; ignore.
        return;
    }
    // Find a depth-0 `..` (two adjacent dots).
    let mut dd = None;
    let mut i = s;
    while i < e {
        if txt(file, i) == "." && adj(file, i) && i + 1 < e && txt(file, i + 1) == "." {
            dd = Some(i);
            break;
        }
        i = skip_group(file, i, e);
    }
    if let Some(d) = dd {
        let inclusive = d + 2 < e && txt(file, d + 2) == "=";
        let end_s = if inclusive { d + 3 } else { d + 2 };
        // Full range `v[..]` is always safe.
        if s == d && end_s >= e {
            return;
        }
        // The end bound governs; a start bound alone (`v[k..]`) needs
        // `k <= len` too, checked the same way.
        let (bs, be) = if end_s < e { (end_s, e) } else { (s, d) };
        match classify_bound(file, bs, be) {
            Bound::Num(k) => {
                let need = if inclusive { k } else { k.saturating_sub(1) };
                if (k == 0 && !inclusive)
                    || proves_len_gt(st, &recv, need)
                    || field_len.is_some_and(|n| n > need)
                {
                    return;
                }
            }
            Bound::Ident(b) if !inclusive && proves_le_len(st, &b, &recv) => return,
            Bound::Ident(b)
                if !inclusive && field_len.is_some_and(|n| proves_le_const(st, &b, n)) =>
            {
                return
            }
            _ => {}
        }
        sink(
            "unchecked-index",
            line,
            format!("slice bound on `{recv}` not proved `<= {recv}.len()`"),
        );
        return;
    }
    // Plain index.
    if e - s == 1 {
        let tok = file.toks[s];
        let t = txt(file, s);
        if tok.kind == TokKind::Num {
            if let Some(k) = parse_const(t) {
                if proves_len_gt(st, &recv, k) || field_len.is_some_and(|n| n > k) {
                    return;
                }
            }
            sink(
                "unchecked-index",
                line,
                format!("`{recv}[{t}]` not proved in bounds (need `{recv}.len() > {t}`)"),
            );
            return;
        }
        if tok.kind == TokKind::Ident {
            if proves_lt(st, t, &recv) || field_len.is_some_and(|n| proves_lt_const(st, t, n)) {
                return;
            }
            sink(
                "unchecked-index",
                line,
                format!("`{recv}[{t}]` not proved in bounds (need `{t} < {recv}.len()`)"),
            );
            return;
        }
    }
    // Structured index expressions the analysis can still discharge:
    // arithmetic reductions that bound the value by the receiver's own
    // length. Anchor on the LAST top-level binary operator so the right
    // operand is operator-free (`x % 2 * v.len()` anchors on `*`, not
    // `%`, and correctly falls through to the finding).
    if e - s > 1 {
        let mut op = None;
        let mut i = s;
        while i < e {
            if matches!(txt(file, i), "%" | "&" | "/" | "*" | "+" | "-" | "|" | "^" | "<" | ">") {
                op = Some(i);
            }
            i = skip_group(file, i, e);
        }
        if let Some(m) = op {
            let rhs_const = (e == m + 2 && file.toks[m + 1].kind == TokKind::Num)
                .then(|| parse_const(txt(file, m + 1)))
                .flatten();
            match txt(file, m) {
                "%" => {
                    // `v[x % v.len()]`: the remainder is `< len` whenever
                    // the modulus is the receiver's own length. (An empty
                    // receiver panics in the division itself, before the
                    // index — out of scope for the bounds rule.)
                    if e >= m + 6
                        && txt(file, e - 1) == ")"
                        && txt(file, e - 2) == "("
                        && txt(file, e - 3) == "len"
                        && txt(file, e - 4) == "."
                        && path_back(file, e - 5).is_some_and(|(p, _)| p == recv)
                    {
                        return;
                    }
                    // `v[x % K]`: the remainder is `<= K-1`.
                    if rhs_const.is_some_and(|k| {
                        k >= 1
                            && (proves_len_gt(st, &recv, k - 1)
                                || field_len.is_some_and(|n| n >= k))
                    }) {
                        return;
                    }
                }
                // `v[x & K]`: the mask bounds the index by `K`.
                "&" if rhs_const.is_some_and(|k| {
                    proves_len_gt(st, &recv, k) || field_len.is_some_and(|n| n > k)
                }) =>
                {
                    return;
                }
                // `v[v.len() / K]` with constant `K >= 2` (the median
                // idiom): `len/K <= len-1` once `len >= 1`.
                "/" if m >= s + 5
                    && txt(file, m - 1) == ")"
                    && txt(file, m - 2) == "("
                    && txt(file, m - 3) == "len"
                    && txt(file, m - 4) == "."
                    && path_back(file, m - 5).is_some_and(|(p, ps)| p == recv && ps == s)
                    && rhs_const.is_some_and(|k| k >= 2)
                    && proves_len_gt(st, &recv, 0) =>
                {
                    return;
                }
                _ => {}
            }
        }
    }
    sink(
        "unchecked-index",
        line,
        format!("`{recv}[..]` index expression too complex for the bounds dataflow"),
    );
}

/// A slice bound.
enum Bound {
    Num(u64),
    Ident(String),
    Other,
}

fn classify_bound(file: &SourceFile, s: usize, e: usize) -> Bound {
    if e - s == 1 {
        let tok = file.toks[s];
        let t = txt(file, s);
        if tok.kind == TokKind::Num {
            if let Some(k) = parse_const(t) {
                return Bound::Num(k);
            }
        }
        if tok.kind == TokKind::Ident {
            return Bound::Ident(t.to_string());
        }
    }
    Bound::Other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;

    fn run_on(main_body: &str, lib: &str) -> PanicFreeResult {
        let mut ws = Workspace { crates: vec!["(root)".into(), "core".into()], ..Workspace::default() };
        ws.add_file(
            "src/bin/csim.rs".into(),
            "(root)".into(),
            Section::Bin,
            format!("use csim_core::entry;\nfn main() {{ {main_body} }}\n"),
        );
        ws.add_file("crates/core/src/lib.rs".into(), "core".into(), Section::Src, lib.into());
        let g = CallGraph::build(&ws);
        run(&ws, &g)
    }

    fn rules(r: &PanicFreeResult) -> Vec<&str> {
        r.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn reachable_site_fires_and_unreachable_does_not() {
        let r = run_on(
            "entry(&[1]);",
            "pub fn entry(v: &[u64]) -> u64 { v[9] }\n\
             pub fn not_reached(v: &[u64]) -> u64 { v[9] }\n",
        );
        assert_eq!(rules(&r), ["unchecked-index"], "{:?}", r.findings);
        // `not_reached` has no caller chain from main, so its index is
        // out of scope for this pass.
        assert_eq!(r.findings[0].line, 1);
        assert_eq!(r.findings[0].chain, ["main", "entry"]);
    }

    #[test]
    fn dominating_checks_discharge_indexing() {
        let r = run_on(
            "entry(&[1, 2]);",
            "pub fn entry(v: &[u64]) -> u64 {\n\
                 let mut s = 0;\n\
                 for i in 0..v.len() { s += v[i]; }\n\
                 if !v.is_empty() { s += v[0]; }\n\
                 s\n\
             }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.reachable_fns, 2);
    }

    #[test]
    fn unchecked_sites_fire() {
        let r = run_on(
            "entry(&[1]);",
            "pub fn entry(v: &[u64]) -> u64 { v[0] + v.len() as u64 }\n",
        );
        assert_eq!(rules(&r), ["unchecked-index"], "{:?}", r.findings);
        assert!(r.findings[0].message.contains("v[0]"));
        assert_eq!(r.findings[0].chain, ["main", "entry"]);
    }

    #[test]
    fn early_return_guard_survives_the_join() {
        let r = run_on(
            "entry(&[1]);",
            "pub fn entry(v: &[u64]) -> u64 {\n\
                 if v.is_empty() { return 0; }\n\
                 v[0]\n\
             }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn mutation_kills_the_length_fact() {
        let r = run_on(
            "entry(&mut vec![1]);",
            "pub fn entry(v: &mut Vec<u64>) -> u64 {\n\
                 if v.is_empty() { return 0; }\n\
                 v.pop();\n\
                 v[0]\n\
             }\n",
        );
        assert_eq!(rules(&r), ["unchecked-index"], "{:?}", r.findings);
    }

    #[test]
    fn min_bound_against_array_len_discharges_slices() {
        let r = run_on(
            "entry(9);",
            "const BATCH: usize = 64;\n\
             pub fn entry(n: usize) -> u64 {\n\
                 let mut col = [0u64; BATCH];\n\
                 let want = n.min(BATCH);\n\
                 fill(&mut col[..want]);\n\
                 let mut s = 0;\n\
                 for i in 0..BATCH { s += col[i]; }\n\
                 s\n\
             }\n\
             fn fill(_s: &mut [u64]) {}\n",
        );
        // `col[..want]` discharged by `.min(BATCH)` against `[_; BATCH]`;
        // `col[i]` by the `0..BATCH` loop bound against the same type.
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn underflow_needs_a_nonempty_proof() {
        let bad = run_on("entry(&[1]);", "pub fn entry(v: &[u64]) -> usize { v.len() - 1 }\n");
        assert_eq!(rules(&bad), ["underflow-sub"], "{:?}", bad.findings);
        let good = run_on(
            "entry(&[1]);",
            "pub fn entry(v: &[u64]) -> usize { if v.is_empty() { return 0; } v.len() - 1 }\n",
        );
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn contracts_suppress_with_reasons() {
        let r = run_on(
            "entry(&[1], 3);",
            "pub fn entry(v: &[u64], i: usize) -> u64 {\n\
                 // analyze: total — caller guarantees i < v.len() by construction\n\
                 let a = v[i];\n\
                 // analyze: total — startup-only, callers pass a non-empty slice\n\
                 let b = v.len() - 1;\n\
                 a + b as u64\n\
             }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressions.len(), 2, "{:?}", r.suppressions);
        assert!(r.suppressions.iter().any(|s| s.rule == "unchecked-index"));
        assert!(r.suppressions.iter().any(|s| s.rule == "underflow-sub"));
    }

    #[test]
    fn fn_level_total_contract_covers_the_whole_body() {
        let r = run_on(
            "entry(&[1], 1);",
            "// analyze: total — lookup tables are sized by the ctor; indices are pre-validated\n\
             pub fn entry(v: &[u64], i: usize) -> u64 { v[i] + v[i + 1] }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressions.len(), 2, "{:?}", r.suppressions);
    }

    #[test]
    fn assert_macros_are_guards_not_findings() {
        let r = run_on(
            "entry(&[1], 0);",
            "pub fn entry(v: &[u64], i: usize) -> u64 { assert!(i < v.len()); v[i] }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn tooling_crates_are_out_of_scope() {
        let mut ws = Workspace { crates: vec!["(root)".into(), "analyze".into()], ..Workspace::default() };
        ws.add_file(
            "src/bin/csim.rs".into(),
            "(root)".into(),
            Section::Bin,
            "use csim_analyze::helper;\nfn main() { helper(&[1]); }\n".into(),
        );
        ws.add_file(
            "crates/analyze/src/lib.rs".into(),
            "analyze".into(),
            Section::Src,
            "pub fn helper(v: &[u64]) -> u64 { v[0] }\n".into(),
        );
        let g = CallGraph::build(&ws);
        let r = run(&ws, &g);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
