//! Token-level intraprocedural control-flow graphs.
//!
//! [`Cfg::build`] turns one function body (a token span from the
//! [`crate::lex`] stream) into basic blocks connected by typed
//! edges: branches (`if`/`if let`, `while`, `for`), `match` arms, loop
//! back-edges, `break`/`continue`, early `return`, and `?` early exits.
//! The dataflow framework in [`crate::dataflow`] runs lattice fixpoints
//! over these graphs; the panic-freedom pass is its client.
//!
//! The builder is structured recursive descent over tokens, not a real
//! parser, and it over-approximates on purpose (DESIGN.md §17 lists the
//! caveats):
//!
//! * closure bodies, bare `{}` scopes, and struct-literal braces are
//!   walked *inline* — their tokens flow through the enclosing block
//!   chain as if executed exactly once at that point;
//! * parenthesized and bracketed groups are appended to the current
//!   statement range without interpretation, so control flow nested
//!   inside call arguments (and `?` inside a group) does not fork the
//!   graph;
//! * labeled `break`/`continue` target the innermost loop — labels are
//!   not resolved;
//! * `let .. else { }` divergence is modeled as a may-skip split (both
//!   the else body and the bypass edge are kept).
//!
//! Every over-approximation adds paths rather than removing them, which
//! is the conservative direction for the must-fact analyses built on
//! top: extra joins can only weaken facts, never fabricate them.

use crate::lex::{ctrl_kw, CtrlKw, TokKind};

use crate::model::SourceFile;

/// Why control passes from one block to another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Straight-line fall-through (also block joins).
    Seq,
    /// Condition held (`if`/`if let`/`while`/`for` entered its body).
    BranchTrue,
    /// Condition failed (branch around the body / loop exits).
    BranchFalse,
    /// One `match` arm selected.
    Arm,
    /// Loop back-edge (end of body, or `continue`).
    Back,
    /// `break` out of the innermost loop.
    Break,
    /// Early `return` to the function exit.
    Return,
    /// `?` propagating an `Err`/`None` to the function exit.
    Question,
}

/// One basic block: statement-granular token ranges plus typed
/// successor edges.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Half-open token index ranges into the owning file's
    /// [`SourceFile::toks`], in execution order. A branch head's last
    /// range is its condition (including the `if`/`while`/`for`/`match`
    /// keyword), which is how edge transfer functions recover the
    /// guard.
    pub stmts: Vec<(usize, usize)>,
    /// Successor edges, in construction order.
    pub succs: Vec<(usize, EdgeKind)>,
}

/// A per-function control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Blocks; index 0 is the entry. Unreachable blocks are garbage-
    /// collected, so every block except possibly the exit is reachable
    /// from the entry.
    pub blocks: Vec<Block>,
    /// Index of the single synthetic exit block (no statements; the
    /// target of fall-off, `return`, and `?` edges). Kept even when
    /// unreachable (e.g. a function ending in `loop {}`).
    pub exit: usize,
}

impl Cfg {
    /// Builds the CFG for one body token span (half-open, as stored in
    /// [`crate::model::FnItem::body`]).
    pub fn build(file: &SourceFile, body: (usize, usize)) -> Cfg {
        let end = body.1.min(file.toks.len());
        let mut b = Builder {
            file,
            blocks: vec![Block::default(), Block::default()],
            cur: 0,
            exit: 1,
            loops: Vec::new(),
            open: None,
        };
        b.walk_seq(body.0.min(end), end);
        b.close_range(end);
        b.edge(b.cur, b.exit, EdgeKind::Seq);
        b.gc()
    }

    /// Predecessor lists (parallel to `blocks`).
    pub fn preds(&self) -> Vec<Vec<(usize, EdgeKind)>> {
        let mut preds: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); self.blocks.len()];
        for (i, blk) in self.blocks.iter().enumerate() {
            for &(s, k) in &blk.succs {
                preds[s].push((i, k));
            }
        }
        preds
    }

    /// Reverse postorder from the entry — the deterministic iteration
    /// order the fixpoint engine uses.
    pub fn rpo(&self) -> Vec<usize> {
        let n = self.blocks.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut post: Vec<usize> = Vec::with_capacity(n);
        // Iterative DFS: (block, next-successor-index) frames.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some(&mut (b, ref mut si)) = stack.last_mut() {
            let succs = &self.blocks[b].succs;
            if *si < succs.len() {
                let nxt = succs[*si].0;
                *si += 1;
                if state[nxt] == 0 {
                    state[nxt] = 1;
                    stack.push((nxt, 0));
                }
            } else {
                state[b] = 2;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

struct Builder<'a> {
    file: &'a SourceFile,
    blocks: Vec<Block>,
    cur: usize,
    exit: usize,
    /// `(head, after)` per enclosing loop, innermost last.
    loops: Vec<(usize, usize)>,
    /// Start of the currently-open statement range in `cur`.
    open: Option<usize>,
}

impl Builder<'_> {
    fn text(&self, i: usize) -> &str {
        self.file.text(self.file.toks[i])
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.blocks[from].succs.push((to, kind));
    }

    /// Extends (or opens) the current statement range through token `i`.
    fn push_tok(&mut self, i: usize) {
        if self.open.is_none() {
            self.open = Some(i);
        }
    }

    /// Closes the open range at exclusive token index `end`.
    fn close_range(&mut self, end: usize) {
        if let Some(s) = self.open.take() {
            if s < end {
                self.blocks[self.cur].stmts.push((s, end));
            }
        }
    }

    /// Index of the closer matching the opener at `i` (`(`/`[`/`{`);
    /// the file end when unbalanced.
    fn matching(&self, i: usize) -> usize {
        let n = self.file.toks.len();
        let (open, close) = match self.text(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return i,
        };
        let mut depth = 0usize;
        let mut j = i;
        while j < n {
            let t = self.text(j);
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
        n.saturating_sub(1)
    }

    /// One step at "depth 0": past a whole group, or one token.
    fn skip_group_at(&self, i: usize) -> usize {
        match self.text(i) {
            "(" | "[" | "{" => self.matching(i) + 1,
            _ => i + 1,
        }
    }

    /// First `{` at depth 0 in `[i, end)` — the body brace of an
    /// `if`/`while`/`for`/`match` whose condition starts at `i`.
    fn scan_to_brace(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            match self.text(i) {
                "{" => return i,
                "(" | "[" => i = self.matching(i) + 1,
                _ => i += 1,
            }
        }
        end
    }

    /// `=>` spelled as two adjacent punct tokens.
    fn is_fat_arrow(&self, i: usize) -> bool {
        self.text(i) == "="
            && i + 1 < self.file.toks.len()
            && self.text(i + 1) == ">"
            && self.file.toks[i].end == self.file.toks[i + 1].start
    }

    /// Walks a statement sequence in the current block chain.
    fn walk_seq(&mut self, mut i: usize, end: usize) {
        while i < end {
            let tok = self.file.toks[i];
            let kw = if tok.kind == TokKind::Ident { ctrl_kw(self.text(i)) } else { None };
            match kw {
                Some(CtrlKw::If) => i = self.walk_if(i, end),
                Some(CtrlKw::Match) => i = self.walk_match(i, end),
                Some(CtrlKw::While) | Some(CtrlKw::For) => i = self.walk_while_for(i, end),
                Some(CtrlKw::Loop) => i = self.walk_loop(i, end),
                Some(CtrlKw::Return) => {
                    let s = i;
                    i += 1;
                    while i < end && self.text(i) != ";" {
                        i = self.skip_group_at(i);
                    }
                    if i < end {
                        i += 1; // include `;`
                    }
                    self.push_tok(s);
                    self.close_range(i.min(end));
                    self.edge(self.cur, self.exit, EdgeKind::Return);
                    self.cur = self.new_block();
                }
                Some(CtrlKw::Break) | Some(CtrlKw::Continue) => {
                    let is_break = matches!(kw, Some(CtrlKw::Break));
                    let s = i;
                    i += 1;
                    while i < end && self.text(i) != ";" {
                        i = self.skip_group_at(i);
                    }
                    if i < end {
                        i += 1;
                    }
                    self.push_tok(s);
                    self.close_range(i.min(end));
                    // Outside any loop (malformed input) the jump can
                    // only leave the function — aim it at the exit.
                    let (head, after) = self.loops.last().copied().unwrap_or((self.exit, self.exit));
                    if is_break {
                        self.edge(self.cur, after, EdgeKind::Break);
                    } else {
                        self.edge(self.cur, head, EdgeKind::Back);
                    }
                    self.cur = self.new_block();
                }
                Some(CtrlKw::Else) => {
                    // A bare `else {` in statement flow is `let .. else`:
                    // model as a may-skip split (the body must diverge,
                    // but we keep both paths — conservative).
                    if i + 1 < end && self.text(i + 1) == "{" {
                        self.push_tok(i);
                        self.close_range(i + 1);
                        let close = self.matching(i + 1);
                        let before = self.cur;
                        let body = self.new_block();
                        self.edge(before, body, EdgeKind::Seq);
                        self.cur = body;
                        self.walk_seq(i + 2, close.min(end));
                        self.close_range(close.min(end));
                        let join = self.new_block();
                        self.edge(self.cur, join, EdgeKind::Seq);
                        self.edge(before, join, EdgeKind::Seq);
                        self.cur = join;
                        i = close + 1;
                    } else {
                        self.push_tok(i);
                        i += 1;
                    }
                }
                None => match self.text(i) {
                    "{" => {
                        // Bare scope, closure body, or struct literal:
                        // walk the contents inline.
                        self.close_range(i);
                        let close = self.matching(i);
                        self.walk_seq(i + 1, close.min(end));
                        self.close_range(close.min(end));
                        i = close + 1;
                    }
                    "?" => {
                        self.push_tok(i);
                        self.close_range(i + 1);
                        self.edge(self.cur, self.exit, EdgeKind::Question);
                        let nb = self.new_block();
                        self.edge(self.cur, nb, EdgeKind::Seq);
                        self.cur = nb;
                        i += 1;
                    }
                    "(" | "[" => {
                        // Whole group as opaque statement text.
                        self.push_tok(i);
                        i = self.matching(i) + 1;
                    }
                    ";" => {
                        self.push_tok(i);
                        self.close_range(i + 1);
                        i += 1;
                    }
                    _ => {
                        self.push_tok(i);
                        i += 1;
                    }
                },
            }
        }
    }

    /// `if cond { .. } [else if .. { .. }]* [else { .. }]` — leaves
    /// `cur` at the join block; returns the index past the chain.
    fn walk_if(&mut self, i: usize, end: usize) -> usize {
        let brace = self.scan_to_brace(i + 1, end);
        if brace >= end {
            // Malformed (no body brace): treat as plain tokens.
            self.push_tok(i);
            return i + 1;
        }
        self.push_tok(i);
        self.close_range(brace);
        let cond_block = self.cur;
        let body_close = self.matching(brace);
        let then_blk = self.new_block();
        self.edge(cond_block, then_blk, EdgeKind::BranchTrue);
        self.cur = then_blk;
        self.walk_seq(brace + 1, body_close.min(end));
        self.close_range(body_close.min(end));
        let then_out = self.cur;
        let join = self.new_block();
        self.edge(then_out, join, EdgeKind::Seq);
        let mut i = body_close + 1;
        if i < end
            && self.file.toks[i].kind == TokKind::Ident
            && ctrl_kw(self.text(i)) == Some(CtrlKw::Else)
        {
            i += 1;
            let else_blk = self.new_block();
            self.edge(cond_block, else_blk, EdgeKind::BranchFalse);
            self.cur = else_blk;
            if i < end
                && self.file.toks[i].kind == TokKind::Ident
                && ctrl_kw(self.text(i)) == Some(CtrlKw::If)
            {
                i = self.walk_if(i, end);
            } else if i < end && self.text(i) == "{" {
                let close = self.matching(i);
                self.walk_seq(i + 1, close.min(end));
                self.close_range(close.min(end));
                i = close + 1;
            }
            self.edge(self.cur, join, EdgeKind::Seq);
        } else {
            self.edge(cond_block, join, EdgeKind::BranchFalse);
        }
        self.cur = join;
        i
    }

    /// `match scrut { pat => expr, .. }` — one `Arm` edge per arm, all
    /// arms joining after the match.
    fn walk_match(&mut self, i: usize, end: usize) -> usize {
        let brace = self.scan_to_brace(i + 1, end);
        if brace >= end {
            self.push_tok(i);
            return i + 1;
        }
        self.push_tok(i);
        self.close_range(brace);
        let head = self.cur;
        let m_end = self.matching(brace);
        let join = self.new_block();
        let mut j = brace + 1;
        while j < m_end {
            // Pattern (and guard) tokens up to `=>` at depth 0.
            let pat_start = j;
            while j < m_end && !self.is_fat_arrow(j) {
                j = self.skip_group_at(j);
            }
            if j >= m_end {
                break;
            }
            let arm = self.new_block();
            self.edge(head, arm, EdgeKind::Arm);
            self.cur = arm;
            if pat_start < j {
                self.blocks[arm].stmts.push((pat_start, j));
            }
            j += 2; // past `=` `>`
            if j < m_end && self.text(j) == "{" {
                let close = self.matching(j);
                self.walk_seq(j + 1, close.min(m_end));
                self.close_range(close.min(m_end));
                j = close + 1;
                if j < m_end && self.text(j) == "," {
                    j += 1;
                }
            } else {
                // Expression arm: tokens to `,` at depth 0 (or the
                // closing brace).
                let s = j;
                while j < m_end && self.text(j) != "," {
                    j = self.skip_group_at(j);
                }
                self.walk_seq(s, j);
                self.close_range(j);
                if j < m_end {
                    j += 1;
                }
            }
            self.edge(self.cur, join, EdgeKind::Seq);
        }
        self.cur = join;
        m_end + 1
    }

    /// `while cond { .. }` / `for pat in iter { .. }`.
    fn walk_while_for(&mut self, i: usize, end: usize) -> usize {
        let brace = self.scan_to_brace(i + 1, end);
        if brace >= end {
            self.push_tok(i);
            return i + 1;
        }
        self.close_range(i);
        let head = self.new_block();
        self.edge(self.cur, head, EdgeKind::Seq);
        self.cur = head;
        self.push_tok(i);
        self.close_range(brace);
        let body_close = self.matching(brace);
        let body = self.new_block();
        self.edge(head, body, EdgeKind::BranchTrue);
        let after = self.new_block();
        self.edge(head, after, EdgeKind::BranchFalse);
        self.loops.push((head, after));
        self.cur = body;
        self.walk_seq(brace + 1, body_close.min(end));
        self.close_range(body_close.min(end));
        self.edge(self.cur, head, EdgeKind::Back);
        self.loops.pop();
        self.cur = after;
        body_close + 1
    }

    /// `loop { .. }` — the after-block is reachable only via `break`.
    fn walk_loop(&mut self, i: usize, end: usize) -> usize {
        if i + 1 >= end || self.text(i + 1) != "{" {
            self.push_tok(i);
            return i + 1;
        }
        self.close_range(i);
        let head = self.new_block();
        self.edge(self.cur, head, EdgeKind::Seq);
        let after = self.new_block();
        self.loops.push((head, after));
        self.cur = head;
        let body_close = self.matching(i + 1);
        self.walk_seq(i + 2, body_close.min(end));
        self.close_range(body_close.min(end));
        self.edge(self.cur, head, EdgeKind::Back);
        self.loops.pop();
        self.cur = after;
        body_close + 1
    }

    /// Drops blocks unreachable from the entry (the exit survives
    /// regardless) and renumbers.
    fn gc(self) -> Cfg {
        let n = self.blocks.len();
        let mut keep = vec![false; n];
        keep[0] = true;
        let mut queue = vec![0usize];
        let mut qi = 0;
        while qi < queue.len() {
            let b = queue[qi];
            qi += 1;
            for &(s, _) in &self.blocks[b].succs {
                if !keep[s] {
                    keep[s] = true;
                    queue.push(s);
                }
            }
        }
        keep[self.exit] = true;
        let mut remap = vec![usize::MAX; n];
        let mut next = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = next;
                next += 1;
            }
        }
        let mut blocks: Vec<Block> = Vec::with_capacity(next);
        for (i, mut blk) in self.blocks.into_iter().enumerate() {
            if !keep[i] {
                continue;
            }
            for s in &mut blk.succs {
                s.0 = remap[s.0];
            }
            blocks.push(blk);
        }
        Cfg { blocks, exit: remap[self.exit] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Section, Workspace};

    /// Builds the CFG of the first fn in `src`.
    fn cfg_of(src: &str) -> (Workspace, Cfg) {
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.add_file("crates/core/src/lib.rs".into(), "core".into(), Section::Src, src.into());
        let f = &ws.fns[0];
        let body = f.body.expect("fixture fn has a body");
        let cfg = Cfg::build(&ws.files[f.file], body);
        (ws, cfg)
    }

    fn count_kind(cfg: &Cfg, kind: EdgeKind) -> usize {
        cfg.blocks.iter().flat_map(|b| &b.succs).filter(|(_, k)| *k == kind).count()
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let (_, cfg) = cfg_of("fn f(x: u64) -> u64 { let y = x + 1; y * 2 }\n");
        assert_eq!(cfg.blocks.len(), 2, "{cfg:?}");
        assert_eq!(cfg.blocks[0].succs, vec![(cfg.exit, EdgeKind::Seq)]);
        assert!(!cfg.blocks[0].stmts.is_empty());
    }

    #[test]
    fn if_else_diamonds() {
        let (_, cfg) =
            cfg_of("fn f(x: u64) -> u64 { if x > 0 { x } else { 0 } }\n");
        assert_eq!(count_kind(&cfg, EdgeKind::BranchTrue), 1);
        assert_eq!(count_kind(&cfg, EdgeKind::BranchFalse), 1);
        // entry, then, else, join, exit
        assert_eq!(cfg.blocks.len(), 5, "{cfg:?}");
    }

    #[test]
    fn early_return_prunes_the_then_join() {
        let (_, cfg) = cfg_of(
            "fn f(v: &[u64]) -> u64 { if v.is_empty() { return 0; } v[0] }\n",
        );
        assert_eq!(count_kind(&cfg, EdgeKind::Return), 1);
        // The block after `return` is unreachable and GC'd: the join
        // keeps exactly one predecessor (the BranchFalse edge).
        let preds = cfg.preds();
        let joins: Vec<usize> = (0..cfg.blocks.len())
            .filter(|&b| preds[b].iter().any(|&(_, k)| k == EdgeKind::BranchFalse))
            .collect();
        assert_eq!(joins.len(), 1);
        assert_eq!(preds[joins[0]].len(), 1, "{cfg:?}");
    }

    #[test]
    fn loops_have_back_edges_and_break_targets_after() {
        let (_, cfg) = cfg_of(
            "fn f(n: u64) -> u64 { let mut i = 0; loop { i += 1; if i == n { break; } } i }\n",
        );
        assert_eq!(count_kind(&cfg, EdgeKind::Back), 1);
        assert_eq!(count_kind(&cfg, EdgeKind::Break), 1);
        let (_, cfg) = cfg_of(
            "fn f(v: &[u64]) -> u64 { let mut s = 0; for x in v { s += x; } while s > 10 { s -= 1; } s }\n",
        );
        assert_eq!(count_kind(&cfg, EdgeKind::Back), 2);
        assert_eq!(count_kind(&cfg, EdgeKind::BranchTrue), 2);
        assert_eq!(count_kind(&cfg, EdgeKind::BranchFalse), 2);
    }

    #[test]
    fn match_arms_fan_out_and_rejoin() {
        let (_, cfg) = cfg_of(
            "fn f(x: Option<u64>) -> u64 { match x { Some(v) if v > 0 => v, Some(_) => 1, None => { 0 } } }\n",
        );
        assert_eq!(count_kind(&cfg, EdgeKind::Arm), 3, "{cfg:?}");
    }

    #[test]
    fn question_marks_edge_to_exit() {
        let (_, cfg) = cfg_of(
            "fn f(s: &str) -> Result<u64, std::num::ParseIntError> { let v = s.parse::<u64>()?; Ok(v + 1) }\n",
        );
        assert_eq!(count_kind(&cfg, EdgeKind::Question), 1);
        // Both the ? edge and the final fall-off reach the exit.
        let preds = cfg.preds();
        assert!(preds[cfg.exit].len() >= 2, "{cfg:?}");
    }

    #[test]
    fn all_blocks_reachable_after_gc() {
        let (_, cfg) = cfg_of(
            "fn f(v: &[u64]) -> u64 {\n\
                 let mut s = 0;\n\
                 for i in 0..v.len() { if v[i] > 3 { s += v[i]; } else { continue; } }\n\
                 match s { 0 => return 7, _ => {} }\n\
                 s\n\
             }\n",
        );
        let mut seen = vec![false; cfg.blocks.len()];
        seen[0] = true;
        let mut q = vec![0usize];
        while let Some(b) = q.pop() {
            for &(s, _) in &cfg.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    q.push(s);
                }
            }
        }
        for (b, ok) in seen.iter().enumerate() {
            assert!(*ok, "block {b} unreachable in {cfg:?}");
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let (_, cfg) = cfg_of(
            "fn f(x: u64) -> u64 { if x > 1 { while x > 2 { return x; } } x }\n",
        );
        let order = cfg.rpo();
        assert_eq!(order[0], 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), order.len(), "rpo repeats a block");
    }

    #[test]
    fn let_else_keeps_the_continuation_reachable() {
        let (_, cfg) = cfg_of(
            "fn f(x: Option<u64>) -> u64 { let Some(v) = x else { return 0; }; v + 1 }\n",
        );
        // The `v + 1` continuation must survive GC (reachable via the
        // bypass edge), and the else body's return edge must exist.
        assert_eq!(count_kind(&cfg, EdgeKind::Return), 1);
        let preds = cfg.preds();
        assert!(preds[cfg.exit].len() >= 2, "{cfg:?}");
    }
}
