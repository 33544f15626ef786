//! The shared workspace model every analysis pass runs over.
//!
//! One walk of the source tree produces:
//!
//! * a [`SourceFile`] per `.rs` file — its lexed token stream (via the
//!   [`crate::lex`] lexer), its crate, its section
//!   (shipped `src/`, binary, tests, examples), its identifier index,
//!   and its analysis markers;
//! * a [`FnItem`] per function — name, impl qualifier, 1-based line,
//!   visibility, `#[cfg(test)]`-ness, its `analyze: total` contract,
//!   and the token span of its body;
//! * a [`PubItem`] per `pub` type/fn/const (for the dead-pub audit);
//! * an [`ImportEdge`] per intra-workspace crate reference found in
//!   shipped code: the call graph's crate visibility, and its only
//!   use. rustc refuses a `csim_*` path the crate does not declare, so
//!   these edges are a subset of Cargo's graph; the layering itself is
//!   checked against Cargo's graph by `tests/layering.rs`.
//!
//! The parser is item-level only: it tracks module / impl / trait /
//! `#[cfg(test)]` scopes and function boundaries, and treats function
//! bodies as token spans to be scanned, never as expression trees. That
//! is all three passes need, and it keeps the parser small enough to be
//! obviously panic-free on arbitrary input.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::{lex, markers, Marker, MarkerKind, TokKind};

/// Where a file sits in the workspace, which determines which passes
/// cover it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// `crates/<name>/src/` or the root package's `src/` — shipped
    /// library code; every pass applies.
    Src,
    /// A `src/bin/` entry point — shipped, and counts as a *user* of
    /// its own crate's `pub` items.
    Bin,
    /// Integration tests (`tests/` at root or under a crate) — usage
    /// only; no pass checks them.
    Tests,
    /// `examples/` and `benches/` — usage only.
    Examples,
}

/// A token without the borrowed text: `(kind, byte span, line)` into
/// the owning [`SourceFile::source`].
#[derive(Clone, Copy, Debug)]
pub struct OTok {
    /// Token classification.
    pub kind: TokKind,
    /// Byte offset of the token start.
    pub start: u32,
    /// Byte offset one past the token end.
    pub end: u32,
    /// 1-based line of the token start.
    pub line: u32,
}

/// One source file plus everything the passes need from it.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Owning crate: a `crates/` directory name, or `(root)` for the
    /// facade package.
    pub crate_name: String,
    /// Which part of the workspace this file belongs to.
    pub section: Section,
    /// Full file text.
    pub source: String,
    /// Significant tokens (whitespace and comments dropped).
    pub toks: Vec<OTok>,
    /// Every identifier token in the file (including test code): the
    /// dead-pub audit's usage index.
    pub idents: BTreeSet<String>,
    /// `// analyze: total — reason` markers (totality contracts for the
    /// panic-freedom pass), by line. Reasonless markers are dropped.
    /// A marker inside a function body contracts the site at/below it;
    /// a marker above a `fn` contracts the whole function (see
    /// [`FnItem::total`]).
    pub total_lines: Vec<(usize, String)>,
    /// Directives of no known kind, by line, as written (see
    /// [`MarkerKind::Unknown`]).
    pub unknown_directives: Vec<(usize, String)>,
}

impl SourceFile {
    /// The text of one token.
    #[inline]
    pub fn text(&self, t: OTok) -> &str {
        &self.source[t.start as usize..t.end as usize]
    }

    /// The trimmed source line (1-based) for finding excerpts.
    pub(crate) fn line_text(&self, line: usize) -> &str {
        self.source.lines().nth(line.saturating_sub(1)).unwrap_or("").trim()
    }

    /// The nearest `analyze: total — reason` marker on `line` or up to
    /// three lines above it (site-level totality contract): its line and
    /// its reason.
    pub(crate) fn total_for(&self, line: usize) -> Option<&(usize, String)> {
        self.total_lines
            .iter()
            .filter(|(l, _)| *l <= line && line - *l <= 3)
            .max_by_key(|(l, _)| *l)
    }
}

/// A call site extracted from a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Qualifier for `Type::name(..)` calls, when present.
    pub qual: Option<String>,
    /// 1-based line of the call.
    pub line: usize,
}

/// One function (free or associated), test or shipped.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Index into [`Workspace::fns`].
    pub id: usize,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Owning crate name.
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` target, when any.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Unrestricted `pub` (not `pub(crate)`).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` scope (or carrying the attribute).
    pub in_test: bool,
    /// `// analyze: total — reason` function-level totality contract,
    /// when a reasoned total marker sits above the `fn` (outside any
    /// body): every partial operation in this function is contracted.
    /// The marker's line and its reason.
    pub total: Option<(usize, String)>,
    /// Token index range of the body in the owning file (half-open),
    /// `None` for bodyless signatures.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` or bare `name` — how humans refer to the function.
    pub fn display_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// What kind of `pub` item the dead-pub audit found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PubKind {
    /// `pub fn` (free or associated).
    Fn,
    /// `pub struct`.
    Struct,
    /// `pub enum`.
    Enum,
    /// `pub trait`.
    Trait,
    /// `pub type`.
    TypeAlias,
    /// `pub const` / `pub static`.
    Const,
}

impl PubKind {
    /// Lowercase keyword for messages.
    pub fn word(self) -> &'static str {
        match self {
            PubKind::Fn => "fn",
            PubKind::Struct => "struct",
            PubKind::Enum => "enum",
            PubKind::Trait => "trait",
            PubKind::TypeAlias => "type",
            PubKind::Const => "const",
        }
    }
}

/// One unrestricted-`pub` item in shipped library code.
#[derive(Clone, Debug)]
pub struct PubItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Owning crate.
    pub crate_name: String,
    /// Item name.
    pub name: String,
    /// Item kind.
    pub kind: PubKind,
    /// 1-based line of the defining keyword.
    pub line: usize,
    /// Token range of the item's interface (fn signature, struct/enum
    /// body, alias/const definition) — the dead-pub audit walks these
    /// to close liveness over API signatures: a type returned by a
    /// live function is itself live.
    pub span: (usize, usize),
}

/// A `csim_*` reference in shipped, non-test code, one per file and
/// referenced crate.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ImportEdge {
    /// Importing crate.
    pub from: String,
    /// Imported crate (directory name, e.g. `cache`).
    pub to: String,
}

/// The parsed workspace.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// All files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Crate names present (directory names plus `(root)`), sorted.
    pub crates: Vec<String>,
    /// Every function item.
    pub fns: Vec<FnItem>,
    /// Every unrestricted-`pub` item in shipped code.
    pub pub_items: Vec<PubItem>,
    /// Deduplicated intra-workspace references from shipped code.
    pub imports: Vec<ImportEdge>,
}

impl Workspace {
    /// Loads and parses every `.rs` file reachable from `root`.
    ///
    /// # Errors
    ///
    /// I/O errors, or a root without a `crates/` directory (the analyzer
    /// is running in the wrong place).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        if !root.join("crates").is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} has no crates/ directory — not the workspace root", root.display()),
            ));
        }
        let mut entries: Vec<(PathBuf, String, Section)> = Vec::new();
        let push_tree = |entries: &mut Vec<(PathBuf, String, Section)>,
                         dir: PathBuf,
                         crate_name: &str,
                         section: Section|
         -> io::Result<()> {
            if dir.is_dir() {
                let mut files = Vec::new();
                walk(&dir, &mut files)?;
                for f in files {
                    // `src/bin/` entries are binaries, not library code.
                    let is_bin = section == Section::Src
                        && f.components().any(|c| c.as_os_str() == "bin");
                    let sec = if is_bin { Section::Bin } else { section };
                    entries.push((f, crate_name.to_string(), sec));
                }
            }
            Ok(())
        };

        push_tree(&mut entries, root.join("src"), "(root)", Section::Src)?;
        push_tree(&mut entries, root.join("tests"), "(root)", Section::Tests)?;
        push_tree(&mut entries, root.join("examples"), "(root)", Section::Examples)?;
        let mut crate_dirs: Vec<(String, PathBuf)> = Vec::new();
        for entry in fs::read_dir(root.join("crates"))? {
            let path = entry?.path();
            if path.is_dir() {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                crate_dirs.push((name, path));
            }
        }
        crate_dirs.sort();
        for (name, dir) in &crate_dirs {
            push_tree(&mut entries, dir.join("src"), name, Section::Src)?;
            push_tree(&mut entries, dir.join("tests"), name, Section::Tests)?;
            push_tree(&mut entries, dir.join("benches"), name, Section::Examples)?;
        }
        entries.sort();

        let mut ws = Workspace::default();
        let mut crates: BTreeSet<String> = crate_dirs.iter().map(|(n, _)| n.clone()).collect();
        crates.insert("(root)".to_string());
        ws.crates = crates.into_iter().collect();

        for (path, crate_name, section) in entries {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            ws.add_file(rel, crate_name, section, source);
        }
        Ok(ws)
    }

    /// Parses one file into the model (exposed for fixture-driven tests).
    pub fn add_file(&mut self, rel: String, crate_name: String, section: Section, source: String) {
        let toks: Vec<OTok> = lex(&source)
            .iter()
            .filter(|t| {
                !matches!(t.kind, TokKind::Ws | TokKind::LineComment | TokKind::BlockComment)
            })
            .map(|t| OTok {
                kind: t.kind,
                start: t.start as u32,
                end: (t.start + t.text.len()) as u32,
                line: t.line as u32,
            })
            .collect();
        let mut idents = BTreeSet::new();
        for t in &toks {
            if t.kind == TokKind::Ident {
                idents.insert(source[t.start as usize..t.end as usize].to_string());
            }
        }
        let mut total_lines = Vec::new();
        let mut unknown_directives = Vec::new();
        for Marker { line, kind } in markers(&source) {
            // Reasonless total markers are inert.
            match kind {
                MarkerKind::Total { reason } if !reason.is_empty() => {
                    total_lines.push((line, reason))
                }
                MarkerKind::Unknown { directive } => unknown_directives.push((line, directive)),
                MarkerKind::Total { .. } => {}
            }
        }
        let file_idx = self.files.len();
        self.files.push(SourceFile {
            rel,
            crate_name: crate_name.clone(),
            section,
            source,
            toks,
            idents,
            total_lines,
            unknown_directives,
        });
        parse_items(self, file_idx);
    }

    /// The file a function lives in.
    #[inline]
    pub fn file_of(&self, f: &FnItem) -> &SourceFile {
        &self.files[f.file]
    }

    /// Body token span of a function, empty when bodyless.
    pub fn body_toks<'a>(&'a self, f: &FnItem) -> &'a [OTok] {
        match f.body {
            Some((a, b)) => &self.files[f.file].toks[a..b],
            None => &[],
        }
    }
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Keywords that look like call names when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let", "else",
];

/// Parser scopes.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Scope {
    Module,
    Impl(String),
    Test,
    Block,
}

/// Item-level parse of `ws.files[file_idx]`, appending to the model.
#[expect(clippy::too_many_lines, reason = "one token walk with a match arm per item kind")]
fn parse_items(ws: &mut Workspace, file_idx: usize) {
    let file = &ws.files[file_idx];
    let crate_name = file.crate_name.clone();
    let section = file.section;
    let n = file.toks.len();
    let mut fns: Vec<FnItem> = Vec::new();
    let mut pubs: Vec<PubItem> = Vec::new();
    let mut imports: BTreeSet<String> = BTreeSet::new();

    let text = |k: usize| file.text(file.toks[k]);
    let line = |k: usize| file.toks[k].line as usize;

    let mut stack: Vec<Scope> = Vec::new();
    let mut pending_pub = false;
    let mut pending_test = false;
    let mut k = 0usize;

    // Skips a bracketed group starting at `open` (which must hold the
    // opening token), returning the index just past the matching close.
    let skip_group = |k: usize, open: &str, close: &str| -> usize {
        let mut depth = 0usize;
        let mut i = k;
        while i < n {
            let t = file.text(file.toks[i]);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        n
    };

    while k < n {
        let t = text(k);
        let in_test = pending_test || stack.contains(&Scope::Test);
        match t {
            "#" => {
                // Attribute. `#[cfg(test)]` marks the next item.
                let mut is_test_attr = false;
                if k + 1 < n && text(k + 1) == "[" {
                    let end = skip_group(k + 1, "[", "]");
                    let attr: Vec<&str> = ((k + 2)..end.saturating_sub(1)).map(text).collect();
                    if attr.first() == Some(&"cfg") && attr.contains(&"test") {
                        is_test_attr = true;
                    }
                    k = end;
                } else {
                    k += 1;
                }
                if is_test_attr {
                    pending_test = true;
                }
                continue;
            }
            "pub" => {
                if k + 1 < n && text(k + 1) == "(" {
                    // pub(crate)/pub(super): restricted, not exported.
                    k = skip_group(k + 1, "(", ")");
                } else {
                    pending_pub = true;
                    k += 1;
                }
                continue;
            }
            "use" => {
                let mut i = k + 1;
                let mut depth = 0usize;
                while i < n {
                    let u = text(i);
                    if u == "{" {
                        depth += 1;
                    } else if u == "}" {
                        depth = depth.saturating_sub(1);
                    } else if u == ";" && depth == 0 {
                        break;
                    } else if section == Section::Src
                        && !in_test
                        && file.toks[i].kind == TokKind::Ident
                    {
                        if let Some(dep) = u.strip_prefix("csim_") {
                            imports.insert(dep.to_string());
                        }
                    }
                    i += 1;
                }
                k = i + 1;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "mod" => {
                // `mod name { … }` opens a scope; `mod name;` is a file ref.
                let mut i = k + 1;
                while i < n && text(i) != "{" && text(i) != ";" {
                    i += 1;
                }
                if i < n && text(i) == "{" {
                    stack.push(if pending_test || in_test { Scope::Test } else { Scope::Module });
                }
                k = i + 1;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "impl" | "trait" => {
                let is_trait = t == "trait";
                // Capture the target: skip generic groups; `impl Trait
                // for Type` takes the segment after `for`.
                let mut i = k + 1;
                let mut angle = 0usize;
                let mut target = String::new();
                let mut after_for = false;
                while i < n {
                    let u = text(i);
                    match u {
                        "<" => angle += 1,
                        ">" => angle = angle.saturating_sub(1),
                        "{" if angle == 0 => break,
                        ";" if angle == 0 => break,
                        "for" if angle == 0 && !is_trait => {
                            after_for = true;
                            target.clear();
                        }
                        "where" if angle == 0 => {
                            // Type is settled; scan on to the brace.
                            while i < n && text(i) != "{" && text(i) != ";" {
                                i += 1;
                            }
                            break;
                        }
                        _ => {
                            if angle == 0 && file.toks[i].kind == TokKind::Ident {
                                let _ = after_for;
                                target = u.to_string();
                            }
                        }
                    }
                    i += 1;
                }
                if is_trait && pending_pub && !in_test && section == Section::Src && !target.is_empty()
                {
                    pubs.push(PubItem {
                        file: file_idx,
                        crate_name: crate_name.clone(),
                        name: target.clone(),
                        kind: PubKind::Trait,
                        line: line(k),
                        span: (k, i),
                    });
                }
                if i < n && text(i) == "{" {
                    stack.push(if pending_test || in_test {
                        Scope::Test
                    } else {
                        Scope::Impl(target)
                    });
                }
                k = i + 1;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "fn" => {
                let name = if k + 1 < n && file.toks[k + 1].kind == TokKind::Ident {
                    text(k + 1).to_string()
                } else {
                    String::new()
                };
                let fn_line = line(k);
                let qual = stack.iter().rev().find_map(|s| match s {
                    Scope::Impl(t) if !t.is_empty() => Some(t.clone()),
                    _ => None,
                });
                // Signature runs to the body brace or a `;`.
                let mut i = k + 1;
                while i < n && text(i) != "{" && text(i) != ";" {
                    i += 1;
                }
                let body = if i < n && text(i) == "{" {
                    let end = skip_group(i, "{", "}");
                    Some((i + 1, end.saturating_sub(1)))
                } else {
                    None
                };
                let body_end = body.map_or(i + 1, |(_, e)| e + 1);
                // Bodies are skipped by the item walker, so scan them
                // here for intra-workspace references.
                if section == Section::Src && !in_test {
                    if let Some((a, b)) = body {
                        for j in a..b.min(n) {
                            if file.toks[j].kind == TokKind::Ident {
                                if let Some(dep) = text(j).strip_prefix("csim_") {
                                    imports.insert(dep.to_string());
                                }
                            }
                        }
                    }
                }
                if !name.is_empty() {
                    let id = ws.fns.len() + fns.len();
                    if pending_pub
                        && !in_test
                        && section == Section::Src
                    {
                        pubs.push(PubItem {
                            file: file_idx,
                            crate_name: crate_name.clone(),
                            name: name.clone(),
                            kind: PubKind::Fn,
                            line: fn_line,
                            span: (k, i),
                        });
                    }
                    fns.push(FnItem {
                        id,
                        file: file_idx,
                        crate_name: crate_name.clone(),
                        name,
                        qual,
                        line: fn_line,
                        is_pub: pending_pub,
                        in_test,
                        total: None,
                        body,
                    });
                }
                k = body_end;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "struct" | "enum" | "trait_placeholder" => {
                let kind = if t == "struct" { PubKind::Struct } else { PubKind::Enum };
                let name = if k + 1 < n && file.toks[k + 1].kind == TokKind::Ident {
                    text(k + 1).to_string()
                } else {
                    String::new()
                };
                let item_start = k;
                // Walk to the body (or `;` for unit/tuple structs).
                let mut i = k + 1;
                let mut angle = 0usize;
                while i < n {
                    let u = text(i);
                    match u {
                        "<" => angle += 1,
                        ">" => angle = angle.saturating_sub(1),
                        ";" if angle == 0 => {
                            i += 1;
                            break;
                        }
                        "(" if angle == 0 => {
                            i = skip_group(i, "(", ")");
                            continue;
                        }
                        "{" if angle == 0 => {
                            i = skip_group(i, "{", "}");
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
                if pending_pub && !in_test && section == Section::Src && !name.is_empty() {
                    pubs.push(PubItem {
                        file: file_idx,
                        crate_name: crate_name.clone(),
                        name: name.clone(),
                        kind,
                        line: line(item_start),
                        span: (item_start, i),
                    });
                }
                k = i;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "type" => {
                let name = if k + 1 < n && file.toks[k + 1].kind == TokKind::Ident {
                    text(k + 1).to_string()
                } else {
                    String::new()
                };
                let mut i = k + 1;
                while i < n && text(i) != ";" {
                    i += 1;
                }
                if pending_pub && !in_test && section == Section::Src && !name.is_empty() {
                    pubs.push(PubItem {
                        file: file_idx,
                        crate_name: crate_name.clone(),
                        name,
                        kind: PubKind::TypeAlias,
                        line: line(k),
                        span: (k, i),
                    });
                }
                k = i + 1;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "const" | "static" => {
                // `const fn` is handled by the `fn` arm next iteration.
                if k + 1 < n && text(k + 1) == "fn" {
                    k += 1;
                    continue;
                }
                let name = if k + 1 < n && file.toks[k + 1].kind == TokKind::Ident {
                    text(k + 1).to_string()
                } else {
                    String::new()
                };
                // Initializers may contain braces (struct literals):
                // track depth to the terminating semicolon.
                let mut i = k + 1;
                let mut depth = 0usize;
                while i < n {
                    match text(i) {
                        "{" | "[" | "(" => depth += 1,
                        "}" | "]" | ")" => depth = depth.saturating_sub(1),
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
                if pending_pub && !in_test && section == Section::Src && !name.is_empty() {
                    pubs.push(PubItem {
                        file: file_idx,
                        crate_name: crate_name.clone(),
                        name,
                        kind: PubKind::Const,
                        line: line(k),
                        span: (k, i),
                    });
                }
                k = i + 1;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "macro_rules" => {
                // `macro_rules! name { … }`
                let mut i = k + 1;
                while i < n && text(i) != "{" {
                    i += 1;
                }
                k = skip_group(i, "{", "}");
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "{" => {
                stack.push(if pending_test { Scope::Test } else { Scope::Block });
                pending_test = false;
                k += 1;
                continue;
            }
            "}" => {
                stack.pop();
                k += 1;
                continue;
            }
            _ => {
                if section == Section::Src
                    && !in_test
                    && file.toks[k].kind == TokKind::Ident
                {
                    if let Some(dep) = t.strip_prefix("csim_") {
                        imports.insert(dep.to_string());
                    }
                }
                k += 1;
            }
        }
    }

    // `// analyze: total` binds at two levels: a marker inside some fn
    // body is site-level (consumed by `total_for` at the finding line);
    // one outside any body binds fn-level to the first fn whose `fn`
    // keyword sits strictly after the marker line (attributes and doc
    // comments in between are fine), contracting every partial
    // operation in that function. A marker with no following fn is
    // inert.
    for (ml, why) in &file.total_lines {
        let inside_body = fns.iter().any(|f| match f.body {
            Some((a, b)) if a < b => {
                let lo = file.toks[a].line as usize;
                let hi = file.toks[b - 1].line as usize;
                (lo..=hi).contains(ml)
            }
            _ => false,
        });
        if inside_body {
            continue;
        }
        if let Some(f) = fns
            .iter_mut()
            .filter(|f| f.line > *ml)
            .min_by_key(|f| f.line)
        {
            f.total = Some((*ml, why.clone()));
        }
    }

    let from = crate_name.clone();
    for to in imports {
        if to != from.replace('-', "_") && ws.crates.iter().any(|c| c.replace('-', "_") == to) {
            ws.imports.push(ImportEdge { from: from.clone(), to });
        }
    }
    ws.fns.extend(fns);
    ws.pub_items.extend(pubs);
}

/// Extracts call sites from a function body span.
pub fn extract_calls(file: &SourceFile, body: &[OTok]) -> Vec<Call> {
    let mut calls = Vec::new();
    let n = body.len();
    let text = |i: usize| file.text(body[i]);
    for i in 0..n {
        if body[i].kind != TokKind::Ident {
            continue;
        }
        let name = text(i);
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Where does the argument list open (allowing `::<…>` turbofish)?
        let mut j = i + 1;
        if j + 1 < n && text(j) == ":" && text(j + 1) == ":" && j + 2 < n && text(j + 2) == "<" {
            let mut depth = 0usize;
            let mut m = j + 2;
            while m < n {
                match text(m) {
                    "<" => depth += 1,
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            m += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            j = m;
        }
        if j >= n || text(j) != "(" {
            continue;
        }
        // Qualifier: `Qual :: name (` — method calls `.name(` have none.
        let mut qual = None;
        if i >= 3
            && text(i - 1) == ":"
            && text(i - 2) == ":"
            && body[i - 3].kind == TokKind::Ident
        {
            qual = Some(text(i - 3).to_string());
        }
        calls.push(Call {
            name: name.to_string(),
            qual,
            line: body[i].line as usize,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_with(rel: &str, crate_name: &str, src: &str) -> Workspace {
        let mut ws = Workspace {
            crates: vec!["(root)".into(), "cache".into(), "core".into()],
            ..Workspace::default()
        };
        ws.add_file(rel.into(), crate_name.into(), Section::Src, src.into());
        ws
    }

    #[test]
    fn fns_and_impls_are_parsed_with_quals() {
        let src = "\
pub struct Cache { slots: Vec<u64> }
impl Cache {
    // analyze: total — probe reads no index
    #[inline]
    pub fn access(&mut self, line: u64) -> bool { self.probe(line) }
    fn probe(&self, line: u64) -> bool { self.slots.contains(&line) }
}
pub fn free_fn() {}
";
        let ws = ws_with("crates/cache/src/model.rs", "cache", src);
        let names: Vec<String> = ws.fns.iter().map(FnItem::display_name).collect();
        assert_eq!(names, ["Cache::access", "Cache::probe", "free_fn"]);
        assert!(ws.fns[0].total.is_some(), "a contract above an attr-decorated fn applies");
        assert!(ws.fns[0].is_pub && !ws.fns[1].is_pub);
        let pubs: Vec<&str> = ws.pub_items.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(pubs, ["Cache", "access", "free_fn"]);
    }

    #[test]
    fn cfg_test_scopes_are_tracked() {
        let src = "\
pub fn shipped() {}
#[cfg(test)]
mod tests {
    pub fn helper() {}
    #[test]
    fn case() { helper(); }
}
";
        let ws = ws_with("crates/cache/src/lib.rs", "cache", src);
        let shipped: Vec<&str> =
            ws.fns.iter().filter(|f| !f.in_test).map(|f| f.name.as_str()).collect();
        assert_eq!(shipped, ["shipped"]);
        assert_eq!(ws.pub_items.len(), 1, "test-only pubs are not audited: {:?}", ws.pub_items);
    }

    #[test]
    fn imports_come_from_idents_outside_tests() {
        let src = "\
use csim_core::Simulation;
fn go() { let _ = csim_config::SystemConfig::default(); }
#[cfg(test)]
mod tests { use csim_workload::OltpParams; }
";
        let mut ws = Workspace {
            crates: vec!["cache".into(), "config".into(), "core".into(), "workload".into()],
            ..Workspace::default()
        };
        ws.add_file("crates/cache/src/lib.rs".into(), "cache".into(), Section::Src, src.into());
        let edges: Vec<(&str, &str)> =
            ws.imports.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
        assert_eq!(edges, [("cache", "config"), ("cache", "core")], "{:?}", ws.imports);
    }

    #[test]
    fn call_extraction_finds_plain_method_and_qualified() {
        let src = "\
fn f() {
    helper(1);
    self.probe(2);
    Cache::insert(3);
    x.collect::<Vec<_>>();
    if cond(x) { }
}
";
        let ws = ws_with("crates/core/src/x.rs", "core", src);
        let f = &ws.fns[0];
        let calls = extract_calls(ws.file_of(f), ws.body_toks(f));
        let names: Vec<(Option<&str>, &str)> =
            calls.iter().map(|c| (c.qual.as_deref(), c.name.as_str())).collect();
        assert!(names.contains(&(None, "helper")));
        assert!(names.contains(&(None, "probe")));
        assert!(names.contains(&(Some("Cache"), "insert")));
        assert!(names.contains(&(None, "collect")));
        assert!(names.contains(&(None, "cond")));
        assert!(!names.iter().any(|(_, n)| *n == "if"));
    }

    #[test]
    fn total_contracts_require_reasons() {
        let src = "// analyze: total\nfn a() {}\n// analyze: total — bounded\nfn b() {}\n";
        let ws = ws_with("crates/core/src/x.rs", "core", src);
        assert!(ws.fns[0].total.is_none(), "a reasonless contract is inert");
        assert_eq!(ws.fns[1].total, Some((3, "bounded".to_string())));
    }
}
