//! The shared workspace model every analysis pass runs over.
//!
//! One walk of the source tree produces:
//!
//! * a [`SourceFile`] per `.rs` file — its lexed token stream (via the
//!   [`crate::lex`] lexer), its crate, its section
//!   (shipped `src/`, binary, tests, examples), its identifier index,
//!   and its analysis markers;
//! * a [`FnItem`] per function — name, `#[cfg(test)]`-ness, and the
//!   token span of its body;
//! * a [`PubItem`] per `pub` type/fn/const (for the dead-pub audit).
//!
//! The parser is item-level only: it tracks module / impl / trait /
//! `#[cfg(test)]` scopes and function boundaries, and treats function
//! bodies as token spans to be scanned, never as expression trees. That
//! is all the two passes need, and it keeps the parser small enough to be
//! obviously panic-free on arbitrary input.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::{lex, markers, Marker, TokKind};

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
    /// Directives of no known kind, by line, as written (see
    /// [`Marker`]).
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
}

/// One function (free or associated), test or shipped.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Inside a `#[cfg(test)]` scope (or carrying the attribute).
    pub in_test: bool,
    /// Token index range of the body in the owning file (half-open),
    /// `None` for bodyless signatures.
    pub body: Option<(usize, usize)>,
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
                    let is_bin =
                        section == Section::Src && f.components().any(|c| c.as_os_str() == "bin");
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
                let name =
                    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
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
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
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
        let unknown_directives = markers(&source)
            .into_iter()
            .map(|Marker { line, directive }| (line, directive))
            .collect();
        let file_idx = self.files.len();
        self.files.push(SourceFile {
            rel,
            crate_name: crate_name.clone(),
            section,
            source,
            toks,
            idents,
            unknown_directives,
        });
        parse_items(self, file_idx);
    }

    /// The file a function lives in.
    #[inline]
    pub(crate) fn file_of(&self, f: &FnItem) -> &SourceFile {
        &self.files[f.file]
    }

    /// Body token span of a function, empty when bodyless.
    pub(crate) fn body_toks<'a>(&'a self, f: &FnItem) -> &'a [OTok] {
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

/// Parser scopes: one per open brace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    /// Shipped code.
    Code,
    /// Inside `#[cfg(test)]`.
    Test,
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
                    stack.push(if pending_test || in_test { Scope::Test } else { Scope::Code });
                }
                k = i + 1;
                pending_pub = false;
                pending_test = false;
                continue;
            }
            "impl" | "trait" => {
                let is_trait = t == "trait";
                // Walk to the body, skipping generic groups; a trait's
                // name is the last identifier outside them.
                let mut i = k + 1;
                let mut angle = 0usize;
                let mut target = String::new();
                while i < n {
                    let u = text(i);
                    match u {
                        "<" => angle += 1,
                        ">" => angle = angle.saturating_sub(1),
                        "{" if angle == 0 => break,
                        ";" if angle == 0 => break,
                        "where" if angle == 0 => {
                            // Type is settled; scan on to the brace.
                            while i < n && text(i) != "{" && text(i) != ";" {
                                i += 1;
                            }
                            break;
                        }
                        _ => {
                            if angle == 0 && file.toks[i].kind == TokKind::Ident {
                                target = u.to_string();
                            }
                        }
                    }
                    i += 1;
                }
                if is_trait
                    && pending_pub
                    && !in_test
                    && section == Section::Src
                    && !target.is_empty()
                {
                    pubs.push(PubItem {
                        file: file_idx,
                        crate_name: crate_name.clone(),
                        name: target,
                        kind: PubKind::Trait,
                        line: line(k),
                        span: (k, i),
                    });
                }
                if i < n && text(i) == "{" {
                    stack.push(if pending_test || in_test { Scope::Test } else { Scope::Code });
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
                if !name.is_empty() {
                    if pending_pub && !in_test && section == Section::Src {
                        pubs.push(PubItem {
                            file: file_idx,
                            crate_name: crate_name.clone(),
                            name: name.clone(),
                            kind: PubKind::Fn,
                            line: fn_line,
                            span: (k, i),
                        });
                    }
                    fns.push(FnItem { file: file_idx, name, in_test, body });
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
                stack.push(if pending_test { Scope::Test } else { Scope::Code });
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
                k += 1;
            }
        }
    }

    ws.fns.extend(fns);
    ws.pub_items.extend(pubs);
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
    fn fns_and_impls_are_parsed() {
        let src = "\
pub struct Cache { slots: Vec<u64> }
impl Cache {
    #[inline]
    pub fn access(&mut self, line: u64) -> bool { self.probe(line) }
    fn probe(&self, line: u64) -> bool { self.slots.contains(&line) }
}
pub fn free_fn() {}
";
        let ws = ws_with("crates/cache/src/model.rs", "cache", src);
        let names: Vec<&str> = ws.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["access", "probe", "free_fn"]);
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
}
