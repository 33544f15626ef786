//! The architecture layering, checked on Cargo's own dependency graph.
//!
//! The workspace has an intended shape: leaf crates (`config`, `trace`,
//! `stats`) know nothing; the domain crates (`cache`, `coherence`,
//! `noc`, `workload`, `proc`, `fault`) sit on the leaves; `core`
//! composes the domain; `sweep`/`obs`/`prof`/`check` sit at the rim;
//! the root facade sees everything. Each crate below lists the crates
//! it is *allowed* to depend on.
//!
//! rustc refuses any `csim_*` path a crate's manifest does not declare,
//! so the declared dependencies bound what the code can reference. This
//! test reads them from `cargo metadata` and checks every member's
//! normal and build dependencies on `csim-*` packages against the table.
//! Dependencies count by package name, so a renamed or target-specific
//! entry counts too; dev-dependencies are test scaffolding and do not.
//! Every member crate needs a row, and the table itself must describe a
//! DAG, so nobody can "fix" a finding by introducing a cycle into it.
//!
//! The same metadata names every target's root source file. The root of
//! every `lib` and `bin` target of every package, the root facade
//! included, must carry `#![forbid(unsafe_code)]`, so rustc rejects
//! `unsafe` anywhere in shipped code.
//!
//! The indexing rule is clippy's: `cargo lint-shipped` denies
//! `clippy::indexing_slicing` and `clippy::string_slice`, so every
//! unchecked `v[i]`, `v[a..b]` or `s[a..b]` in shipped code is total
//! code or carries a reasoned `#[expect]`. The tooling
//! ([`TOOLING_CRATES`], [`TOOLING_FILES`]) never runs inside a
//! simulation process and allows both lints with a reason in its file
//! headers. No other shipped file (every `.rs` file under a package's
//! `src/`, modules included) may allow or expect them in its header,
//! and the alias must keep denying them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use oltp_chip_integration::obs::json::{parse, Json};

/// The allowed dependency table: `(crate, allowed deps)`, by package
/// name without its `csim-` prefix. The root facade package is not in
/// the table; it may depend on every crate.
const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("config", &[]),
    ("trace", &[]),
    ("stats", &[]),
    ("proc", &["config"]),
    ("cache", &["config", "trace"]),
    ("coherence", &["trace"]),
    ("workload", &["trace"]),
    ("noc", &["config", "trace"]),
    ("fault", &["trace", "noc"]),
    ("obs", &["proc", "fault", "trace"]),
    ("check", &["coherence", "trace"]),
    ("prof", &["trace", "proc", "obs", "stats"]),
    (
        "core",
        &[
            "trace",
            "workload",
            "cache",
            "coherence",
            "check",
            "proc",
            "config",
            "fault",
            "stats",
            "obs",
            "prof",
        ],
    ),
    ("sweep", &["trace", "workload", "config", "core", "obs", "fault"]),
    ("bench", &["cache", "coherence", "config", "core", "noc", "stats", "trace", "workload"]),
];

/// Crates the architecture forbids the *simulation substrate* from
/// seeing: anything in this set appearing as a dependency of `cache`,
/// `coherence`, or `noc` is flagged even if someone also edits
/// [`ALLOWED_DEPS`], as a second tripwire.
const SUBSTRATE: &[&str] = &["cache", "coherence", "noc"];

/// Crates the substrate must never depend on.
const UPPER_LAYERS: &[&str] = &["core", "obs", "prof", "sweep"];

/// The tooling crates, which never run inside a simulation process:
/// every `lib` and `bin` root of these lifts the indexing rule for the
/// whole crate.
const TOOLING_CRATES: &[&str] = &["bench"];

/// The tooling files of crates that also ship code into the simulator,
/// relative to the workspace root: the model checker's modules and its
/// binary. `check`'s sanitizer and spec run inside `csim --sanitize`, so
/// they are under the rule; so is every other file, a new crate or
/// module included, from its first line.
const TOOLING_FILES: &[&str] = &[
    "crates/check/src/bin/csim-check.rs",
    "crates/check/src/explore.rs",
    "crates/check/src/invariants.rs",
    "crates/check/src/model.rs",
];

/// The clippy lints that carry the indexing rule.
const INDEXING_LINTS: &[&str] = &["indexing_slicing", "string_slice"];

/// The lints `cargo lint-shipped` must deny besides the token rules:
/// the indexing rule, outer `#[allow]`s (which would lift it for a whole
/// item, where the header check below cannot see), and rustc's
/// `unreachable_pub`.
const ALIAS_DENIES: &[&str] = &[
    "clippy::indexing_slicing",
    "clippy::string_slice",
    "clippy::allow_attributes",
    "unreachable_pub",
];

/// Checks that the allowlist is acyclic. Returns a cycle description
/// on failure.
fn validate_table() -> Result<(), String> {
    let mut adj: BTreeMap<&str, &[&str]> = BTreeMap::new();
    for (c, deps) in ALLOWED_DEPS {
        adj.insert(c, deps);
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state: BTreeMap<&str, u8> = BTreeMap::new();
    fn visit<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, &'a [&'a str]>,
        state: &mut BTreeMap<&'a str, u8>,
        path: &mut Vec<&'a str>,
    ) -> Result<(), String> {
        match state.get(node) {
            Some(1) => {
                path.push(node);
                return Err(format!("allowlist cycle: {}", path.join(" -> ")));
            }
            Some(2) => return Ok(()),
            _ => {}
        }
        state.insert(node, 1);
        path.push(node);
        if let Some(deps) = adj.get(node) {
            for d in deps.iter() {
                visit(d, adj, state, path)?;
            }
        }
        path.pop();
        state.insert(node, 2);
        Ok(())
    }
    for (c, _) in ALLOWED_DEPS {
        visit(c, &adj, &mut state, &mut Vec::new())?;
    }
    Ok(())
}

/// What the check saw: the table rows of the members it checked, and
/// one message per breach.
#[derive(Default)]
struct Layering {
    members: BTreeSet<String>,
    breaches: Vec<String>,
}

/// A string field of a metadata object.
fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key).and_then(Json::as_str).ok_or_else(|| format!("no string `{key}` in {obj}"))
}

/// The `packages` array of a metadata document.
fn packages(meta: &Json) -> Result<&[Json], String> {
    meta.get("packages").and_then(Json::as_arr).ok_or_else(|| "no `packages` array".to_string())
}

/// Checks the members of a `cargo metadata --no-deps` document against
/// [`ALLOWED_DEPS`]. `Err` when the document lacks the fields read.
fn check(meta: &Json) -> Result<Layering, String> {
    let root = Path::new(field(meta, "workspace_root")?);
    let allowed: BTreeMap<&str, &[&str]> = ALLOWED_DEPS.iter().copied().collect();
    let mut out = Layering::default();
    for pkg in packages(meta)? {
        let name = field(pkg, "name")?;
        if Path::new(field(pkg, "manifest_path")?).parent() == Some(root) {
            continue;
        }
        let row = name.strip_prefix("csim-").and_then(|c| allowed.get_key_value(c));
        let Some((&from, deps_allowed)) = row else {
            out.breaches.push(format!("member `{name}` has no row in the architecture table"));
            continue;
        };
        out.members.insert(from.to_string());
        let deps = pkg.get("dependencies").and_then(Json::as_arr).ok_or("no `dependencies`")?;
        for dep in deps {
            if dep.get("kind").and_then(Json::as_str) == Some("dev") {
                continue;
            }
            let Some(to) = field(dep, "name")?.strip_prefix("csim-") else { continue };
            if SUBSTRATE.contains(&from) && UPPER_LAYERS.contains(&to) {
                out.breaches.push(format!(
                    "substrate crate `{from}` must not depend on upper layer `{to}`"
                ));
            } else if !deps_allowed.contains(&to) {
                let list =
                    if deps_allowed.is_empty() { "none".into() } else { deps_allowed.join(", ") };
                out.breaches.push(format!(
                    "crate `{from}` is not allowed to depend on `{to}` (allowed: {list})"
                ));
            }
        }
    }
    Ok(out)
}

/// The inner attributes (`#![...]`) in the header of `source`, each
/// without its `#![` and `]`, its whitespace dropped and every
/// non-empty string literal spelled `"s"`.
///
/// rustc takes a file's inner attributes only before its first item, so
/// the reader skips blank lines and comments, collects the attributes
/// (an attribute may span lines) and stops at anything else: a `#![..]`
/// spelled later, or inside a string or a comment, is never read.
fn header_attrs(source: &str) -> Vec<String> {
    let mut attrs = Vec::new();
    let mut rest = source.trim_start();
    loop {
        if let Some(after) = rest.strip_prefix("//") {
            rest = after.split_once('\n').map_or("", |(_, next)| next);
        } else if let Some(after) = rest.strip_prefix("/*") {
            rest = after.split_once("*/").map_or("", |(_, next)| next);
        } else if let Some(after) = rest.strip_prefix("#![") {
            let (attr, next) = attr_body(after);
            attrs.push(attr);
            rest = next;
        } else {
            return attrs;
        }
        rest = rest.trim_start();
    }
}

/// The body of one inner attribute whose `#![` opened just before
/// `text`, read up to its matching `]` (brackets nest, and a bracket in
/// a string does not count), and the text after it.
fn attr_body(text: &str) -> (String, &str) {
    let mut body = String::new();
    let mut depth = 1usize;
    let mut chars = text.char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return (body, text.get(at + 1..).unwrap_or_default());
                }
            }
            '"' => {
                let mut empty = true;
                while let Some((_, s)) = chars.next() {
                    match s {
                        '"' => break,
                        '\\' => _ = chars.next(),
                        _ => {}
                    }
                    empty = false;
                }
                body.push_str(if empty { "\"\"" } else { "\"s\"" });
                continue;
            }
            _ => {}
        }
        if !c.is_whitespace() {
            body.push(c);
        }
    }
    (body, "")
}

/// True when `attrs` hold the inner attribute `#![forbid(unsafe_code)]`.
fn forbids_unsafe(attrs: &[String]) -> bool {
    attrs.iter().any(|a| a == "forbid(unsafe_code)")
}

/// The attributes among `attrs` that name one of the [`INDEXING_LINTS`]:
/// each attribute's name (`allow`, `expect`, ...) and whether it states
/// a non-empty `reason`.
fn indexing_attrs(attrs: &[String]) -> Vec<(String, bool)> {
    let mut found = Vec::new();
    for attr in attrs {
        let parts: Vec<&str> = attr.split(['(', ')', ',']).collect();
        let names_lint = parts
            .iter()
            .any(|p| p.strip_prefix("clippy::").is_some_and(|l| INDEXING_LINTS.contains(&l)));
        if names_lint {
            let name = parts.first().copied().unwrap_or_default();
            found.push((name.to_string(), parts.contains(&"reason=\"s\"")));
        }
    }
    found
}

/// One shipped source file and what its header says.
#[derive(Debug, PartialEq)]
struct Header {
    /// The package's name without its `csim-` prefix (the facade's
    /// name as is).
    package: String,
    /// Relative to the workspace root.
    path: String,
    /// The root of a `lib` or `bin` target.
    root: bool,
    forbids_unsafe: bool,
    /// `(attribute, reasoned)` per header attribute naming an indexing
    /// lint.
    indexing: Vec<(String, bool)>,
}

/// The header of every shipped file of every package in `meta`, the root
/// facade included: each `.rs` file under a package's `src/`, and each
/// `lib` and `bin` target root. `sources` maps each such file's path to
/// its text; a root missing from it is an error.
fn shipped_headers(meta: &Json, sources: &BTreeMap<String, String>) -> Result<Vec<Header>, String> {
    let ws = Path::new(field(meta, "workspace_root")?);
    let mut headers = Vec::new();
    for pkg in packages(meta)? {
        let name = field(pkg, "name")?;
        let targets = pkg.get("targets").and_then(Json::as_arr).ok_or("no `targets` array")?;
        let mut roots = BTreeSet::new();
        for target in targets {
            let kinds = target.get("kind").and_then(Json::as_arr).ok_or("no target `kind`")?;
            if kinds.iter().any(|k| matches!(k.as_str(), Some("lib" | "bin"))) {
                roots.insert(field(target, "src_path")?);
            }
        }
        let manifest = Path::new(field(pkg, "manifest_path")?);
        let src = manifest.parent().ok_or("a manifest path without a directory")?.join("src");
        let mut files: BTreeSet<&str> =
            sources.keys().map(String::as_str).filter(|f| Path::new(f).starts_with(&src)).collect();
        files.extend(&roots);
        for path in files {
            let source = sources.get(path).ok_or_else(|| format!("{path} was not read"))?;
            let attrs = header_attrs(source);
            let rel =
                Path::new(path).strip_prefix(ws).map_err(|_| format!("{path} outside {ws:?}"))?;
            headers.push(Header {
                package: name.strip_prefix("csim-").unwrap_or(name).to_string(),
                path: rel.to_string_lossy().into_owned(),
                root: roots.contains(path),
                forbids_unsafe: forbids_unsafe(&attrs),
                indexing: indexing_attrs(&attrs),
            });
        }
    }
    Ok(headers)
}

/// One message per file that breaks the indexing scope: a tooling root
/// or tooling file without exactly one reasoned `allow` naming the
/// indexing lints in its header (clippy itself fails the run if it
/// misses one the file needs), or a file outside the tooling that allows
/// or expects either in its header.
fn indexing_scope_breaches(headers: &[Header]) -> Vec<String> {
    let mut breaches = Vec::new();
    for h in headers {
        let tooling_crate = TOOLING_CRATES.contains(&h.package.as_str());
        if (tooling_crate && h.root) || TOOLING_FILES.contains(&h.path.as_str()) {
            if h.indexing != [("allow".to_string(), true)] {
                breaches.push(format!(
                    "{}: tooling needs one reasoned header \
                     `#![allow(clippy::indexing_slicing, clippy::string_slice, reason = \"..\")]`, \
                     found {:?}",
                    h.path, h.indexing
                ));
            }
        } else if !tooling_crate && !h.indexing.is_empty() {
            breaches.push(format!(
                "{}: only the tooling ({TOOLING_CRATES:?}, {TOOLING_FILES:?}) may lift the \
                 indexing rule in a file header; escape a site with a reasoned `#[expect]` \
                 instead (found {:?})",
                h.path, h.indexing
            ));
        }
    }
    breaches
}

/// The arguments of the `lint-shipped` alias in a `.cargo/config.toml`
/// text, comments dropped.
fn lint_shipped_args(config: &str) -> Option<Vec<&str>> {
    let start = config.find("lint-shipped = [")? + "lint-shipped = [".len();
    let body = config.get(start..)?;
    let body = body.get(..body.find(']')?)?;
    let args = body
        .lines()
        .map(|l| l.split('#').next().unwrap_or_default())
        .flat_map(|l| l.split(','))
        .map(|a| a.trim().trim_matches('"'))
        .filter(|a| !a.is_empty())
        .collect();
    Some(args)
}

/// `cargo metadata` of this workspace, parsed. Panics with the command's
/// stderr when it cannot run or its output does not parse: the check
/// must never pass on a document it did not read.
fn workspace_metadata() -> Json {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args(["metadata", "--format-version", "1", "--no-deps", "--offline", "--manifest-path"])
        .arg(manifest)
        .output()
        .unwrap_or_else(|e| panic!("cannot run `{} metadata`: {e}", env!("CARGO")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "`cargo metadata` failed ({}):\n{stderr}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    parse(&text).unwrap_or_else(|e| panic!("`cargo metadata` output does not parse: {e}\n{stderr}"))
}

#[test]
fn the_workspace_follows_the_architecture_table() {
    let seen = check(&workspace_metadata()).unwrap_or_else(|e| panic!("metadata: {e}"));
    assert!(seen.breaches.is_empty(), "layering breaches:\n{}", seen.breaches.join("\n"));
    let rows: BTreeSet<String> = ALLOWED_DEPS.iter().map(|(c, _)| c.to_string()).collect();
    assert_eq!(seen.members, rows, "every table row must name a checked workspace member");
}

#[test]
fn every_lib_and_bin_root_forbids_unsafe_code() {
    let headers = workspace_headers();
    let roots: Vec<&Header> = headers.iter().filter(|h| h.root).collect();
    let missing: Vec<&str> =
        roots.iter().filter(|r| !r.forbids_unsafe).map(|r| r.path.as_str()).collect();
    assert!(missing.is_empty(), "roots without #![forbid(unsafe_code)]:\n{}", missing.join("\n"));
    // A lib per member, the facade's lib and its `csim` binary at least:
    // the walk saw the real tree.
    assert!(roots.len() > ALLOWED_DEPS.len() + 1, "only {} lib and bin roots", roots.len());
    assert!(roots.iter().any(|r| r.path == "src/bin/csim.rs"), "{roots:?}");
}

/// Every `.rs` file under `dir`, recursively, into `out` by path.
fn read_rs_files(dir: &Path, out: &mut BTreeMap<String, String>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap_or_else(|e| panic!("{}: {e}", dir.display())).path();
        if path.is_dir() {
            read_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.insert(path.to_string_lossy().into_owned(), text);
        }
    }
}

/// The header of every shipped file of this workspace.
fn workspace_headers() -> Vec<Header> {
    let meta = workspace_metadata();
    let mut sources = BTreeMap::new();
    for pkg in packages(&meta).unwrap_or_else(|e| panic!("{e}")) {
        let manifest = Path::new(field(pkg, "manifest_path").unwrap_or_else(|e| panic!("{e}")));
        read_rs_files(&manifest.with_file_name("src"), &mut sources);
    }
    shipped_headers(&meta, &sources).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn only_the_tooling_allows_unchecked_indexing() {
    let headers = workspace_headers();
    let breaches = indexing_scope_breaches(&headers);
    assert!(breaches.is_empty(), "indexing scope breaches:\n{}", breaches.join("\n"));
    // The scope check saw every tooling crate's roots and every tooling
    // file, and the modules beside them: the sanitizer is under the rule.
    let seen = |path: &str| headers.iter().any(|h| h.path == path);
    for c in TOOLING_CRATES {
        assert!(headers.iter().any(|h| h.package == *c && h.root), "no root of `{c}`");
    }
    for f in TOOLING_FILES.iter().chain(&["crates/check/src/sanitizer.rs"]) {
        assert!(seen(f), "{f} was not read: {headers:?}");
    }
    assert!(headers.iter().filter(|h| !h.root).count() > headers.len() / 2, "{headers:?}");
}

#[test]
fn the_lint_shipped_alias_denies_the_indexing_lints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.cargo/config.toml");
    let config = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let args = lint_shipped_args(&config).unwrap_or_else(|| panic!("no lint-shipped alias"));
    for lint in ALIAS_DENIES {
        assert!(
            args.windows(2).any(|w| w[0] == "-D" && w[1] == *lint),
            "`cargo lint-shipped` must pass `-D {lint}`: {args:?}"
        );
    }
}

#[test]
fn table_is_a_dag() {
    validate_table().expect("allowlist must stay acyclic");
}

#[test]
fn table_names_only_crates_in_the_table() {
    let names: BTreeSet<&str> = ALLOWED_DEPS.iter().map(|(c, _)| *c).collect();
    for (c, deps) in ALLOWED_DEPS {
        for d in deps.iter() {
            assert!(names.contains(d), "{c} allows unknown crate {d}");
        }
    }
}

/// A `cargo metadata` document of one member package `csim-{from}`
/// with the given dependency objects, beside the root facade.
fn member(from: &str, deps: &[String]) -> Json {
    let doc = format!(
        r#"{{"workspace_root":"/ws","packages":[
            {{"name":"facade","manifest_path":"/ws/Cargo.toml","dependencies":[{facade}]}},
            {{"name":"csim-{from}","manifest_path":"/ws/crates/{from}/Cargo.toml","dependencies":[{deps}]}}
        ]}}"#,
        facade = dep("core", None, None, None),
        deps = deps.join(","),
    );
    parse(&doc).expect("synthetic metadata parses")
}

/// One dependency object: package `csim-{name}`, with an optional
/// kind, rename and target as `cargo metadata` spells them.
fn dep(name: &str, kind: Option<&str>, rename: Option<&str>, target: Option<&str>) -> String {
    let s = |v: Option<&str>| v.map_or("null".to_string(), |v| format!("\"{v}\""));
    format!(
        r#"{{"name":"csim-{name}","kind":{},"rename":{},"target":{}}}"#,
        s(kind),
        s(rename),
        s(target)
    )
}

fn breaches(meta: &Json) -> Vec<String> {
    check(meta).expect("synthetic metadata has every field").breaches
}

#[test]
fn a_substrate_edge_to_an_upper_layer_is_flagged() {
    // The facade's own dependency on core is not checked.
    let deps = [dep("config", None, None, None), dep("core", None, None, None)];
    let b = breaches(&member("cache", &deps));
    assert_eq!(b, ["substrate crate `cache` must not depend on upper layer `core`"]);
}

#[test]
fn an_edge_outside_the_allowlist_is_flagged() {
    let b = breaches(&member("prof", &[dep("core", None, None, None)]));
    let allowed = "(allowed: trace, proc, obs, stats)";
    assert_eq!(b, [format!("crate `prof` is not allowed to depend on `core` {allowed}")]);
}

#[test]
fn a_member_missing_from_the_table_is_flagged() {
    let b = breaches(&member("gpu", &[dep("trace", None, None, None)]));
    assert_eq!(b, ["member `csim-gpu` has no row in the architecture table"]);
}

#[test]
fn dev_dependencies_are_ignored() {
    let meta = member("cache", &[dep("core", Some("dev"), None, None)]);
    assert_eq!(breaches(&meta), Vec::<String>::new());
    assert_eq!(check(&meta).expect("valid").members, BTreeSet::from(["cache".to_string()]));
}

#[test]
fn a_renamed_dependency_counts_by_its_package_name() {
    let b = breaches(&member("cache", &[dep("core", None, Some("engine"), None)]));
    assert_eq!(b, ["substrate crate `cache` must not depend on upper layer `core`"]);
}

#[test]
fn target_specific_and_build_dependencies_count() {
    let deps =
        [dep("config", None, None, Some("cfg(unix)")), dep("noc", Some("build"), None, None)];
    assert_eq!(
        breaches(&member("coherence", &deps)),
        [
            "crate `coherence` is not allowed to depend on `config` (allowed: trace)",
            "crate `coherence` is not allowed to depend on `noc` (allowed: trace)",
        ]
    );
}

#[test]
fn a_document_without_packages_is_an_error() {
    let meta = parse(r#"{"workspace_root":"/ws"}"#).expect("parses");
    assert!(check(&meta).is_err());
}

/// The headers of `files` (`(path, text)`) as shipped files of the
/// packages in the metadata document `doc`.
fn headers_of(doc: &str, files: &[(&str, &str)]) -> Vec<Header> {
    let sources = files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    shipped_headers(&parse(doc).expect("parses"), &sources).expect("every field present")
}

#[test]
fn headers_are_read_from_src_and_only_lib_and_bin_targets_are_roots() {
    let doc = r#"{"workspace_root":"/ws","packages":[
        {"name":"facade","manifest_path":"/ws/Cargo.toml","targets":[
            {"kind":["bin"],"src_path":"/ws/src/bin/tool.rs"},
            {"kind":["test"],"src_path":"/ws/tests/t.rs"}]},
        {"name":"csim-cache","manifest_path":"/ws/crates/cache/Cargo.toml","targets":[
            {"kind":["lib"],"src_path":"/ws/crates/cache/src/lib.rs"},
            {"kind":["bench"],"src_path":"/ws/crates/cache/benches/b.rs"}]}
    ]}"#;
    let files = [
        (
            "/ws/src/bin/tool.rs",
            "// #![forbid(unsafe_code)]\nconst S: &str = \"#![forbid(unsafe_code)]\";\nfn main() {}\n",
        ),
        ("/ws/crates/cache/src/lib.rs", "//! Docs.\n\n#![forbid(unsafe_code)]\nmod model;\n"),
        ("/ws/crates/cache/src/model.rs", "//! A module.\n#![forbid(unsafe_code)]\n"),
        ("/ws/crates/cache/benches/b.rs", "fn main() {}\n"),
        ("/ws/tests/t.rs", "#[test]\nfn t() {}\n"),
    ];
    let seen: Vec<(String, String, bool, bool)> = headers_of(doc, &files)
        .into_iter()
        .map(|h| (h.package, h.path, h.root, h.forbids_unsafe))
        .collect();
    let want = [
        ("facade", "src/bin/tool.rs", true, false),
        ("cache", "crates/cache/src/lib.rs", true, true),
        ("cache", "crates/cache/src/model.rs", false, true),
    ];
    let want: Vec<(String, String, bool, bool)> =
        want.iter().map(|&(p, f, r, u)| (p.into(), f.into(), r, u)).collect();
    assert_eq!(seen, want);
}

/// A synthetic header of the file `path` of package `package`.
fn header_of(package: &str, path: &str, root: bool, source: &str) -> Header {
    let attrs = header_attrs(source);
    Header {
        package: package.to_string(),
        path: path.to_string(),
        root,
        forbids_unsafe: forbids_unsafe(&attrs),
        indexing: indexing_attrs(&attrs),
    }
}

#[test]
fn header_indexing_attributes_are_read_before_the_first_item() {
    let allow = "#![allow(clippy::indexing_slicing, clippy::string_slice, reason = \"tooling\")]";
    let cases = [
        (allow.to_string(), vec![("allow", true)]),
        ("#![allow(clippy::indexing_slicing)]".into(), vec![("allow", false)]),
        ("#![allow(clippy::string_slice, reason = \"\")]".into(), vec![("allow", false)]),
        ("#![expect(clippy::indexing_slicing, reason = \"r\")]".into(), vec![("expect", true)]),
        ("#![forbid(unsafe_code)]\n#![warn(clippy::string_slice)]".into(), vec![("warn", false)]),
        // Spread over lines, after doc comments, with a bracket in its
        // reason.
        (
            "//! Docs.\n\n#![allow(\n    clippy::indexing_slicing,\n    reason = \"a [b]\"\n)]\n"
                .into(),
            vec![("allow", true)],
        ),
        // A comment or a string spelling it, an outer attribute, an
        // inner attribute after the first item, and an inner attribute
        // of another lint are not header allowances.
        (format!("// {allow}\nconst S: &str = \"{allow}\";"), vec![]),
        ("#[expect(clippy::indexing_slicing, reason = \"r\")]\nfn f() {}".into(), vec![]),
        (format!("use std::fmt;\n{allow}"), vec![]),
        ("#![allow(clippy::unwrap_used, reason = \"r\")]".into(), vec![]),
    ];
    for (source, want) in cases {
        let want: Vec<(String, bool)> = want.into_iter().map(|(a, r)| (a.to_string(), r)).collect();
        assert_eq!(indexing_attrs(&header_attrs(&source)), want, "{source}");
    }
}

#[test]
fn an_indexing_allowance_outside_tooling_is_flagged() {
    let allow = "#![allow(clippy::indexing_slicing, clippy::string_slice, reason = \"tooling\")]";
    let headers = [
        header_of("bench", "crates/bench/src/lib.rs", true, allow),
        header_of("core", "crates/core/src/lib.rs", true, allow),
        header_of("bench", "crates/bench/src/bin/x.rs", true, "#![allow(clippy::unwrap_used)]"),
        header_of("check", "crates/check/src/lib.rs", true, allow),
        header_of("check", "crates/check/src/model.rs", false, allow),
        header_of("check", "crates/check/src/explore.rs", false, "#![allow(clippy::string_slice)]"),
        header_of("bench", "crates/bench/src/reference.rs", false, ""),
        header_of("gpu", "crates/gpu/src/lib.rs", true, "#![forbid(unsafe_code)]"),
    ];
    let breaches = indexing_scope_breaches(&headers);
    let paths: Vec<&str> = breaches.iter().filter_map(|b| b.split(':').next()).collect();
    assert_eq!(
        paths,
        [
            "crates/core/src/lib.rs",
            "crates/bench/src/bin/x.rs",
            "crates/check/src/lib.rs",
            "crates/check/src/explore.rs",
        ],
        "{breaches:?}"
    );
}

#[test]
fn an_indexing_allowance_in_a_module_is_flagged() {
    // A module's header lifts the rule for that module alone, so a
    // module outside the tooling is flagged like a root.
    let doc = r#"{"workspace_root":"/ws","packages":[
        {"name":"csim-stats","manifest_path":"/ws/crates/stats/Cargo.toml","targets":[
            {"kind":["lib"],"src_path":"/ws/crates/stats/src/lib.rs"}]},
        {"name":"csim-check","manifest_path":"/ws/crates/check/Cargo.toml","targets":[
            {"kind":["lib"],"src_path":"/ws/crates/check/src/lib.rs"}]}
    ]}"#;
    let allow = "//! A module.\n\n#![allow(clippy::indexing_slicing, reason = \"probe\")]\n\
                 fn f(v: &[u64]) -> u64 { v[3] }\n";
    let files = [
        ("/ws/crates/stats/src/lib.rs", "#![forbid(unsafe_code)]\nmod table;\n"),
        ("/ws/crates/stats/src/table.rs", allow),
        ("/ws/crates/check/src/lib.rs", "#![forbid(unsafe_code)]\nmod sanitizer;\n"),
        ("/ws/crates/check/src/sanitizer.rs", allow),
        ("/ws/crates/check/src/model.rs", allow),
    ];
    let breaches = indexing_scope_breaches(&headers_of(doc, &files));
    let paths: Vec<&str> = breaches.iter().filter_map(|b| b.split(':').next()).collect();
    assert_eq!(
        paths,
        ["crates/stats/src/table.rs", "crates/check/src/sanitizer.rs"],
        "{breaches:?}"
    );
}

#[test]
fn the_alias_args_are_read_without_comments() {
    let config = "[alias]\nlint-shipped = [\n    \"clippy\", \"--\",\n    # \"-D\", \"clippy::string_slice\",\n    \"-D\", \"clippy::indexing_slicing\",\n]\nother = [\"x\"]\n";
    assert_eq!(
        lint_shipped_args(config),
        Some(vec!["clippy", "--", "-D", "clippy::indexing_slicing"])
    );
    assert_eq!(lint_shipped_args("[alias]\n"), None);
}
