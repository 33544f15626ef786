//! The architecture layering, checked on Cargo's own dependency graph.
//!
//! The workspace has an intended shape: leaf crates (`config`, `trace`,
//! `stats`) know nothing; the domain crates (`cache`, `coherence`,
//! `noc`, `workload`, `proc`, `fault`) sit on the leaves; `core`
//! composes the domain; `sweep`/`obs`/`prof`/`check`/`analyze` sit at
//! the rim; the root facade sees everything. Each crate below lists the
//! crates it is *allowed* to depend on.
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
//! code or carries a reasoned `#[expect]`. The tooling crates
//! ([`TOOLING_CRATES`]) never run inside a simulation process and allow
//! both lints with a reason at the root of every `lib` and `bin` target;
//! no other root may allow or expect them at crate level, and the alias
//! must keep denying them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use csim_analyze::lex::{lex, TokKind};
use csim_obs::json::{parse, Json};

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
    ("analyze", &["obs"]),
    ("bench", &["cache", "coherence", "config", "core", "noc", "stats", "trace", "workload"]),
];

/// Crates the architecture forbids the *simulation substrate* from
/// seeing: anything in this set appearing as a dependency of `cache`,
/// `coherence`, or `noc` is flagged even if someone also edits
/// [`ALLOWED_DEPS`], as a second tripwire.
const SUBSTRATE: &[&str] = &["cache", "coherence", "noc"];

/// Crates the substrate must never depend on.
const UPPER_LAYERS: &[&str] = &["core", "obs", "prof", "sweep", "analyze"];

/// The tooling crates, which never run inside a simulation process: the
/// only crates whose roots allow unchecked indexing. Every other crate,
/// a new one included, is under the rule from its first line.
const TOOLING_CRATES: &[&str] = &["analyze", "check", "bench"];

/// The clippy lints that carry the indexing rule.
const INDEXING_LINTS: &[&str] = &["indexing_slicing", "string_slice"];

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

/// Checks the members of a `cargo metadata --no-deps` document against
/// [`ALLOWED_DEPS`]. `Err` when the document lacks the fields read.
fn check(meta: &Json) -> Result<Layering, String> {
    let root = Path::new(field(meta, "workspace_root")?);
    let packages = meta.get("packages").and_then(Json::as_arr).ok_or("no `packages` array")?;
    let allowed: BTreeMap<&str, &[&str]> = ALLOWED_DEPS.iter().copied().collect();
    let mut out = Layering::default();
    for pkg in packages {
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

/// The significant tokens of `source`: comments and whitespace dropped,
/// so a comment spelling an attribute does not count, and a string
/// literal stays one token.
fn code_tokens(source: &str) -> Vec<&str> {
    lex(source)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::Ws | TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.text)
        .collect()
}

/// True when `toks` hold the inner attribute `#![forbid(unsafe_code)]`.
fn forbids_unsafe(toks: &[&str]) -> bool {
    const ATTR: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    toks.windows(ATTR.len()).any(|w| w == ATTR)
}

/// The inner attributes (`#![...]`) among `toks` that name one of the
/// [`INDEXING_LINTS`]: each attribute's name (`allow`, `expect`, ...)
/// and whether it states a non-empty `reason`.
fn indexing_attrs(toks: &[&str]) -> Vec<(String, bool)> {
    let mut attrs = Vec::new();
    let mut rest = toks;
    while let Some(at) = rest.windows(3).position(|w| w == ["#", "!", "["]) {
        let body = rest.get(at + 3..).unwrap_or_default();
        let mut depth = 1usize;
        let len = body
            .iter()
            .position(|t| {
                match *t {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .unwrap_or(body.len());
        let attr = body.get(..len).unwrap_or(body);
        // The lexer yields one token per punctuation character.
        let names_lint = attr
            .windows(4)
            .any(|w| w[..3] == ["clippy", ":", ":"] && INDEXING_LINTS.contains(&w[3]));
        if names_lint {
            let reasoned =
                attr.windows(3).any(|w| w[0] == "reason" && w[1] == "=" && w[2].len() > 2);
            attrs.push((attr.first().copied().unwrap_or_default().to_string(), reasoned));
        }
        rest = body.get(len..).unwrap_or_default();
    }
    attrs
}

/// The root source file of one `lib` or `bin` target, and what its
/// crate-level attributes say.
#[derive(Debug, PartialEq)]
struct Root {
    /// The package's name without its `csim-` prefix (the facade's
    /// name as is).
    package: String,
    path: String,
    forbids_unsafe: bool,
    /// `(attribute, reasoned)` per crate-level attribute naming an
    /// indexing lint.
    indexing: Vec<(String, bool)>,
}

/// The root of every `lib` and `bin` target of every package in `meta`,
/// the root facade included. `read` loads a root's text.
fn target_roots(
    meta: &Json,
    read: impl Fn(&str) -> Result<String, String>,
) -> Result<Vec<Root>, String> {
    let packages = meta.get("packages").and_then(Json::as_arr).ok_or("no `packages` array")?;
    let mut roots = Vec::new();
    for pkg in packages {
        let name = field(pkg, "name")?;
        let targets = pkg.get("targets").and_then(Json::as_arr).ok_or("no `targets` array")?;
        for target in targets {
            let kinds = target.get("kind").and_then(Json::as_arr).ok_or("no target `kind`")?;
            if kinds.iter().any(|k| matches!(k.as_str(), Some("lib" | "bin"))) {
                let path = field(target, "src_path")?;
                let source = read(path)?;
                let toks = code_tokens(&source);
                roots.push(Root {
                    package: name.strip_prefix("csim-").unwrap_or(name).to_string(),
                    path: path.to_string(),
                    forbids_unsafe: forbids_unsafe(&toks),
                    indexing: indexing_attrs(&toks),
                });
            }
        }
    }
    Ok(roots)
}

/// One message per root that breaks the indexing scope: a tooling root
/// without exactly one reasoned crate-level `allow` naming the indexing
/// lints (clippy itself fails the run if it misses one the root needs),
/// or any other root that allows or expects either at crate level.
fn indexing_scope_breaches(roots: &[Root]) -> Vec<String> {
    let mut breaches = Vec::new();
    for root in roots {
        if TOOLING_CRATES.contains(&root.package.as_str()) {
            if root.indexing != [("allow".to_string(), true)] {
                breaches.push(format!(
                    "{}: a tooling root needs one reasoned crate-level \
                     `#![allow(clippy::indexing_slicing, clippy::string_slice, reason = \"..\")]`, \
                     found {:?}",
                    root.path, root.indexing
                ));
            }
        } else if !root.indexing.is_empty() {
            breaches.push(format!(
                "{}: only the tooling crates {TOOLING_CRATES:?} may lift the indexing rule at \
                 crate level; escape a site with a reasoned `#[expect]` instead (found {:?})",
                root.path, root.indexing
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
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../Cargo.toml");
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
    let roots = workspace_roots();
    let missing: Vec<&str> =
        roots.iter().filter(|r| !r.forbids_unsafe).map(|r| r.path.as_str()).collect();
    assert!(missing.is_empty(), "roots without #![forbid(unsafe_code)]:\n{}", missing.join("\n"));
    // A lib per member, the facade's lib and its `csim` binary at least:
    // the walk saw the real tree.
    assert!(roots.len() > ALLOWED_DEPS.len() + 1, "only {} lib and bin roots", roots.len());
    assert!(roots.iter().any(|r| r.path.ends_with("src/bin/csim.rs")), "{roots:?}");
}

/// Every `lib` and `bin` root of this workspace.
fn workspace_roots() -> Vec<Root> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    target_roots(&workspace_metadata(), read).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn only_the_tooling_roots_allow_unchecked_indexing() {
    let roots = workspace_roots();
    let breaches = indexing_scope_breaches(&roots);
    assert!(breaches.is_empty(), "indexing scope breaches:\n{}", breaches.join("\n"));
    // Each tooling crate has a lib root, and the bench and check binaries
    // are roots too: the scope check saw them.
    for c in TOOLING_CRATES {
        assert!(roots.iter().any(|r| r.package == *c), "no root of `{c}` in {roots:?}");
    }
    assert!(roots.iter().filter(|r| TOOLING_CRATES.contains(&r.package.as_str())).count() > 3);
}

#[test]
fn the_lint_shipped_alias_denies_the_indexing_lints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.cargo/config.toml");
    let config = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let args = lint_shipped_args(&config).unwrap_or_else(|| panic!("no lint-shipped alias"));
    for lint in INDEXING_LINTS {
        let lint = format!("clippy::{lint}");
        assert!(
            args.windows(2).any(|w| w[0] == "-D" && w[1] == lint),
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

#[test]
fn roots_are_read_as_tokens_and_only_lib_and_bin_targets_count() {
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
        ("/ws/crates/cache/src/lib.rs", "//! Docs.\n\n#![forbid(unsafe_code)]\n"),
    ];
    let read = |p: &str| {
        files.iter().find(|(f, _)| *f == p).map(|(_, s)| s.to_string()).ok_or(format!("read {p}"))
    };
    let roots = target_roots(&parse(doc).expect("parses"), read).expect("every field present");
    let seen: Vec<(&str, &str, bool)> =
        roots.iter().map(|r| (r.package.as_str(), r.path.as_str(), r.forbids_unsafe)).collect();
    assert_eq!(
        seen,
        [("facade", "/ws/src/bin/tool.rs", false), ("cache", "/ws/crates/cache/src/lib.rs", true)]
    );
}

/// A synthetic root of package `package` with the given source.
fn root_of(package: &str, source: &str) -> Root {
    let toks = code_tokens(source);
    Root {
        package: package.to_string(),
        path: format!("/ws/crates/{package}/src/lib.rs"),
        forbids_unsafe: forbids_unsafe(&toks),
        indexing: indexing_attrs(&toks),
    }
}

#[test]
fn crate_level_indexing_attributes_are_read_as_tokens() {
    let allow = "#![allow(clippy::indexing_slicing, clippy::string_slice, reason = \"tooling\")]";
    let cases = [
        (allow.to_string(), vec![("allow", true)]),
        ("#![allow(clippy::indexing_slicing)]".into(), vec![("allow", false)]),
        ("#![allow(clippy::string_slice, reason = \"\")]".into(), vec![("allow", false)]),
        ("#![expect(clippy::indexing_slicing, reason = \"r\")]".into(), vec![("expect", true)]),
        ("#![forbid(unsafe_code)]\n#![warn(clippy::string_slice)]".into(), vec![("warn", false)]),
        // A comment or a string spelling it, an outer attribute, and an
        // inner attribute of another lint are not crate-level allowances.
        (format!("// {allow}\nconst S: &str = \"{allow}\";"), vec![]),
        ("#[expect(clippy::indexing_slicing, reason = \"r\")]\nfn f() {}".into(), vec![]),
        ("#![allow(clippy::unwrap_used, reason = \"r\")]".into(), vec![]),
    ];
    for (source, want) in cases {
        let want: Vec<(String, bool)> = want.into_iter().map(|(a, r)| (a.to_string(), r)).collect();
        assert_eq!(indexing_attrs(&code_tokens(&source)), want, "{source}");
    }
}

#[test]
fn an_indexing_allowance_outside_tooling_is_flagged() {
    let allow = "#![allow(clippy::indexing_slicing, clippy::string_slice, reason = \"tooling\")]";
    let roots = [
        root_of("analyze", allow),
        root_of("core", allow),
        root_of("bench", "#![allow(clippy::unwrap_used, reason = \"bench\")]"),
        root_of("check", "#![allow(clippy::indexing_slicing)]"),
        root_of("gpu", "#![forbid(unsafe_code)]"),
    ];
    let breaches = indexing_scope_breaches(&roots);
    let paths: Vec<&str> = breaches.iter().filter_map(|b| b.split(':').next()).collect();
    assert_eq!(
        paths,
        [
            "/ws/crates/core/src/lib.rs",
            "/ws/crates/bench/src/lib.rs",
            "/ws/crates/check/src/lib.rs"
        ],
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
