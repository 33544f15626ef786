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

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

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
            "trace", "workload", "cache", "coherence", "check", "proc", "config", "fault",
            "stats", "obs", "prof",
        ],
    ),
    ("sweep", &["trace", "workload", "config", "core", "obs", "fault"]),
    ("analyze", &["obs"]),
    (
        "bench",
        &["cache", "coherence", "config", "core", "noc", "stats", "trace", "workload"],
    ),
];

/// Crates the architecture forbids the *simulation substrate* from
/// seeing: anything in this set appearing as a dependency of `cache`,
/// `coherence`, or `noc` is flagged even if someone also edits
/// [`ALLOWED_DEPS`], as a second tripwire.
const SUBSTRATE: &[&str] = &["cache", "coherence", "noc"];

/// Crates the substrate must never depend on.
const UPPER_LAYERS: &[&str] = &["core", "obs", "prof", "sweep", "analyze"];

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
    let deps = [dep("config", None, None, Some("cfg(unix)")), dep("noc", Some("build"), None, None)];
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
