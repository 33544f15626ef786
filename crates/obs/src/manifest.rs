//! Run manifests and wall-clock self-profiling.
//!
//! A manifest makes a run report self-describing: which tool and
//! version produced it, the full configuration echo, and every seed, so
//! a report found on disk months later can be reproduced exactly. The
//! manifest is deterministic; the wall-clock [`PhaseProfile`] is not
//! (by nature) and is therefore kept separate, so determinism tests can
//! compare reports that simply omit it.

use std::time::Instant;

use crate::json::Json;

/// A git-describe-style version string: the crate version, optionally
/// extended with a source revision from the `CSIM_GIT_DESCRIBE`
/// environment variable (set by release tooling; absent in hermetic
/// builds, where the suffix is a stable placeholder).
pub fn version_string(pkg_version: &str) -> String {
    match std::env::var("CSIM_GIT_DESCRIBE") {
        Ok(desc) if !desc.trim().is_empty() => format!("{pkg_version}+{}", desc.trim()),
        _ => format!("{pkg_version}+unreleased"),
    }
}

/// Everything needed to reproduce and attribute a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunManifest {
    /// Producing tool, e.g. `"csim"`.
    pub tool: String,
    /// [`version_string`] of the producing tool.
    pub version: String,
    /// One-line configuration summary (`SystemConfig::summary`).
    pub config_summary: String,
    /// Full configuration echo as ordered key/value pairs.
    pub config: Vec<(String, String)>,
    /// Every seed the run consumed, by name (workload, fault, ...).
    pub seeds: Vec<(String, u64)>,
}

impl RunManifest {
    /// The manifest as a JSON object (deterministic).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tool", Json::str(&self.tool)),
            ("version", Json::str(&self.version)),
            ("config_summary", Json::str(&self.config_summary)),
            (
                "config",
                Json::Obj(
                    self.config.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect(),
                ),
            ),
            (
                "seeds",
                Json::Obj(
                    self.seeds.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))).collect(),
                ),
            ),
        ])
    }
}

/// Wall-clock self-profile of a run's phases (build, warmup, measure,
/// export, ...). Milliseconds, monotonic clock; inherently
/// nondeterministic, so reports that must be byte-identical across
/// runs leave it out.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    phases: Vec<(String, f64)>,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` and records it as phase `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        #[expect(clippy::disallowed_methods, reason = "phase timings report host runtime to humans; they never feed simulation state")]
        let start = Instant::now();
        let out = f();
        self.push(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Records a phase measured externally, in milliseconds.
    pub fn push(&mut self, name: &str, millis: f64) {
        self.phases.push((name.to_string(), millis));
    }

    /// The recorded phases, in order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// Total wall-clock milliseconds across phases.
    pub fn total_millis(&self) -> f64 {
        self.phases.iter().map(|(_, ms)| ms).sum()
    }

    /// The profile as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, ms)| {
                            Json::obj([
                                ("name", Json::str(name)),
                                ("millis", Json::Float(*ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_millis", Json::Float(self.total_millis())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn manifest_serializes_deterministically() {
        let m = RunManifest {
            tool: "csim".into(),
            version: version_string("0.1.0"),
            config_summary: "8p \"all\"".into(),
            config: vec![("nodes".into(), "8".into()), ("l2".into(), "2M8w".into())],
            seeds: vec![("workload".into(), 42), ("fault".into(), 7)],
        };
        let a = m.to_json().to_string();
        let b = m.to_json().to_string();
        assert_eq!(a, b);
        validate(&a).unwrap();
        assert!(a.contains("\"workload\":42"));
        assert!(a.contains("\\\"all\\\""));
    }

    #[test]
    fn version_string_has_a_suffix_either_way() {
        let v = version_string("0.1.0");
        assert!(v.starts_with("0.1.0+"), "{v}");
    }

    #[test]
    fn profile_times_phases_and_serializes() {
        let mut p = PhaseProfile::new();
        let out = p.time("warmup", || 7);
        assert_eq!(out, 7);
        p.push("export", 1.5);
        assert_eq!(p.phases().len(), 2);
        assert!(p.total_millis() >= 1.5);
        let s = p.to_json().to_string();
        validate(&s).unwrap();
        assert!(s.contains("\"warmup\""));
    }
}
