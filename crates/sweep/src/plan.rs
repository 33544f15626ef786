//! Sweep plans: the declarative description of a parameter grid.

use std::error::Error;
use std::fmt;

use csim_config::{CacheGeometry, IntegrationLevel, LINE_SIZE};
use csim_fault::toml::{self, TomlError};
use csim_trace::SimRng;
use csim_workload::OltpParams;

/// One L2 geometry of the grid: size, associativity, and the spec string
/// it was written as (used verbatim in run labels).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L2Spec {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity (a power of two).
    pub assoc: u32,
    /// The `2M8w`-style spec string.
    pub label: String,
}

impl L2Spec {
    /// Parses a cache-geometry spec of the form `<size>M<assoc>w`, e.g.
    /// `8M1w`, `2M8w` or `1.25M4w`: the language of a plan's `l2` axis
    /// and of the `csim --l2` flag.
    ///
    /// The size must come to a whole number of sets of 64-byte lines
    /// (the check [`CacheGeometry::new`] makes), so a parsed spec always
    /// builds a cache.
    ///
    /// # Errors
    ///
    /// A human-readable message naming what is wrong with the spec.
    // analyze: total — m and w are byte offsets from find() on this same ASCII spec string with m < w enforced, so both cuts are in-range char boundaries
    pub fn parse(spec: &str) -> Result<L2Spec, String> {
        let spec = spec.trim();
        let m = spec.find(['M', 'm']).ok_or_else(|| format!("bad L2 spec '{spec}': missing M"))?;
        let w = spec
            .rfind(['w', 'W'])
            .filter(|&w| w > m)
            .ok_or_else(|| format!("bad L2 spec '{spec}': missing w"))?;
        if w + 1 != spec.len() {
            return Err(format!("bad L2 spec '{spec}': trailing characters after 'w'"));
        }
        let mb: f64 = spec[..m].parse().map_err(|_| format!("bad L2 size in '{spec}'"))?;
        let assoc: u32 =
            spec[m + 1..w].parse().map_err(|_| format!("bad associativity in '{spec}'"))?;
        if !mb.is_finite() || mb <= 0.0 {
            return Err(format!("bad L2 spec '{spec}': size must be positive"));
        }
        if assoc == 0 {
            return Err(format!("bad L2 spec '{spec}': associativity must be at least 1"));
        }
        if !assoc.is_power_of_two() {
            return Err(format!(
                "bad L2 spec '{spec}': associativity {assoc} is not a power of two"
            ));
        }
        let bytes = (mb * (1u64 << 20) as f64).round() as u64;
        CacheGeometry::new(bytes, assoc, LINE_SIZE)
            .map_err(|e| format!("bad L2 spec '{spec}': {e}"))?;
        Ok(L2Spec { bytes, assoc, label: spec.to_string() })
    }
}

/// Parses an integration-level name as used on the `csim` command line
/// and in sweep plans: `cons`, `base`, `l2`, `l2mc` or `all`.
///
/// # Errors
///
/// A human-readable message for unknown names.
pub fn parse_integration(name: &str) -> Result<IntegrationLevel, String> {
    match name.trim() {
        "cons" => Ok(IntegrationLevel::ConservativeBase),
        "base" => Ok(IntegrationLevel::Base),
        "l2" => Ok(IntegrationLevel::L2Integrated),
        "l2mc" => Ok(IntegrationLevel::L2McIntegrated),
        "all" => Ok(IntegrationLevel::FullyIntegrated),
        other => Err(format!("unknown integration level '{other}'")),
    }
}

/// The short name [`parse_integration`] accepts for a level; used in run
/// labels and the plan echo of sweep reports.
pub fn integration_short_name(level: IntegrationLevel) -> &'static str {
    match level {
        IntegrationLevel::ConservativeBase => "cons",
        IntegrationLevel::Base => "base",
        IntegrationLevel::L2Integrated => "l2",
        IntegrationLevel::L2McIntegrated => "l2mc",
        IntegrationLevel::FullyIntegrated => "all",
    }
}

/// A declarative parameter grid: every combination of the axes below is
/// one independent simulation run.
///
/// Loaded from the workspace's TOML dialect ([`SweepPlan::from_toml_str`])
/// or built in code; [`SweepPlan::expand`] turns it into the ordered run
/// list the engine executes.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPlan {
    /// Plan name, echoed into the merged report.
    pub name: String,
    /// Warm-up references per node (not measured).
    pub warm: u64,
    /// Measured references per node.
    pub meas: u64,
    /// Use embedded-DRAM timing for on-chip L2s.
    pub dram: bool,
    /// Add the paper's remote access cache.
    pub rac: bool,
    /// OS instruction-page replication.
    pub replicate: bool,
    /// Out-of-order cores instead of in-order.
    pub ooo: bool,
    /// Integration-level axis.
    pub integration: Vec<IntegrationLevel>,
    /// L2 geometry axis. Empty means "the default geometry of each
    /// integration level", [`default_l2`](crate::default_l2).
    pub l2: Vec<L2Spec>,
    /// Node-count axis.
    pub nodes: Vec<usize>,
    /// Cores-per-node axis.
    pub cores: Vec<usize>,
    /// Workload-seed axis, shared across all configurations so every
    /// configuration sees identical workloads.
    pub seeds: Vec<u64>,
}

impl Default for SweepPlan {
    fn default() -> Self {
        SweepPlan {
            name: "sweep".to_string(),
            warm: 2_000_000,
            meas: 2_000_000,
            dram: false,
            rac: false,
            replicate: false,
            ooo: false,
            integration: vec![IntegrationLevel::Base],
            l2: Vec::new(),
            nodes: vec![1],
            cores: vec![1],
            seeds: vec![OltpParams::default().seed],
        }
    }
}

/// Derives `n` workload seeds from a base seed, via the simulator's own
/// deterministic generator. Derivation happens at plan-load time, so the
/// seeds are fixed before any run starts and independent of execution
/// order or worker count.
pub fn derive_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(base);
    (0..n).map(|_| rng.next_u64()).collect()
}

impl SweepPlan {
    /// Parses a plan from the workspace's TOML dialect and validates it.
    ///
    /// Recognized tables:
    ///
    /// * `[sweep]` — scalars `name` (string), `warm`, `meas` (integers),
    ///   `dram`, `rac`, `replicate`, `ooo` (booleans).
    /// * `[grid]` — the axes: lists `integration` (strings: `cons`,
    ///   `base`, `l2`, `l2mc`, `all`), `l2` (strings: `2M8w`-style
    ///   specs), `nodes`, `cores`, `seeds` (integers); or, instead of
    ///   `seeds`, scalars `base_seed` and `runs_per_config` to derive
    ///   seeds with [`derive_seeds`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Parse`] for malformed input or unknown keys/tables,
    /// [`SweepError::Invalid`] when the parsed plan fails
    /// [`SweepPlan::validate`].
    pub fn from_toml_str(input: &str) -> Result<Self, SweepError> {
        let mut plan = SweepPlan::default();
        let mut explicit_seeds = false;
        let mut base_seed: Option<u64> = None;
        let mut runs_per_config: Option<u64> = None;
        for item in toml::parse(input)? {
            if item.array {
                return Err(SweepError::Parse {
                    line: item.line,
                    message: format!("table arrays ([[{}]]) are not part of the sweep dialect", item.table),
                });
            }
            match item.table.as_str() {
                "sweep" => {
                    for (key, value, line) in item.entries {
                        let v = value.as_scalar(line)?;
                        match key.as_str() {
                            "name" => plan.name = v.as_str(line)?.to_string(),
                            "warm" => plan.warm = v.as_u64(line)?,
                            "meas" => plan.meas = v.as_u64(line)?,
                            "dram" => plan.dram = v.as_bool(line)?,
                            "rac" => plan.rac = v.as_bool(line)?,
                            "replicate" => plan.replicate = v.as_bool(line)?,
                            "ooo" => plan.ooo = v.as_bool(line)?,
                            other => return Err(unknown_key("sweep", other, line)),
                        }
                    }
                }
                "grid" => {
                    for (key, value, line) in item.entries {
                        match key.as_str() {
                            "integration" => {
                                plan.integration = value
                                    .as_list(line)?
                                    .iter()
                                    .map(|s| {
                                        parse_integration(s.as_str(line)?).map_err(|message| {
                                            SweepError::Parse { line, message }
                                        })
                                    })
                                    .collect::<Result<_, _>>()?;
                            }
                            "l2" => {
                                plan.l2 = value
                                    .as_list(line)?
                                    .iter()
                                    .map(|s| {
                                        L2Spec::parse(s.as_str(line)?).map_err(|message| {
                                            SweepError::Parse { line, message }
                                        })
                                    })
                                    .collect::<Result<_, _>>()?;
                            }
                            "nodes" => {
                                plan.nodes = list_of_u64(&value, line)?
                                    .into_iter()
                                    .map(|v| v as usize)
                                    .collect();
                            }
                            "cores" => {
                                plan.cores = list_of_u64(&value, line)?
                                    .into_iter()
                                    .map(|v| v as usize)
                                    .collect();
                            }
                            "seeds" => {
                                plan.seeds = list_of_u64(&value, line)?;
                                explicit_seeds = true;
                            }
                            "base_seed" => {
                                base_seed = Some(value.as_scalar(line)?.as_u64(line)?)
                            }
                            "runs_per_config" => {
                                runs_per_config = Some(value.as_scalar(line)?.as_u64(line)?)
                            }
                            other => return Err(unknown_key("grid", other, line)),
                        }
                    }
                }
                other => {
                    return Err(SweepError::Parse {
                        line: item.line,
                        message: format!("unknown table '[{other}]'"),
                    })
                }
            }
        }
        if explicit_seeds && (base_seed.is_some() || runs_per_config.is_some()) {
            return Err(SweepError::Invalid {
                field: "grid.seeds",
                message: "give either explicit seeds or base_seed/runs_per_config, not both"
                    .to_string(),
            });
        }
        if base_seed.is_some() || runs_per_config.is_some() {
            let runs = runs_per_config.unwrap_or(1);
            if runs == 0 || runs > 4096 {
                return Err(SweepError::Invalid {
                    field: "grid.runs_per_config",
                    message: format!("{runs} not in 1..=4096"),
                });
            }
            let base = base_seed.unwrap_or(OltpParams::default().seed);
            plan.seeds = derive_seeds(base, runs as usize);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Checks every axis for plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Invalid`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SweepError> {
        let invalid = |field: &'static str, message: String| {
            Err(SweepError::Invalid { field, message })
        };
        if self.meas == 0 {
            return invalid("sweep.meas", "a run must measure at least one reference".into());
        }
        if self.integration.is_empty() {
            return invalid("grid.integration", "axis is empty".into());
        }
        if self.nodes.is_empty() || self.nodes.contains(&0) {
            return invalid("grid.nodes", format!("{:?} must be non-empty, entries >= 1", self.nodes));
        }
        if self.cores.is_empty() || self.cores.contains(&0) {
            return invalid("grid.cores", format!("{:?} must be non-empty, entries >= 1", self.cores));
        }
        if self.seeds.is_empty() {
            return invalid("grid.seeds", "axis is empty".into());
        }
        let runs = self.run_count();
        if runs > 100_000 {
            return invalid("grid", format!("{runs} runs exceed the 100000-run ceiling"));
        }
        Ok(())
    }

    /// Number of runs the grid expands to.
    pub fn run_count(&self) -> usize {
        self.integration.len()
            * self.l2.len().max(1)
            * self.nodes.len()
            * self.cores.len()
            * self.seeds.len()
    }
}

fn list_of_u64(value: &toml::TomlValue, line: usize) -> Result<Vec<u64>, SweepError> {
    Ok(value.as_list(line)?.iter().map(|s| s.as_u64(line)).collect::<Result<_, _>>()?)
}

impl From<TomlError> for SweepError {
    fn from(e: TomlError) -> Self {
        SweepError::Parse { line: e.line, message: e.message }
    }
}

fn unknown_key(table: &str, key: &str, line: usize) -> SweepError {
    SweepError::Parse { line, message: format!("unknown key '{key}' in [{table}]") }
}

/// What went wrong while loading a plan or executing a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// The TOML input is malformed or mentions unknown keys/tables.
    Parse {
        /// 1-based line number of the offending input.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The plan parsed but a field value is out of range.
    Invalid {
        /// Dotted path of the offending field.
        field: &'static str,
        /// Human-readable description.
        message: String,
    },
    /// One grid point failed to build or simulate.
    Run {
        /// The failing run's label.
        label: String,
        /// Human-readable description.
        message: String,
    },
    /// A checkpoint log record or the log file itself is damaged or
    /// unwritable. Surfaced as a warning (the engine recovers past
    /// damage) except for I/O errors opening the log, which are hard.
    Checkpoint {
        /// The checkpoint log path.
        path: String,
        /// 1-based line number of the offending record (0 = the file as
        /// a whole).
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A checkpoint log is intact but was recorded by a different plan,
    /// shard, or grid — resuming from it would silently mix sweeps, so
    /// this is a hard error.
    CheckpointMismatch {
        /// The checkpoint log path.
        path: String,
        /// Human-readable description.
        message: String,
    },
    /// The checkpoint logs handed to the merge are inconsistent with
    /// each other or do not record every grid point.
    Merge {
        /// The offending checkpoint log path (`-` when no single log is
        /// at fault).
        path: String,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Parse { line, message } => {
                write!(f, "sweep plan parse error at line {line}: {message}")
            }
            SweepError::Invalid { field, message } => {
                write!(f, "invalid sweep plan field {field}: {message}")
            }
            SweepError::Run { label, message } => {
                write!(f, "sweep run '{label}' failed: {message}")
            }
            SweepError::Checkpoint { path, line, message } => {
                if *line == 0 {
                    write!(f, "checkpoint log {path}: {message}")
                } else {
                    write!(f, "checkpoint log {path}, line {line}: {message}")
                }
            }
            SweepError::CheckpointMismatch { path, message } => {
                write!(f, "checkpoint log {path} does not match this sweep: {message}")
            }
            SweepError::Merge { path, message } if path == "-" => {
                write!(f, "shard merge failed: {message}")
            }
            SweepError::Merge { path, message } => {
                write!(f, "shard merge failed at {path}: {message}")
            }
        }
    }
}

impl Error for SweepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_one_default_run() {
        let plan = SweepPlan::default();
        plan.validate().unwrap();
        assert_eq!(plan.run_count(), 1);
        assert_eq!(plan.seeds, vec![OltpParams::default().seed]);
        assert_eq!(plan.expand(), vec![crate::RunSpec::default()]);
    }

    #[test]
    fn l2_spec_parses_the_paper_geometries() {
        let parse = |spec| L2Spec::parse(spec).map(|s| (s.bytes, s.assoc)).unwrap();
        assert_eq!(parse("8M1w"), (8 << 20, 1));
        assert_eq!(parse("2M8w"), (2 << 20, 8));
        assert_eq!(parse("1.25M4w"), ((5 << 20) / 4, 4));
        assert_eq!(parse(" 16m2W "), (16 << 20, 2));
        let s = L2Spec::parse(" 2M8w ").unwrap();
        assert_eq!((s.bytes, s.assoc, s.label.as_str()), (2 << 20, 8, "2M8w"));
    }

    #[test]
    fn l2_spec_rejects_malformed_input() {
        for (spec, why) in [
            ("0M4w", "positive"),
            ("-2M4w", "positive"),
            ("infM4w", "positive"),
            ("2M0w", "at least 1"),
            ("2M3w", "power of two"),
            ("2M6w", "power of two"),
            ("2M8", "missing w"),
            ("w2M", "missing w"),
            ("2M8wx", "trailing"),
            ("8w", "missing M"),
            ("0.001M1w", "whole number of 1-way sets"),
            ("99999999999999999999M1w", "whole number of 1-way sets"),
        ] {
            let err = L2Spec::parse(spec).unwrap_err();
            assert!(err.contains(why), "{spec}: {err}");
        }
    }

    #[test]
    fn integration_names_round_trip() {
        for level in [
            IntegrationLevel::ConservativeBase,
            IntegrationLevel::Base,
            IntegrationLevel::L2Integrated,
            IntegrationLevel::L2McIntegrated,
            IntegrationLevel::FullyIntegrated,
        ] {
            assert_eq!(parse_integration(integration_short_name(level)).unwrap(), level);
        }
        assert!(parse_integration("bogus").is_err());
    }

    #[test]
    #[expect(clippy::identity_op, reason = "the run-count product keeps one factor per axis, 1s included")]
    fn toml_round_trip_of_the_documented_dialect() {
        let text = r#"
            [sweep]
            name = "fig9"
            warm = 10_000
            meas = 20_000
            rac = true

            [grid]
            integration = ["l2", "all"]
            l2 = ["2M1w", "2M8w"]
            nodes = [8]
            cores = [1]
            seeds = [42, 43]
        "#;
        let plan = SweepPlan::from_toml_str(text).unwrap();
        assert_eq!(plan.name, "fig9");
        assert_eq!((plan.warm, plan.meas), (10_000, 20_000));
        assert!(plan.rac && !plan.dram && !plan.ooo && !plan.replicate);
        assert_eq!(
            plan.integration,
            vec![IntegrationLevel::L2Integrated, IntegrationLevel::FullyIntegrated]
        );
        assert_eq!(plan.l2.len(), 2);
        assert_eq!(plan.l2[1].assoc, 8);
        assert_eq!(plan.seeds, vec![42, 43]);
        assert_eq!(plan.run_count(), 2 * 2 * 1 * 1 * 2);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a = derive_seeds(7, 4);
        assert_eq!(a, derive_seeds(7, 4));
        assert_ne!(a, derive_seeds(8, 4));
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);

        let plan =
            SweepPlan::from_toml_str("[grid]\nbase_seed = 7\nruns_per_config = 4\n").unwrap();
        assert_eq!(plan.seeds, a);
    }

    #[test]
    fn explicit_and_derived_seeds_are_mutually_exclusive() {
        let err =
            SweepPlan::from_toml_str("[grid]\nseeds = [1]\nbase_seed = 2\n").unwrap_err();
        assert!(matches!(err, SweepError::Invalid { field: "grid.seeds", .. }), "{err}");
    }

    #[test]
    fn unknown_tables_and_keys_are_rejected() {
        assert!(SweepPlan::from_toml_str("[surprise]\nx = 1\n").is_err());
        let err = SweepPlan::from_toml_str("[sweep]\nnom = \"x\"\n").unwrap_err();
        assert!(err.to_string().contains("unknown key 'nom'"), "{err}");
        let err = SweepPlan::from_toml_str("[grid]\nnodes = [0]\n").unwrap_err();
        assert!(matches!(err, SweepError::Invalid { field: "grid.nodes", .. }), "{err}");
    }

    #[test]
    #[expect(clippy::field_reassign_with_default, reason = "each case perturbs one field")]
    fn validate_rejects_degenerate_plans() {
        let mut plan = SweepPlan::default();
        plan.meas = 0;
        assert!(plan.validate().is_err());
        let mut plan = SweepPlan::default();
        plan.integration.clear();
        assert!(plan.validate().is_err());
        let mut plan = SweepPlan::default();
        plan.seeds.clear();
        assert!(plan.validate().is_err());
        let mut plan = SweepPlan::default();
        plan.seeds = vec![0; 200_000];
        assert!(plan.validate().is_err());
    }

    #[test]
    fn errors_display_their_location() {
        let err = SweepPlan::from_toml_str("[grid]\nl2 = [\"2M3w\"]\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // A size that is no whole number of sets fails at parse time,
        // before any point runs.
        let err = SweepPlan::from_toml_str("[grid]\nl2 = [\"0.001M1w\"]\n").unwrap_err();
        assert!(err.to_string().contains("line 2: bad L2 spec '0.001M1w'"), "{err}");
    }

    #[test]
    fn table_arrays_are_rejected_at_their_header() {
        let err = SweepPlan::from_toml_str("[sweep]\nmeas = 10\n[[grid]]\nnodes = [1]\n")
            .unwrap_err();
        assert!(matches!(err, SweepError::Parse { line: 3, .. }), "{err}");
    }
}
