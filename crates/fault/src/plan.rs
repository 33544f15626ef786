//! Fault plans: the declarative description of what can go wrong.

use std::error::Error;
use std::fmt;

use crate::toml::{self, TomlError};

/// How a NACKed requester retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts before the livelock watchdog forces the
    /// transaction through (graceful degradation, never a hang).
    pub max_retries: u32,
    /// Backoff before the first retry, in cycles.
    pub backoff_base: u64,
    /// Whether backoff doubles on every consecutive NACK.
    pub exponential: bool,
    /// Upper bound on a single backoff interval, in cycles.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 8, backoff_base: 16, exponential: true, backoff_cap: 4096 }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), in cycles.
    pub fn backoff(&self, attempt: u32) -> u64 {
        if !self.exponential {
            return self.backoff_base.min(self.backoff_cap);
        }
        let doubled = self.backoff_base.saturating_mul(1u64 << attempt.min(32));
        doubled.min(self.backoff_cap)
    }
}

/// Probabilistic NACKs at the directory controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NackPlan {
    /// Probability in `[0, 1]` that a directory transaction is NACKed
    /// (rolled independently per attempt, including retries).
    pub prob: f64,
    /// What the requester does about it.
    pub retry: RetryPolicy,
}

impl Default for NackPlan {
    fn default() -> Self {
        NackPlan { prob: 0.0, retry: RetryPolicy::default() }
    }
}

/// A transient window during which NoC links run below nominal
/// bandwidth. Windows are expressed in rounds (one reference per core
/// each) since the last statistics reset (the simulator's logical clock).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// First reference index the fault is active at.
    pub start: u64,
    /// Number of references the fault lasts.
    pub duration: u64,
    /// Remaining link capacity as a fraction of nominal, in `(0, 1]`.
    pub capacity: f64,
}

impl LinkFault {
    /// Whether the window covers reference index `now`.
    pub fn covers(&self, now: u64) -> bool {
        now >= self.start && now - self.start < self.duration
    }
}

/// A transient window during which a home memory controller is busy and
/// fills from memory pay extra cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McFault {
    /// First reference index the fault is active at.
    pub start: u64,
    /// Number of references the fault lasts.
    pub duration: u64,
    /// Extra cycles charged to every memory fill inside the window.
    pub extra_cycles: u64,
}

impl McFault {
    /// Whether the window covers reference index `now`.
    pub fn covers(&self, now: u64) -> bool {
        now >= self.start && now - self.start < self.duration
    }
}

/// Network constants used when retry traffic is folded back into the
/// contention model. The defaults match the paper's machine (a small
/// torus, line-sized messages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkParams {
    /// Mean hops a retried transaction travels.
    pub mean_hops: f64,
    /// Link occupancy of one line-sized message, in cycles.
    pub line_cycles: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams { mean_hops: 2.0, line_cycles: 4.0 }
    }
}

/// Everything a [`crate::FaultInjector`] needs to know about what can go
/// wrong and when.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Directory NACK behaviour.
    pub nack: NackPlan,
    /// Transient link-degradation windows.
    pub link_faults: Vec<LinkFault>,
    /// Memory-controller busy windows.
    pub mc_faults: Vec<McFault>,
    /// Constants for the retry-traffic feedback model.
    pub network: NetworkParams,
}

impl FaultPlan {
    /// The empty plan: nothing ever goes wrong. An injector built from
    /// it draws no random numbers and charges no cycles.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A preset stress plan used by robustness tests and the docs:
    /// frequent NACKs, one long degraded-link window and one
    /// memory-controller busy window.
    pub fn storm() -> Self {
        FaultPlan {
            nack: NackPlan { prob: 0.05, retry: RetryPolicy::default() },
            link_faults: vec![LinkFault { start: 1_000, duration: 50_000, capacity: 0.25 }],
            mc_faults: vec![McFault { start: 20_000, duration: 20_000, extra_cycles: 40 }],
            network: NetworkParams::default(),
        }
    }

    /// Whether the plan can ever perturb a run.
    pub fn is_active(&self) -> bool {
        self.nack.prob > 0.0 || !self.link_faults.is_empty() || !self.mc_faults.is_empty()
    }

    /// Checks every field for physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Invalid`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let invalid = |field: &'static str, message: String| {
            Err(FaultPlanError::Invalid { field, message })
        };
        if !(0.0..=1.0).contains(&self.nack.prob) || !self.nack.prob.is_finite() {
            return invalid("nack.prob", format!("probability {} not in [0, 1]", self.nack.prob));
        }
        if self.nack.retry.max_retries > 64 {
            return invalid(
                "nack.max_retries",
                format!("{} exceeds the watchdog ceiling of 64", self.nack.retry.max_retries),
            );
        }
        if self.nack.retry.backoff_base > self.nack.retry.backoff_cap {
            return invalid(
                "nack.backoff_base",
                format!(
                    "base {} exceeds cap {}",
                    self.nack.retry.backoff_base, self.nack.retry.backoff_cap
                ),
            );
        }
        for (i, f) in self.link_faults.iter().enumerate() {
            if f.duration == 0 {
                return invalid("link_fault.duration", format!("window {i} has zero duration"));
            }
            if !(f.capacity > 0.0 && f.capacity <= 1.0) {
                return invalid(
                    "link_fault.capacity",
                    format!("window {i}: capacity {} not in (0, 1]", f.capacity),
                );
            }
        }
        for (i, f) in self.mc_faults.iter().enumerate() {
            if f.duration == 0 {
                return invalid("mc_fault.duration", format!("window {i} has zero duration"));
            }
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(self.network.mean_hops) || !positive(self.network.line_cycles) {
            return invalid("network", "mean_hops and line_cycles must be positive".to_string());
        }
        Ok(())
    }

    /// Parses a plan from the workspace's TOML dialect and validates it.
    ///
    /// Recognized tables: `[nack]` (`prob`, `max_retries`,
    /// `backoff_base`, `backoff_cap`, `exponential`), `[network]`
    /// (`mean_hops`, `line_cycles`), and repeated `[[link_fault]]`
    /// (`start`, `duration`, `capacity`) / `[[mc_fault]]` (`start`,
    /// `duration`, `extra_cycles`) windows.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::Parse`] for malformed input or unknown
    /// keys/tables, [`FaultPlanError::Invalid`] when the parsed plan
    /// fails [`FaultPlan::validate`].
    pub fn from_toml_str(input: &str) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan::none();
        for item in toml::parse(input)? {
            match item.table.as_str() {
                "nack" => {
                    let NackPlan { mut prob, mut retry } = plan.nack;
                    for (key, value, line) in item.entries {
                        let v = value.as_scalar(line)?;
                        match key.as_str() {
                            "prob" => prob = v.as_f64(line)?,
                            "max_retries" => retry.max_retries = v.as_u64(line)? as u32,
                            "backoff_base" => retry.backoff_base = v.as_u64(line)?,
                            "backoff_cap" => retry.backoff_cap = v.as_u64(line)?,
                            "exponential" => retry.exponential = v.as_bool(line)?,
                            other => return Err(unknown_key("nack", other, line)),
                        }
                    }
                    plan.nack = NackPlan { prob, retry };
                }
                "network" => {
                    for (key, value, line) in item.entries {
                        let v = value.as_scalar(line)?;
                        match key.as_str() {
                            "mean_hops" => plan.network.mean_hops = v.as_f64(line)?,
                            "line_cycles" => plan.network.line_cycles = v.as_f64(line)?,
                            other => return Err(unknown_key("network", other, line)),
                        }
                    }
                }
                "link_fault" => {
                    let mut f = LinkFault { start: 0, duration: 0, capacity: 1.0 };
                    for (key, value, line) in item.entries {
                        let v = value.as_scalar(line)?;
                        match key.as_str() {
                            "start" => f.start = v.as_u64(line)?,
                            "duration" => f.duration = v.as_u64(line)?,
                            "capacity" => f.capacity = v.as_f64(line)?,
                            other => return Err(unknown_key("link_fault", other, line)),
                        }
                    }
                    plan.link_faults.push(f);
                }
                "mc_fault" => {
                    let mut f = McFault { start: 0, duration: 0, extra_cycles: 0 };
                    for (key, value, line) in item.entries {
                        let v = value.as_scalar(line)?;
                        match key.as_str() {
                            "start" => f.start = v.as_u64(line)?,
                            "duration" => f.duration = v.as_u64(line)?,
                            "extra_cycles" => f.extra_cycles = v.as_u64(line)?,
                            other => return Err(unknown_key("mc_fault", other, line)),
                        }
                    }
                    plan.mc_faults.push(f);
                }
                other => {
                    return Err(FaultPlanError::Parse {
                        line: item.line,
                        message: format!("unknown table '[{other}]'"),
                    })
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn unknown_key(table: &str, key: &str, line: usize) -> FaultPlanError {
    FaultPlanError::Parse { line, message: format!("unknown key '{key}' in [{table}]") }
}

/// What went wrong while loading or checking a fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
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
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Parse { line, message } => {
                write!(f, "fault plan parse error at line {line}: {message}")
            }
            FaultPlanError::Invalid { field, message } => {
                write!(f, "invalid fault plan field {field}: {message}")
            }
        }
    }
}

impl Error for FaultPlanError {}

impl From<TomlError> for FaultPlanError {
    fn from(e: TomlError) -> Self {
        FaultPlanError::Parse { line: e.line, message: e.message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        plan.validate().unwrap();
    }

    #[test]
    fn storm_is_active_and_valid() {
        let plan = FaultPlan::storm();
        assert!(plan.is_active());
        plan.validate().unwrap();
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let p = RetryPolicy { max_retries: 8, backoff_base: 16, exponential: true, backoff_cap: 100 };
        assert_eq!(p.backoff(0), 16);
        assert_eq!(p.backoff(1), 32);
        assert_eq!(p.backoff(2), 64);
        assert_eq!(p.backoff(3), 100, "capped");
        assert_eq!(p.backoff(63), 100, "no shift overflow");
    }

    #[test]
    fn fixed_backoff_ignores_the_attempt() {
        let p = RetryPolicy { exponential: false, ..RetryPolicy::default() };
        assert_eq!(p.backoff(0), p.backoff(9));
    }

    #[test]
    fn windows_cover_half_open_ranges() {
        let f = LinkFault { start: 10, duration: 5, capacity: 0.5 };
        assert!(!f.covers(9));
        assert!(f.covers(10));
        assert!(f.covers(14));
        assert!(!f.covers(15));
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut plan = FaultPlan::none();
        plan.nack.prob = 1.5;
        assert!(matches!(plan.validate(), Err(FaultPlanError::Invalid { field: "nack.prob", .. })));
    }

    #[test]
    fn validate_rejects_zero_capacity_links() {
        let mut plan = FaultPlan::none();
        plan.link_faults.push(LinkFault { start: 0, duration: 10, capacity: 0.0 });
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::Invalid { field: "link_fault.capacity", .. })
        ));
    }

    #[test]
    fn validate_rejects_oversized_retry_budget() {
        let mut plan = FaultPlan::none();
        plan.nack.retry.max_retries = 65;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn toml_round_trip_of_the_documented_dialect() {
        let text = r#"
            # a storm with everything in it
            [nack]
            prob = 0.05
            max_retries = 6
            backoff_base = 8
            backoff_cap = 512
            exponential = true

            [network]
            mean_hops = 1.7
            line_cycles = 4.0

            [[link_fault]]
            start = 100
            duration = 200
            capacity = 0.5

            [[link_fault]]
            start = 1000
            duration = 50
            capacity = 0.25

            [[mc_fault]]
            start = 300
            duration = 40
            extra_cycles = 25
        "#;
        let plan = FaultPlan::from_toml_str(text).unwrap();
        assert!((plan.nack.prob - 0.05).abs() < 1e-12);
        assert_eq!(plan.nack.retry.max_retries, 6);
        assert_eq!(plan.nack.retry.backoff_base, 8);
        assert_eq!(plan.nack.retry.backoff_cap, 512);
        assert!(plan.nack.retry.exponential);
        assert_eq!(plan.link_faults.len(), 2);
        assert_eq!(plan.link_faults[1].start, 1000);
        assert_eq!(plan.mc_faults, vec![McFault { start: 300, duration: 40, extra_cycles: 25 }]);
        assert!((plan.network.mean_hops - 1.7).abs() < 1e-12);
    }

    #[test]
    fn toml_rejects_unknown_tables_and_keys() {
        let err = FaultPlan::from_toml_str("[surprise]\nx = 1\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Parse { line: 1, .. }), "{err}");
        let err = FaultPlan::from_toml_str("[nack]\nprobability = 0.5\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn toml_rejects_type_mismatches() {
        let err = FaultPlan::from_toml_str("[nack]\nmax_retries = 0.5\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Parse { .. }), "{err}");
        let err = FaultPlan::from_toml_str("[nack]\nexponential = 3\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Parse { .. }), "{err}");
    }

    #[test]
    fn toml_rejects_strings_and_lists() {
        let err = FaultPlan::from_toml_str("[nack]\nprob = \"0.5\"\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Parse { line: 2, .. }), "{err}");
        let err = FaultPlan::from_toml_str("[[mc_fault]]\nstart = [1, 2]\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn toml_accepts_underscore_separators() {
        let plan =
            FaultPlan::from_toml_str("[[mc_fault]]\nstart = 100_000\nduration = 1_000\n").unwrap();
        assert_eq!(plan.mc_faults, vec![McFault { start: 100_000, duration: 1000, extra_cycles: 0 }]);
    }

    #[test]
    fn toml_validation_failures_surface_as_invalid() {
        let err = FaultPlan::from_toml_str("[nack]\nprob = 2.0\n").unwrap_err();
        assert!(matches!(err, FaultPlanError::Invalid { field: "nack.prob", .. }), "{err}");
    }

    #[test]
    fn errors_display_their_location() {
        let err = FaultPlan::from_toml_str("[nack]\nbogus = 1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
