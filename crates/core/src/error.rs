//! Typed errors for the simulation core.
//!
//! The simulator's failure modes fall into two families: *construction*
//! problems (mismatched stream counts, unsupported machine sizes,
//! invalid workload parameters) and *invariant* problems (the coherence
//! checker found an inconsistent machine state). Both are ordinary
//! values here — nothing in the library panics on user-reachable input.

use std::error::Error;
use std::fmt;

use csim_check::SanitizerError;
use csim_coherence::NodeId;
use csim_fault::FaultPlanError;
use csim_workload::ParamsError;

/// A violated machine-wide coherence invariant, as found by
/// [`crate::Simulation::verify_coherence`]. Each variant names the line
/// and location so a failing property test reproduces precisely.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoherenceViolation {
    /// The directory says `Modified{owner, in_rac: false}` but the
    /// owner's L2 copy is not dirty.
    NotDirtyInOwnerL2 {
        /// The inconsistent line (line address, not byte address).
        line: u64,
        /// The node the directory believes owns the line.
        owner: NodeId,
    },
    /// The directory says `Modified{owner, in_rac: true}` but the
    /// owner's RAC copy is not dirty (or the owner has no RAC).
    NotDirtyInOwnerRac {
        /// The inconsistent line.
        line: u64,
        /// The node the directory believes owns the line.
        owner: NodeId,
    },
    /// A line the directory considers Shared or Uncached is dirty in
    /// some node's L2 or RAC.
    DirtyWithoutOwnership {
        /// The inconsistent line.
        line: u64,
        /// The node holding the unexpected dirty copy.
        node: usize,
        /// Which structure holds it: `"L2"` or `"RAC"`.
        structure: &'static str,
    },
    /// A line present in an L1 is absent from that node's L2
    /// (multi-level inclusion violated).
    InclusionViolated {
        /// The inconsistent line.
        line: u64,
        /// The node whose L1 holds the orphaned line.
        node: usize,
    },
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceViolation::NotDirtyInOwnerL2 { line, owner } => write!(
                f,
                "line {line:#x}: directory says M at node {owner} (L2) but L2 copy is not dirty"
            ),
            CoherenceViolation::NotDirtyInOwnerRac { line, owner } => write!(
                f,
                "line {line:#x}: directory says M at node {owner} (RAC) but RAC copy is not dirty"
            ),
            CoherenceViolation::DirtyWithoutOwnership { line, node, structure } => write!(
                f,
                "line {line:#x}: not Modified in directory but dirty in node {node}'s {structure}"
            ),
            CoherenceViolation::InclusionViolated { line, node } => write!(
                f,
                "line {line:#x}: present in node {node}'s L1 but not its L2 (inclusion violated)"
            ),
        }
    }
}

impl Error for CoherenceViolation {}

/// Everything that can go wrong constructing or running a
/// [`crate::Simulation`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The number of reference streams does not match the machine's
    /// core count.
    StreamCountMismatch {
        /// Streams supplied.
        streams: usize,
        /// Cores the configuration has (one stream required per core).
        cores: usize,
    },
    /// The configuration asks for more nodes than the directory's
    /// node-set representation supports.
    TooManyNodes {
        /// Nodes requested.
        nodes: usize,
        /// The supported maximum.
        max: usize,
    },
    /// The OLTP workload parameters are invalid.
    Params(ParamsError),
    /// The fault plan is invalid.
    FaultPlan(FaultPlanError),
    /// A strict-mode run found a coherence violation.
    Coherence(CoherenceViolation),
    /// The runtime sanitizer found a directory transition that diverges
    /// from the executable protocol spec.
    Sanitizer(SanitizerError),
    /// The operating system could not start the workload's producer
    /// thread.
    Spawn(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StreamCountMismatch { streams, cores } => write!(
                f,
                "need exactly one reference stream per core: got {streams} streams for {cores} cores"
            ),
            SimError::TooManyNodes { nodes, max } => {
                write!(f, "directory supports at most {max} nodes, configuration has {nodes}")
            }
            SimError::Params(e) => write!(f, "{e}"),
            SimError::FaultPlan(e) => write!(f, "{e}"),
            SimError::Coherence(v) => write!(f, "coherence violated: {v}"),
            SimError::Sanitizer(e) => write!(f, "protocol spec divergence: {e}"),
            SimError::Spawn(e) => write!(f, "cannot start the workload producer thread: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Params(e) => Some(e),
            SimError::FaultPlan(e) => Some(e),
            SimError::Coherence(v) => Some(v),
            SimError::Sanitizer(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamsError> for SimError {
    fn from(e: ParamsError) -> Self {
        SimError::Params(e)
    }
}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> Self {
        SimError::FaultPlan(e)
    }
}

impl From<CoherenceViolation> for SimError {
    fn from(v: CoherenceViolation) -> Self {
        SimError::Coherence(v)
    }
}

impl From<SanitizerError> for SimError {
    fn from(e: SanitizerError) -> Self {
        SimError::Sanitizer(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let v = CoherenceViolation::InclusionViolated { line: 0x40, node: 3 };
        assert!(v.to_string().contains("0x40"));
        assert!(v.to_string().contains("node 3"));
        let e = SimError::StreamCountMismatch { streams: 1, cores: 4 };
        assert!(e.to_string().contains("one reference stream per core"));
        let e = SimError::TooManyNodes { nodes: 65, max: 64 };
        assert!(e.to_string().contains("65"));
    }

    #[test]
    fn a_params_error_is_prefixed_once() {
        let e = csim_workload::OltpWorkload::build(Default::default(), 65).unwrap_err();
        let shown = SimError::from(e).to_string();
        assert_eq!(shown.matches("invalid workload parameters").count(), 1, "{shown}");
        assert!(shown.ends_with("node count must be in 1..=64"), "{shown}");
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let v = CoherenceViolation::NotDirtyInOwnerL2 { line: 1, owner: 0 };
        let e = SimError::Coherence(v.clone());
        assert_eq!(e.source().unwrap().to_string(), v.to_string());
        assert!(SimError::TooManyNodes { nodes: 65, max: 64 }.source().is_none());
    }

    #[test]
    fn conversions_wrap() {
        let v = CoherenceViolation::NotDirtyInOwnerRac { line: 2, owner: 1 };
        assert_eq!(SimError::from(v.clone()), SimError::Coherence(v));
    }
}
