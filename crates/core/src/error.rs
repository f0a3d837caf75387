//! Typed errors for the partitioning pipeline.
//!
//! [`crate::Partitioner::new_degraded`] and [`crate::Partitioner::plan`]
//! return these instead of asserting, so a caller sweeping fault scenarios
//! (or a server answering requests) can observe *why* a configuration is
//! unschedulable rather than crash.

use dmcp_mach::{FaultError, NodeId};
use std::fmt;

/// Errors constructing or running a partitioner.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionError {
    /// The fault plan failed validation against the machine's mesh.
    Fault(FaultError),
    /// The partitioner configuration is unusable.
    InvalidConfig(String),
    /// The iteration→core assignment names a node the fault plan killed.
    DeadAssignment(NodeId),
    /// A planned step landed on a dead node — an internal invariant
    /// violation surfaced instead of silently emitting an unrunnable
    /// schedule.
    DeadNodeInSchedule {
        /// Index of the offending nest.
        nest: usize,
        /// The dead node the step was placed on.
        node: NodeId,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            PartitionError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            PartitionError::DeadAssignment(n) => {
                write!(f, "iteration assignment places work on dead node {n}")
            }
            PartitionError::DeadNodeInSchedule { nest, node } => {
                write!(f, "nest {nest} scheduled a step on dead node {node}")
            }
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for PartitionError {
    fn from(e: FaultError) -> Self {
        PartitionError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PartitionError::DeadNodeInSchedule { nest: 2, node: NodeId::new(1, 1) };
        assert!(e.to_string().contains("nest 2"));
        assert!(e.to_string().contains("(1,1)"));
        let e: PartitionError = FaultError::NoLiveNodes.into();
        assert!(e.to_string().contains("invalid fault plan"));
    }
}
