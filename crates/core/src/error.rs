//! Error types for constraint-graph construction and synthesis.

use crate::constraint::{ArcId, PortId};
use crate::library::NodeKind;
use std::fmt;

/// Errors from building a [`ConstraintGraph`](crate::constraint::ConstraintGraph).
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A channel referenced a port that was never added.
    UnknownPort(PortId),
    /// A channel connected a port to itself.
    SelfLoop(PortId),
    /// Two channel endpoints share a position, so the arc distance is
    /// zero; Assumption 2.1 requires every arc implementation to have
    /// strictly positive cost.
    ZeroDistance(PortId, PortId),
    /// A channel required zero bandwidth.
    ZeroBandwidth,
    /// A channel's hop bound was zero (every implementation needs at
    /// least one link).
    ZeroHopBound,
    /// A port position was not finite.
    NonFinitePosition(PortId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownPort(p) => write!(f, "unknown port {p}"),
            BuildError::SelfLoop(p) => write!(f, "channel from port {p} to itself"),
            BuildError::ZeroDistance(u, v) => {
                write!(
                    f,
                    "ports {u} and {v} share a position (zero-length channel)"
                )
            }
            BuildError::ZeroBandwidth => write!(f, "channel bandwidth must be positive"),
            BuildError::ZeroHopBound => {
                write!(f, "channel hop bound must be at least one link")
            }
            BuildError::NonFinitePosition(p) => {
                write!(f, "port {p} has a non-finite position")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors from building a [`Library`](crate::library::Library).
#[derive(Debug, Clone, PartialEq)]
pub enum LibraryError {
    /// The library contained no links at all.
    NoLinks,
    /// A link had zero bandwidth (it could never carry any channel).
    ZeroBandwidthLink(String),
    /// A link had a non-positive maximum length.
    BadLength(String),
    /// A cost figure was negative or non-finite.
    BadCost(String),
    /// The same node kind was specified twice.
    DuplicateNode(NodeKind),
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::NoLinks => write!(f, "library must contain at least one link"),
            LibraryError::ZeroBandwidthLink(n) => {
                write!(f, "link {n:?} has zero bandwidth")
            }
            LibraryError::BadLength(n) => {
                write!(f, "link {n:?} has a non-positive maximum length")
            }
            LibraryError::BadCost(n) => write!(f, "{n} has a negative or non-finite cost"),
            LibraryError::DuplicateNode(k) => {
                write!(f, "node kind {k:?} specified more than once")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

/// Errors from running the synthesis pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// An arc cannot be implemented: segmentation was required but the
    /// library has no repeater node.
    MissingRepeater(ArcId),
    /// An arc cannot be implemented: duplication was required but the
    /// library lacks a mux or demux node.
    MissingMuxDemux(ArcId),
    /// No link in the library can implement this arc even with
    /// segmentation and duplication.
    NoFeasibleLink(ArcId),
    /// Every feasible implementation exceeds the arc's hop bound.
    HopBoundInfeasible(ArcId),
    /// The covering step failed (propagated from the UCP solver).
    Cover(ccs_covering::CoverError),
    /// The library violates Assumption 2.1 on this constraint graph, so
    /// the prune theorems would be unsound. Carries the offending arcs.
    AssumptionViolated(ArcId, ArcId),
    /// The run was cancelled cooperatively (via
    /// [`ccs_exec::CancelToken`]) before completing; no partial result
    /// is produced.
    Cancelled,
    /// An incremental-session edit did not apply: unknown arc or port,
    /// or the edited instance no longer builds (e.g. a zero rate).
    InvalidEdit(String),
    /// A link segment planned for this arc has a length that is not
    /// positive and finite. Finite port positions can still be far
    /// enough apart that their distance overflows to infinity.
    InvalidDistance(ArcId, f64),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::MissingRepeater(a) => write!(
                f,
                "arc {a} needs segmentation but the library has no repeater"
            ),
            SynthesisError::MissingMuxDemux(a) => write!(
                f,
                "arc {a} needs duplication but the library lacks mux/demux nodes"
            ),
            SynthesisError::NoFeasibleLink(a) => {
                write!(f, "no library link can implement arc {a}")
            }
            SynthesisError::HopBoundInfeasible(a) => {
                write!(f, "every implementation of arc {a} exceeds its hop bound")
            }
            SynthesisError::Cover(e) => write!(f, "covering step failed: {e}"),
            SynthesisError::AssumptionViolated(a, b) => write!(
                f,
                "library violates Assumption 2.1 (cost monotonicity) on arcs {a}, {b}"
            ),
            SynthesisError::Cancelled => write!(f, "synthesis cancelled"),
            SynthesisError::InvalidEdit(why) => write!(f, "invalid edit: {why}"),
            SynthesisError::InvalidDistance(a, d) => write!(
                f,
                "arc {a} spans a distance of {d}; distances must be positive and finite"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Cover(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<ccs_covering::CoverError> for SynthesisError {
    fn from(e: ccs_covering::CoverError) -> Self {
        SynthesisError::Cover(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_lowercase() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(BuildError::SelfLoop(PortId(1))),
            Box::new(BuildError::ZeroBandwidth),
            Box::new(LibraryError::NoLinks),
            Box::new(SynthesisError::NoFeasibleLink(ArcId(0))),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("arc"));
        }
    }

    #[test]
    fn cover_error_converts_and_chains() {
        let inner = ccs_covering::CoverError::Infeasible(3);
        let e: SynthesisError = inner.clone().into();
        assert_eq!(e, SynthesisError::Cover(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
