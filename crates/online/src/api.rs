//! The unified admission vocabulary: requests, responses and structured
//! refusals.
//!
//! Every operation the [`ChurnEngine`](crate::ChurnEngine) services —
//! single connection setup, single teardown, whole use-case switch — is
//! one [`AdmissionRequest`], answered by one
//! `Result<`[`AdmissionResponse`]`, `[`AdmissionError`]`>` from
//! [`ChurnEngine::submit`](crate::ChurnEngine::submit). A refusal names
//! the connection it stuck on, a matchable [`RefusalCause`], and how many
//! admissions were rolled back to keep the allocation exactly as it was
//! — so a serving layer can report refusal breakdowns per batch without
//! re-deriving them from traces, and a rejected request never needs a
//! panic or an opaque boolean.

use aelite_alloc::AllocError;
use aelite_spec::ids::{ConnId, LinkId};
use core::fmt;

/// One admission request against a live allocation: a churn-trace
/// operation ([`aelite_spec::churn::ChurnOp`]) under the name the
/// serving side knows it by.
///
/// Requests are *total*: submitting one that does not match the current
/// state (opening an open connection, closing a closed one) or names a
/// connection the spec does not contain is answered with a structured
/// refusal, never a panic — a serving layer cannot vet every client's
/// view of the world before forwarding. A refused
/// [`Switch`](AdmissionRequest::Switch) rolls its own admissions back.
pub use aelite_spec::churn::ChurnOp as AdmissionRequest;

/// The successful outcome of one [`AdmissionRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionResponse {
    /// The connection was set up: routed, slots reserved.
    Opened(ConnId),
    /// The connection was torn down; its slots are free again.
    Closed(ConnId),
    /// The use-case switch completed end to end.
    Switched {
        /// Connections of the close set that actually held a grant and
        /// were torn down.
        closed: u32,
        /// Connections of the open set that were admitted.
        opened: u32,
    },
}

/// Why an admission was refused — structured and matchable, so callers
/// can branch on the cause (and serving layers can aggregate breakdowns)
/// instead of parsing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalCause {
    /// No route exists between the connection's NIs.
    NoRoute,
    /// No candidate path had enough free (shift-consistent) slots.
    NoSlots {
        /// Slots the connection's bandwidth contract requires.
        needed: u32,
        /// Best number of free slots found on any candidate path.
        free: u32,
    },
    /// Slots were available but no selection met the latency contract.
    LatencyUnmet {
        /// The requirement, in nanoseconds.
        required_ns: u64,
        /// The best achievable worst-case latency, in nanoseconds.
        best_ns: u64,
    },
    /// A close (or the close side of nothing — closes never roll back)
    /// named a connection that holds no grant, or an open — single,
    /// batched, or in a switch's open set — named a connection the spec
    /// does not contain (an id past its bound, or one a restricted view
    /// left out). A switch refused this way is refused whole, before its
    /// close set is applied.
    UnknownConn,
    /// An open named a connection that already holds a grant.
    AlreadyOpen,
    /// The pair is routable in the topology, but every candidate route
    /// traverses a failed link of the route cache's fault mask.
    LinkDown {
        /// One blocking down link (the first on the shortest route).
        link: LinkId,
    },
}

impl From<AllocError> for RefusalCause {
    fn from(e: AllocError) -> Self {
        match e {
            AllocError::NoRoute { .. } => RefusalCause::NoRoute,
            AllocError::InsufficientSlots {
                needed,
                best_available,
                ..
            } => RefusalCause::NoSlots {
                needed,
                free: best_available,
            },
            AllocError::LatencyUnmet {
                required_ns,
                best_ns,
                ..
            } => RefusalCause::LatencyUnmet {
                required_ns,
                best_ns,
            },
            AllocError::LinkDown { link, .. } => RefusalCause::LinkDown { link },
        }
    }
}

impl fmt::Display for RefusalCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefusalCause::NoRoute => write!(f, "no route"),
            RefusalCause::NoSlots { needed, free } => {
                write!(f, "needs {needed} slots but at most {free} are free")
            }
            RefusalCause::LatencyUnmet {
                required_ns,
                best_ns,
            } => write!(
                f,
                "requires {required_ns} ns but the best achievable bound is {best_ns} ns"
            ),
            RefusalCause::UnknownConn => write!(f, "holds no grant or is not in the spec"),
            RefusalCause::AlreadyOpen => write!(f, "already holds a grant"),
            RefusalCause::LinkDown { link } => {
                write!(f, "severed: every route traverses down link {link}")
            }
        }
    }
}

/// A refused [`AdmissionRequest`].
///
/// The allocation is exactly as it was before the request, except that a
/// refused switch leaves its close set closed (those applications were
/// leaving the use case regardless; only a switch refused for
/// [`RefusalCause::UnknownConn`] is turned away before its closes) —
/// `rolled_back` counts the open-set admissions that had succeeded and
/// were undone. Grants of connections outside the request were never
/// touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionError {
    /// The connection the request was refused on.
    pub conn: ConnId,
    /// Why it was refused.
    pub cause: RefusalCause,
    /// Open-set admissions undone to restore the pre-request state
    /// (non-zero only for switches).
    pub rolled_back: u32,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "admission refused at {}: {}", self.conn, self.cause)?;
        if self.rolled_back > 0 {
            write!(f, "; {} admission(s) rolled back", self.rolled_back)?;
        }
        Ok(())
    }
}

impl std::error::Error for AdmissionError {}
