//! Typed communication errors.
//!
//! Every blocking receive in this crate carries a deadline, and every
//! failure mode is a variant here instead of a panic or an indefinite
//! hang: a fault-tolerant caller (the staging retry loop, the elastic
//! membership layer) matches on the variant and decides whether to retry,
//! reconfigure the world, or abort with the formatted diagnosis.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Why a point-to-point operation (and therefore a collective built on
/// it) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived within the receive deadline. Carries who waited
    /// on whom and for which tag, so a hung-collective diagnosis names
    /// the edge, not just the symptom.
    Timeout {
        /// The rank that was waiting.
        rank: usize,
        /// The peer it was waiting on.
        src: usize,
        /// The protocol tag it expected.
        tag: u64,
        /// How long it waited before giving up.
        waited: Duration,
    },
    /// The peer's communicator was dropped — its thread exited or
    /// crashed — so no message can ever arrive.
    PeerDead {
        /// The rank that observed the death.
        rank: usize,
        /// The dead peer.
        src: usize,
    },
    /// A message with the right tag arrived but carried the wrong payload
    /// kind (f32 tensor data where control bytes were expected, or vice
    /// versa).
    TypeMismatch {
        /// The receiving rank.
        rank: usize,
        /// The sender.
        src: usize,
        /// The protocol tag of the message.
        tag: u64,
        /// The payload kind the receiver expected.
        expected: &'static str,
        /// The payload kind that actually arrived.
        got: &'static str,
    },
    /// A message arrived out of protocol order: its tag does not match
    /// the collective step the receiver is executing.
    TagMismatch {
        /// The receiving rank.
        rank: usize,
        /// The sender.
        src: usize,
        /// The tag the receiver's protocol step expected.
        expected: u64,
        /// The tag that arrived.
        got: u64,
    },
    /// The destination's communicator is gone; the send could not be
    /// delivered.
    SendFailed {
        /// The sending rank.
        rank: usize,
        /// The unreachable destination.
        dst: usize,
    },
    /// A world rebuild did not complete: not every member of the proposed
    /// generation claimed its endpoint before the deadline, so the new
    /// communicator set never became whole.
    RendezvousFailed {
        /// The member that gave up waiting.
        member: usize,
        /// The generation that failed to assemble.
        generation: u64,
        /// Members that had claimed endpoints when the deadline expired.
        arrived: usize,
        /// Members the generation needed.
        expected: usize,
    },
    /// A payload arrived intact from a live peer but its contents do not
    /// decode: the bytes a broadcast root shipped (serialized optimizer
    /// state, say) are truncated or describe a different model. Not a
    /// peer failure — retrying in a smaller world would ship the same
    /// bytes again.
    MalformedPayload {
        /// The rank that could not decode it.
        rank: usize,
        /// The rank the payload originated from.
        root: usize,
        /// Which payload, and what was wrong with it.
        what: String,
    },
}

impl CommError {
    /// The peer rank this error implicates, if any — the natural input to
    /// a "who died / who is stuck" diagnosis.
    pub fn peer(&self) -> Option<usize> {
        match *self {
            CommError::Timeout { src, .. }
            | CommError::PeerDead { src, .. }
            | CommError::TypeMismatch { src, .. }
            | CommError::TagMismatch { src, .. } => Some(src),
            CommError::SendFailed { dst, .. } => Some(dst),
            CommError::MalformedPayload { root, .. } => Some(root),
            // No single peer: some unknown subset of members never arrived.
            CommError::RendezvousFailed { .. } => None,
        }
    }

    /// True for the variants that indicate a dead or unreachable peer
    /// (rather than a protocol bug on a live one).
    pub fn is_peer_failure(&self) -> bool {
        matches!(
            self,
            CommError::PeerDead { .. }
                | CommError::SendFailed { .. }
                | CommError::Timeout { .. }
                | CommError::RendezvousFailed { .. }
        )
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CommError::Timeout { rank, src, tag, waited } => write!(
                f,
                "rank {rank} timed out after {waited:?} waiting on rank {src} for tag {tag:#x}"
            ),
            CommError::PeerDead { rank, src } => {
                write!(f, "rank {rank} found peer rank {src} dead (communicator dropped)")
            }
            CommError::TypeMismatch { rank, src, tag, expected, got } => write!(
                f,
                "rank {rank} expected {expected} payload from rank {src} (tag {tag:#x}), got {got}"
            ),
            CommError::TagMismatch { rank, src, expected, got } => write!(
                f,
                "rank {rank} expected tag {expected:#x} from rank {src}, got {got:#x} — collective protocol mismatch"
            ),
            CommError::SendFailed { rank, dst } => {
                write!(f, "rank {rank} could not send to rank {dst} (communicator dropped)")
            }
            CommError::RendezvousFailed { member, generation, arrived, expected } => write!(
                f,
                "member {member} abandoned rendezvous for generation {generation}: \
                 {arrived}/{expected} members arrived before the deadline"
            ),
            CommError::MalformedPayload { rank, root, ref what } => {
                write!(f, "rank {rank} could not decode the payload from rank {root}: {what}")
            }
        }
    }
}

impl Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_edge() {
        let e = CommError::Timeout {
            rank: 3,
            src: 1,
            tag: 0x100,
            waited: Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("rank 1"), "{s}");
        assert!(s.contains("0x100"), "{s}");
        assert_eq!(e.peer(), Some(1));
        assert!(e.is_peer_failure());
    }

    #[test]
    fn protocol_bugs_are_not_peer_failures() {
        let e = CommError::TagMismatch { rank: 0, src: 1, expected: 2, got: 3 };
        assert!(!e.is_peer_failure());
        assert_eq!(e.peer(), Some(1));
    }

    #[test]
    fn malformed_payload_blames_the_root_but_is_not_a_peer_failure() {
        let e = CommError::MalformedPayload { rank: 2, root: 0, what: "optimizer state: truncated".into() };
        assert!(!e.is_peer_failure());
        assert_eq!(e.peer(), Some(0));
        let s = e.to_string();
        assert!(s.contains("rank 2") && s.contains("rank 0") && s.contains("truncated"), "{s}");
    }

    #[test]
    fn rendezvous_failure_is_a_peer_failure_without_a_single_peer() {
        let e = CommError::RendezvousFailed { member: 2, generation: 7, arrived: 3, expected: 4 };
        assert!(e.is_peer_failure());
        assert_eq!(e.peer(), None);
        let s = e.to_string();
        assert!(s.contains("generation 7"), "{s}");
        assert!(s.contains("3/4"), "{s}");
    }
}
