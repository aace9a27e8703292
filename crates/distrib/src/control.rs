//! Readiness coordination: agreeing on a total order of all-reduces.
//!
//! Each TensorFlow process schedules its graph independently, so gradient
//! tensors become ready in different orders on different ranks; executing
//! collectives in mismatched orders deadlocks (§V-A3). Horovod's solution
//! is a coordinator that collects *readiness* messages and broadcasts an
//! agreed order. This module implements both the original centralized
//! protocol and the paper's hierarchical aggregation tree, over the real
//! point-to-point channels of `exaclim-comm`, so message counts are
//! *measured*, not estimated.
//!
//! A round is straight-line code over blocking receives from named peers,
//! with one 4-byte tensor id per message and one message per tensor per
//! tree edge each way:
//!
//! * **Up.** In round `i` a rank marks its own `ready_order[i]` ready and
//!   takes one `TAG_READY` from each child, in child order. A tensor whose
//!   whole subtree has reported goes up to the parent; at the root it is
//!   begun: appended to the order and relayed to the children.
//! * **Down.** A non-root then takes `n_tensors` `TAG_BEGIN` messages from
//!   its parent, relaying each to its children before adopting it.
//!
//! Every rank therefore exchanges exactly `2·T·(children + has-parent)`
//! messages per round, whatever the thread timing: `2(N−1)·T` at the
//! centralized root, `2·min(r, N−1)·T` at the radix-`r` root. A dead peer
//! or an expired deadline is the receive's own [`CommError`]; a payload
//! that is not one new in-range tensor id is a
//! [`CommError::MalformedPayload`] naming its sender, never a panic.
//!
//! It holds Horovod's coordination only. No trainer runs it per step (the
//! fusion buckets are canonical), and elastic membership is decided by the
//! elastic hub, not by messages.

use exaclim_comm::{CommError, Communicator};

const TAG_READY: u64 = 0xC0_0001;
const TAG_BEGIN: u64 = 0xC0_0002;

/// Control-plane variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPlane {
    /// Original Horovod: every rank reports readiness directly to rank 0,
    /// which tells every rank the order to begin in.
    Centralized,
    /// §V-A3: ranks form a radix-`r` tree; readiness aggregates upward
    /// (a parent reports a tensor only when its whole subtree is ready)
    /// and begins relay downward. No rank exchanges more than `2(r + 1)`
    /// messages per tensor.
    Hierarchical {
        /// Tree radix (the paper saw no difference for r ∈ [2, 8]).
        radix: usize,
    },
}

/// A per-step coordinator for `n_tensors` named gradient tensors.
#[derive(Debug, Clone)]
pub struct Coordinator {
    plane: ControlPlane,
    n_tensors: usize,
}

/// Takes one tensor-id message from `src`. `seen` holds the ids `src`
/// has already sent; anything but a 4-byte, in-range, first-time id is
/// malformed.
fn recv_id(comm: &mut Communicator, src: usize, tag: u64, seen: &mut [bool]) -> Result<usize, CommError> {
    let bytes = comm.try_recv_bytes(src, tag)?;
    let what = match <[u8; 4]>::try_from(bytes.as_slice()) {
        Err(_) => format!("tag {tag:#x}: {}-byte payload, expected a 4-byte tensor id", bytes.len()),
        Ok(b) => match u32::from_le_bytes(b) as usize {
            t if t >= seen.len() => format!("tag {tag:#x}: tensor id {t} out of range 0..{}", seen.len()),
            t if seen[t] => format!("tag {tag:#x}: tensor id {t} sent twice"),
            t => {
                seen[t] = true;
                return Ok(t);
            }
        },
    };
    Err(CommError::MalformedPayload { rank: comm.rank(), root: src, what })
}

/// Begins tensor `t`: relays it to every child, then adopts it.
fn begin(comm: &mut Communicator, children: &[usize], t: usize, order: &mut Vec<u32>) -> Result<(), CommError> {
    for &c in children {
        comm.try_send_bytes(c, TAG_BEGIN, (t as u32).to_le_bytes().to_vec())?;
    }
    order.push(t as u32);
    Ok(())
}

impl Coordinator {
    /// A coordinator for a fixed tensor universe.
    pub fn new(plane: ControlPlane, n_tensors: usize) -> Coordinator {
        Coordinator { plane, n_tensors }
    }

    /// Runs one coordination round.
    ///
    /// `ready_order` is the order in which *this* rank's tensors became
    /// ready (a permutation of `0..n_tensors`). Returns the agreed global
    /// order — identical on every rank. The centralized protocol is the
    /// degenerate tree with radix = world size, which is how the paper
    /// describes its change: rank 0 "operates as if there were only r+1
    /// ranks to coordinate". A dead tree neighbour, an expired receive
    /// deadline or a malformed message comes back as a [`CommError`].
    pub fn try_coordinate(&self, comm: &mut Communicator, ready_order: &[u32]) -> Result<Vec<u32>, CommError> {
        let n = self.n_tensors;
        let mut own = vec![false; n];
        let permutation = ready_order.len() == n
            && ready_order.iter().all(|&t| (t as usize) < n && !std::mem::replace(&mut own[t as usize], true));
        assert!(permutation, "ready_order must be a permutation of 0..{n}");
        let radix = match self.plane {
            ControlPlane::Centralized => comm.size(),
            ControlPlane::Hierarchical { radix } => radix,
        };
        assert!(radix >= 1, "radix must be positive");
        let rank = comm.rank();
        let parent = (rank > 0).then(|| (rank - 1) / radix);
        let children: Vec<usize> = (1..=radix).map(|i| rank * radix + i).filter(|&c| c < comm.size()).collect();

        // Up: `missing[t]` counts the reports of tensor t (own + one per
        // child) still outstanding in this subtree.
        let mut missing = vec![children.len() + 1; n];
        let mut seen = vec![vec![false; n]; children.len()];
        let mut order = Vec::with_capacity(n);
        for &mine in ready_order {
            let mut reported = vec![mine as usize];
            for (k, &c) in children.iter().enumerate() {
                reported.push(recv_id(comm, c, TAG_READY, &mut seen[k])?);
            }
            for t in reported {
                missing[t] -= 1;
                if missing[t] == 0 {
                    match parent {
                        Some(p) => comm.try_send_bytes(p, TAG_READY, (t as u32).to_le_bytes().to_vec())?,
                        None => begin(comm, &children, t, &mut order)?,
                    }
                }
            }
        }
        // Down: the parent's begins, in its order.
        if let Some(p) = parent {
            let mut seen = vec![false; n];
            for _ in 0..n {
                let t = recv_id(comm, p, TAG_BEGIN, &mut seen)?;
                begin(comm, &children, t, &mut order)?;
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_comm::CommWorld;
    use std::thread;
    use std::time::Duration;

    fn id(t: u32) -> Vec<u8> {
        t.to_le_bytes().to_vec()
    }

    /// Runs one round on `n` rank threads; returns every rank's order and
    /// its (sent + received) message count.
    fn run_coordination(n: usize, plane: ControlPlane, n_tensors: usize, shuffle: bool) -> (Vec<Vec<u32>>, Vec<u64>) {
        let comms = CommWorld::new(n);
        let stats = comms[0].stats();
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, mut comm)| {
                thread::spawn(move || {
                    let coord = Coordinator::new(plane, n_tensors);
                    let mut ready: Vec<u32> = (0..n_tensors as u32).collect();
                    if shuffle {
                        // Deterministic per-rank permutation: rotate by rank
                        // and reverse on odd ranks, so orders genuinely differ.
                        ready.rotate_left(rank % n_tensors.max(1));
                        if rank % 2 == 1 {
                            ready.reverse();
                        }
                    }
                    coord.try_coordinate(&mut comm, &ready)
                })
            })
            .collect();
        let orders: Vec<Vec<u32>> = handles
            .into_iter()
            .map(|h| h.join().expect("rank").expect("coordination round"))
            .collect();
        let msgs = (0..n).map(|r| stats.messages_sent(r) + stats.messages_received(r)).collect();
        (orders, msgs)
    }

    /// The protocol's exact count: one message per tensor per tree edge,
    /// each way.
    fn expected_msgs(n: usize, radix: usize, rank: usize, n_tensors: usize) -> u64 {
        let children = (1..=radix).filter(|i| rank * radix + i < n).count();
        let has_parent = usize::from(rank > 0);
        (2 * n_tensors * (children + has_parent)) as u64
    }

    #[test]
    fn all_ranks_agree_on_total_order() {
        for plane in [ControlPlane::Centralized, ControlPlane::Hierarchical { radix: 2 }] {
            let (orders, _) = run_coordination(6, plane, 9, true);
            let mut sorted = orders[0].clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<u32>>(), "order is a permutation");
            for o in &orders[1..] {
                assert_eq!(o, &orders[0], "{plane:?} must produce one total order");
            }
        }
    }

    #[test]
    fn works_with_identical_orders_too() {
        let (orders, _) = run_coordination(4, ControlPlane::Hierarchical { radix: 3 }, 5, false);
        for o in &orders {
            assert_eq!(o, &[0, 1, 2, 3, 4], "identical readiness is begun as reported");
        }
    }

    #[test]
    fn hierarchical_offloads_rank0() {
        let tensors = 24;
        for n in [1, 4, 9, 16] {
            for (plane, radix) in [(ControlPlane::Centralized, n), (ControlPlane::Hierarchical { radix: 2 }, 2)] {
                let (_, msgs) = run_coordination(n, plane, tensors, true);
                for (rank, &m) in msgs.iter().enumerate() {
                    assert_eq!(m, expected_msgs(n, radix, rank, tensors), "{plane:?}, {n} ranks, rank {rank}");
                }
            }
        }
        // §V-A3's claim at 16 ranks: 2(N−1)·T at the centralized root
        // against 2r·T at the tree's.
        let (_, central) = run_coordination(16, ControlPlane::Centralized, tensors, true);
        let (_, tree) = run_coordination(16, ControlPlane::Hierarchical { radix: 2 }, tensors, true);
        assert_eq!((central[0], tree[0]), (2 * 15 * 24, 2 * 2 * 24));
    }

    #[test]
    fn radix_choice_does_not_change_agreement() {
        // §V-A3: "no measurable performance difference for r between 2 and
        // 8" — and certainly no *semantic* difference. Every rank stays
        // within 2(r+1) messages per tensor, exactly as the tree predicts.
        for radix in [2, 3, 4, 8] {
            let (orders, msgs) = run_coordination(9, ControlPlane::Hierarchical { radix }, 7, true);
            for o in &orders[1..] {
                assert_eq!(o, &orders[0], "radix {radix}");
            }
            for (rank, &m) in msgs.iter().enumerate() {
                assert_eq!(m, expected_msgs(9, radix, rank, 7), "radix {radix}, rank {rank}");
                assert!(m as usize <= 2 * (radix + 1) * 7, "radix {radix}, rank {rank}: {m}");
            }
        }
    }

    #[test]
    fn single_rank_is_trivial() {
        let (orders, msgs) = run_coordination(1, ControlPlane::Hierarchical { radix: 4 }, 3, false);
        assert_eq!(orders[0], vec![0, 1, 2]);
        assert_eq!(msgs, vec![0]);
    }

    #[test]
    fn dead_rank_aborts_coordination_with_typed_error() {
        // Rank 2 dies before coordinating; survivors must detect it (not
        // spin) and name a failed edge.
        let comms = CommWorld::with_deadline(3, Duration::from_millis(200));
        let mut it = comms.into_iter();
        let c0 = it.next().expect("rank 0");
        let c1 = it.next().expect("rank 1");
        drop(it.next()); // rank 2 crashes
        let spawn = |mut c: Communicator| {
            thread::spawn(move || {
                let coord = Coordinator::new(ControlPlane::Hierarchical { radix: 2 }, 4);
                coord.try_coordinate(&mut c, &[0, 1, 2, 3]).err()
            })
        };
        let (h0, h1) = (spawn(c0), spawn(c1));
        for (rank, h) in [(0, h0), (1, h1)] {
            let err = h.join().expect("join").expect("survivor must error");
            assert!(err.is_peer_failure(), "rank {rank}: {err}");
        }
    }

    #[test]
    fn silent_rank_times_out_with_diagnostics() {
        // Rank 1 exists but never coordinates: rank 0 must time out and
        // report who it waited on.
        let comms = CommWorld::with_deadline(2, Duration::from_millis(100));
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let _c1 = it.next().expect("rank 1 silent");
        let coord = Coordinator::new(ControlPlane::Centralized, 2);
        match coord.try_coordinate(&mut c0, &[0, 1]) {
            Err(CommError::Timeout { rank: 0, src: 1, .. }) => {}
            other => panic!("expected root timeout on rank 1, got {other:?}"),
        }
    }

    #[test]
    fn dead_peer_mid_coordination_is_detected_after_partial_progress() {
        // Rank 2 reports readiness for *one* tensor, then crashes. With
        // rank 1's report, tensor 0 completes at the root, which begins it:
        // the relay reaches rank 1 and fails on dead rank 2. Rank 1, past
        // its three reports, then finds its parent gone.
        let comms = CommWorld::with_deadline(3, Duration::from_secs(5));
        let mut it = comms.into_iter();
        let c0 = it.next().expect("rank 0");
        let c1 = it.next().expect("rank 1");
        let mut c2 = it.next().expect("rank 2");
        c2.try_send_bytes(0, TAG_READY, id(0)).expect("partial readiness");
        drop(c2); // crash after the partial report
        let coord = Coordinator::new(ControlPlane::Hierarchical { radix: 2 }, 3);
        let spawn = |mut c: Communicator| {
            let coord = coord.clone();
            thread::spawn(move || (coord.try_coordinate(&mut c, &[0, 1, 2]).err(), c))
        };
        let (h0, h1) = (spawn(c0), spawn(c1));
        let (root_err, mut c0) = h0.join().expect("join");
        assert_eq!(root_err, Some(CommError::SendFailed { rank: 0, dst: 2 }));
        // The root took one of rank 1's three reports; draining the other
        // two proves rank 1 has sent them before the root's endpoint drops.
        for t in [1, 2] {
            assert_eq!(c0.try_recv_bytes(1, TAG_READY), Ok(id(t)));
        }
        drop(c0);
        let (child_err, _c1) = h1.join().expect("join");
        assert_eq!(child_err, Some(CommError::PeerDead { rank: 1, src: 0 }));
    }

    #[test]
    fn deadline_expiry_mid_coordination_names_the_stuck_edge() {
        // Rank 1 stays *alive* but reports only one of two tensors: no
        // dead peer to blame, so the root must convert the stall into a
        // Timeout naming the readiness edge it is stuck on.
        let comms = CommWorld::with_deadline(2, Duration::from_millis(150));
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let mut c1 = it.next().expect("rank 1 holds its endpoint");
        c1.try_send_bytes(0, TAG_READY, id(0)).expect("partial readiness");
        let coord = Coordinator::new(ControlPlane::Centralized, 2);
        match coord.try_coordinate(&mut c0, &[0, 1]) {
            Err(CommError::Timeout { rank: 0, src: 1, tag, .. }) => {
                assert_eq!(tag, TAG_READY, "the root stalls waiting for readiness");
            }
            other => panic!("expected mid-round timeout, got {other:?}"),
        }
        drop(c1);
    }

    #[test]
    fn malformed_readiness_is_a_typed_error_naming_the_sender() {
        // An id out of range, a repeated id and a short payload: each is
        // refused as MalformedPayload from rank 1, never an index panic.
        let cases: [&[Vec<u8>]; 3] = [&[id(99)], &[id(0), id(0)], &[vec![0, 0, 0]]];
        for sent in cases {
            let comms = CommWorld::with_deadline(2, Duration::from_secs(5));
            let mut it = comms.into_iter();
            let mut c0 = it.next().expect("rank 0");
            let mut c1 = it.next().expect("rank 1");
            for m in sent {
                c1.try_send_bytes(0, TAG_READY, m.clone()).expect("send");
            }
            let coord = Coordinator::new(ControlPlane::Centralized, 2);
            match coord.try_coordinate(&mut c0, &[0, 1]) {
                Err(e @ CommError::MalformedPayload { rank: 0, root: 1, .. }) => assert!(!e.is_peer_failure()),
                other => panic!("{sent:?}: expected MalformedPayload from rank 1, got {other:?}"),
            }
        }
    }
}
