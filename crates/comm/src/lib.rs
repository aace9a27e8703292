//! # exaclim-comm
//!
//! In-process collective communication: the MPI + NCCL substrate of the
//! paper's distributed training, with OS threads standing in for MPI ranks.
//!
//! * [`CommWorld::new`] builds `n` connected [`Communicator`]s (one per
//!   rank thread) with FIFO point-to-point channels.
//! * Collectives: [`Communicator::try_allreduce_ring`] (NCCL's systolic
//!   ring), [`Communicator::try_allreduce_tree`] (binomial reduce +
//!   broadcast),
//!   and [`Communicator::try_hierarchical_allreduce`] — the paper's
//!   hybrid (§V-A3): NCCL-style ring *within* a node, then a subset of
//!   local ranks (4 on Summit, matching its 4 virtual IB devices) each
//!   all-reducing a shard of the buffer *across* nodes, then an
//!   intra-node broadcast of shards.
//! * [`Rendezvous`] rebuilds the world for a new membership generation
//!   when ranks join or leave (elastic training).
//!
//! Every collective is **deterministic and replica-consistent**: all ranks
//! finish with bitwise-identical buffers, the property that keeps
//! synchronous data-parallel replicas identical (§V-A3 "identical
//! updates"). Message and byte counters per rank feed the control-plane
//! analysis.

//!
//! Every blocking receive carries a deadline (30 s, or the one given to
//! [`CommWorld::with_deadline`]), and every failure
//! mode — timeout, dead peer, payload-type mismatch, protocol-tag
//! mismatch, incomplete world rendezvous — is a typed [`CommError`].
//! The API is uniformly fallible (`try_*`): callers that cannot recover
//! `.expect` the result and die with the formatted edge diagnosis,
//! while the fault-tolerant layers (staging retry, elastic membership)
//! match on the variant and survive.

pub mod elastic;
pub mod error;
pub mod world;

pub use elastic::Rendezvous;
pub use error::CommError;
pub use world::{CommStats, CommWorld, Communicator};

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<F>(n: usize, f: F) -> Vec<Vec<f32>>
    where
        F: Fn(&mut Communicator, Vec<f32>) -> Vec<f32> + Send + Sync + Clone + 'static,
    {
        let comms = CommWorld::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, mut comm)| {
                let f = f.clone();
                thread::spawn(move || {
                    let input: Vec<f32> = (0..8).map(|i| (rank * 8 + i) as f32).collect();
                    f(&mut comm, input)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    }

    fn expected_sum(n: usize) -> Vec<f32> {
        (0..8)
            .map(|i| (0..n).map(|r| (r * 8 + i) as f32).sum())
            .collect()
    }

    #[test]
    fn ring_allreduce_sums_everywhere() {
        for n in [1, 2, 3, 4, 7] {
            let results = run_world(n, |c, mut buf| {
                c.try_allreduce_ring(&mut buf).expect("allreduce");
                buf
            });
            let want = expected_sum(n);
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &want, "rank {rank} of {n}");
            }
        }
    }

    #[test]
    fn tree_allreduce_sums_everywhere() {
        for n in [1, 2, 3, 5, 8] {
            let results = run_world(n, |c, mut buf| {
                c.try_allreduce_tree(&mut buf).expect("allreduce");
                buf
            });
            let want = expected_sum(n);
            for r in &results {
                assert_eq!(r, &want, "n = {n}");
            }
        }
    }

    #[test]
    fn hierarchical_allreduce_matches_flat() {
        // 2 "nodes" × 3 "GPUs", 2 shard leaders per node (Summit: 4).
        for (n, node, leaders) in [(6, 3, 2), (8, 4, 4), (4, 2, 1), (6, 2, 2)] {
            let results = run_world(n, move |c, mut buf| {
                c.try_hierarchical_allreduce(&mut buf, node, leaders).expect("allreduce");
                buf
            });
            let want = expected_sum(n);
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &want, "rank {rank}, n={n}, node={node}, s={leaders}");
            }
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..4 {
            let results = run_world(4, move |c, mut buf| {
                if c.rank() != root {
                    buf = vec![0.0; 8];
                }
                c.try_broadcast(root, &mut buf).expect("broadcast");
                buf
            });
            let want: Vec<f32> = (0..8).map(|i| (root * 8 + i) as f32).collect();
            for r in &results {
                assert_eq!(r, &want, "root {root}");
            }
        }
    }

    #[test]
    fn collectives_are_bitwise_replica_consistent() {
        // Non-associative floating-point inputs: all ranks must still end
        // with *identical* bits (the property that keeps replicas in sync).
        let results = run_world(5, |c, _| {
            let mut buf: Vec<f32> = (0..16)
                .map(|i| ((c.rank() + 1) as f32 * 0.1 + i as f32 * 1e-7).powi(3))
                .collect();
            c.try_allreduce_ring(&mut buf).expect("allreduce");
            buf
        });
        for r in &results[1..] {
            assert_eq!(
                r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                results[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sequential_collectives_do_not_cross_talk() {
        let results = run_world(3, |c, mut buf| {
            c.try_allreduce_ring(&mut buf).expect("allreduce");
            let mut second = vec![c.rank() as f32; 4];
            c.try_allreduce_tree(&mut second).expect("allreduce");
            buf.extend(second);
            buf
        });
        let mut want = expected_sum(3);
        want.extend(vec![3.0f32; 4]); // 0+1+2
        for r in &results {
            assert_eq!(r, &want);
        }
    }

    #[test]
    fn message_stats_are_counted() {
        let comms = CommWorld::new(2);
        let stats = comms[0].stats();
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    let mut buf = vec![1.0f32; 4];
                    c.try_allreduce_ring(&mut buf).expect("allreduce");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }
        assert!(stats.messages_sent(0) > 0);
        assert!(stats.bytes_sent(0) > 0);
        assert_eq!(stats.messages_sent(0), stats.messages_received(1));
    }

    #[test]
    fn recv_times_out_with_edge_diagnostics() {
        use std::time::Duration;
        let comms = CommWorld::with_deadline(2, Duration::from_millis(50));
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let _c1 = it.next().expect("rank 1"); // alive but silent
        match c0.try_recv_f32(1, 42) {
            Err(CommError::Timeout { rank, src, tag, waited }) => {
                assert_eq!((rank, src, tag), (0, 1, 42));
                assert_eq!(waited, Duration::from_millis(50));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn dead_peer_is_detected_not_hung() {
        use std::time::Duration;
        let comms = CommWorld::with_deadline(2, Duration::from_secs(5));
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        drop(it.next()); // rank 1 "crashes"
        match c0.try_recv_f32(1, 7) {
            Err(CommError::PeerDead { rank: 0, src: 1 }) => {}
            other => panic!("expected PeerDead, got {other:?}"),
        }
        // Sends to the dead peer fail too.
        match c0.try_send_f32(1, 7, vec![1.0]) {
            Err(CommError::SendFailed { rank: 0, dst: 1 }) => {}
            other => panic!("expected SendFailed, got {other:?}"),
        }
    }

    #[test]
    fn messages_from_dying_peer_are_drained_before_death_reported() {
        let comms = CommWorld::new(2);
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let mut c1 = it.next().expect("rank 1");
        c1.try_send_f32(0, 3, vec![9.0]).expect("send");
        drop(c1);
        // The in-flight message survives the sender's death…
        assert_eq!(c0.try_recv_f32(1, 3), Ok(vec![9.0]));
        // …and only then is the peer reported dead.
        assert!(matches!(c0.try_recv_f32(1, 4), Err(CommError::PeerDead { .. })));
    }

    #[test]
    fn payload_type_mismatch_is_typed() {
        let comms = CommWorld::new(2);
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let mut c1 = it.next().expect("rank 1");
        c1.try_send_bytes(0, 5, vec![1, 2, 3]).expect("send");
        match c0.try_recv_f32(1, 5) {
            Err(CommError::TypeMismatch { rank: 0, src: 1, tag: 5, expected: "f32", got: "bytes" }) => {}
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
        c1.try_send_f32(0, 6, vec![1.0]).expect("send");
        assert!(matches!(
            c0.try_recv_bytes(1, 6),
            Err(CommError::TypeMismatch { expected: "bytes", got: "f32", .. })
        ));
    }

    #[test]
    fn tag_mismatch_is_typed() {
        let comms = CommWorld::new(2);
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let mut c1 = it.next().expect("rank 1");
        c1.try_send_f32(0, 10, vec![1.0]).expect("send");
        assert!(matches!(
            c0.try_recv_f32(1, 11),
            Err(CommError::TagMismatch { expected: 11, got: 10, .. })
        ));
    }

    #[test]
    fn collective_surfaces_peer_death() {
        use std::time::Duration;
        // 3-rank ring; rank 2 dies before participating. Both survivors
        // must get a typed error, not hang.
        let comms = CommWorld::with_deadline(3, Duration::from_millis(200));
        let mut it = comms.into_iter();
        let c0 = it.next().expect("rank 0");
        let c1 = it.next().expect("rank 1");
        drop(it.next()); // rank 2 crashes pre-collective
        let spawn = |mut c: Communicator| {
            thread::spawn(move || {
                let mut buf = vec![1.0f32; 8];
                c.try_allreduce_ring(&mut buf).err()
            })
        };
        let (h0, h1) = (spawn(c0), spawn(c1));
        let e0 = h0.join().expect("t0").expect("rank 0 must fail");
        let e1 = h1.join().expect("t1").expect("rank 1 must fail");
        assert!(e0.is_peer_failure(), "{e0}");
        assert!(e1.is_peer_failure(), "{e1}");
    }

    #[test]
    fn point_to_point_roundtrip() {
        let comms = CommWorld::new(2);
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let mut c1 = it.next().expect("rank 1");
        let t0 = thread::spawn(move || {
            c0.try_send_f32(1, 7, vec![1.0, 2.0]).expect("send");
            c0.try_recv_f32(1, 8).expect("recv")
        });
        let t1 = thread::spawn(move || {
            let got = c1.try_recv_f32(0, 7).expect("recv");
            c1.try_send_f32(0, 8, vec![got[0] * 10.0, got[1] * 10.0]).expect("send");
            got
        });
        assert_eq!(t0.join().expect("t0"), vec![10.0, 20.0]);
        assert_eq!(t1.join().expect("t1"), vec![1.0, 2.0]);
    }
}
