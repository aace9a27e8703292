//! Communicator implementation: FIFO point-to-point channels plus
//! deterministic collectives.
//!
//! Every receive is a blocking receive from a named peer with a deadline
//! (30 s, or the one given to [`CommWorld::with_deadline`]), so a lost
//! peer turns a would-be hang into a typed [`CommError`] naming who waited
//! on whom for which tag. There is no polling or any-source receive: a
//! protocol states whom it waits on, and the receive's error is its
//! diagnosis.
//! The whole API is fallible (`try_*`): every caller decides whether a
//! dead peer means "crash with the diagnosis" (`.expect`) or "survive
//! and reconfigure the world" (the fault-tolerant and elastic trainers).

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::CommError;

/// One point-to-point message.
struct Message {
    tag: u64,
    payload: Payload,
}

/// Message payload.
enum Payload {
    /// Gradient/tensor data.
    F32(Vec<f32>),
    /// Control-plane bytes.
    Bytes(Vec<u8>),
}

/// The receive deadline of [`CommWorld::new`]: generous enough for any
/// healthy in-process collective, finite so a dead peer can never hang a
/// test run indefinitely.
const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Shared per-world counters, indexable by rank.
pub struct CommStats {
    sent: Vec<AtomicU64>,
    received: Vec<AtomicU64>,
    bytes_sent: Vec<AtomicU64>,
}

impl CommStats {
    /// Messages sent by `rank`.
    pub fn messages_sent(&self, rank: usize) -> u64 {
        self.sent[rank].load(Ordering::Relaxed)
    }

    /// Messages received by `rank`.
    pub fn messages_received(&self, rank: usize) -> u64 {
        self.received[rank].load(Ordering::Relaxed)
    }

    /// Payload bytes sent by `rank`.
    pub fn bytes_sent(&self, rank: usize) -> u64 {
        self.bytes_sent[rank].load(Ordering::Relaxed)
    }

    /// Resets all counters.
    pub fn reset(&self) {
        for a in self.sent.iter().chain(&self.received).chain(&self.bytes_sent) {
            a.store(0, Ordering::Relaxed);
        }
    }
}

/// Factory for connected communicators.
pub struct CommWorld;

impl CommWorld {
    /// Builds `n` communicators wired all-to-all; move each into its rank's
    /// thread. (A factory returning the endpoints, not `Self`.)
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<Communicator> {
        CommWorld::with_deadline(n, DEFAULT_RECV_DEADLINE)
    }

    /// Like [`CommWorld::new`] but with an explicit receive deadline —
    /// fault-tolerant callers use a short one so a dead rank is detected
    /// in milliseconds rather than the default 30 s.
    pub fn with_deadline(n: usize, recv_deadline: Duration) -> Vec<Communicator> {
        assert!(n > 0, "world size must be positive");
        // One channel per (src, dst): senders[src][dst], receivers[dst][src].
        let mut receivers: Vec<Vec<Receiver<Message>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let senders: Vec<Vec<Sender<Message>>> = (0..n)
            .map(|_| {
                (receivers.iter_mut())
                    .map(|column| {
                        let (tx, rx) = unbounded();
                        column.push(rx);
                        tx
                    })
                    .collect()
            })
            .collect();
        let stats = Arc::new(CommStats {
            sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            received: (0..n).map(|_| AtomicU64::new(0)).collect(),
            bytes_sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
        receivers
            .into_iter()
            .zip(senders)
            .enumerate()
            .map(|(rank, (rx, tx))| Communicator {
                rank,
                size: n,
                senders: tx,
                receivers: rx,
                stats: stats.clone(),
                op_seq: 0,
                recv_deadline,
            })
            .collect()
    }
}

/// A rank's endpoint: point-to-point sends/receives and collectives.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receivers: Vec<Receiver<Message>>,
    stats: Arc<CommStats>,
    op_seq: u64,
    recv_deadline: Duration,
}

impl Communicator {
    /// This communicator's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Shared message counters.
    pub fn stats(&self) -> Arc<CommStats> {
        self.stats.clone()
    }

    fn try_send_msg(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), CommError> {
        let bytes = match &payload {
            Payload::F32(v) => v.len() * 4,
            Payload::Bytes(b) => b.len(),
        };
        self.stats.sent[self.rank].fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_sent[self.rank].fetch_add(bytes as u64, Ordering::Relaxed);
        self.senders[dst]
            .send(Message { tag, payload })
            .map_err(|_| CommError::SendFailed { rank: self.rank, dst })
    }

    /// The one receive: blocks on `src`'s channel up to the deadline. A
    /// dropped peer's queued messages are delivered before its death is.
    fn try_recv_msg(&mut self, src: usize, tag: u64) -> Result<Payload, CommError> {
        let msg = self.receivers[src].recv_timeout(self.recv_deadline).map_err(|e| match e {
            RecvTimeoutError::Disconnected => CommError::PeerDead { rank: self.rank, src },
            RecvTimeoutError::Timeout => CommError::Timeout {
                rank: self.rank,
                src,
                tag,
                waited: self.recv_deadline,
            },
        })?;
        if msg.tag != tag {
            return Err(CommError::TagMismatch {
                rank: self.rank,
                src,
                expected: tag,
                got: msg.tag,
            });
        }
        self.stats.received[self.rank].fetch_add(1, Ordering::Relaxed);
        Ok(msg.payload)
    }

    /// Sends a tensor buffer to `dst`.
    pub(crate) fn try_send_f32(&mut self, dst: usize, tag: u64, data: Vec<f32>) -> Result<(), CommError> {
        self.try_send_msg(dst, tag, Payload::F32(data))
    }

    /// Receives a tensor buffer from `src` (FIFO per peer; tags are
    /// protocol assertions): a dead peer or an expired deadline comes
    /// back as a [`CommError`] instead of a hang.
    pub(crate) fn try_recv_f32(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        match self.try_recv_msg(src, tag)? {
            Payload::F32(v) => Ok(v),
            Payload::Bytes(_) => Err(CommError::TypeMismatch { rank: self.rank, src, tag, expected: "f32", got: "bytes" }),
        }
    }

    /// Sends control bytes to `dst`.
    pub fn try_send_bytes(&mut self, dst: usize, tag: u64, data: Vec<u8>) -> Result<(), CommError> {
        self.try_send_msg(dst, tag, Payload::Bytes(data))
    }

    /// Receives control bytes from `src`.
    pub fn try_recv_bytes(&mut self, src: usize, tag: u64) -> Result<Vec<u8>, CommError> {
        match self.try_recv_msg(src, tag)? {
            Payload::Bytes(b) => Ok(b),
            Payload::F32(_) => Err(CommError::TypeMismatch { rank: self.rank, src, tag, expected: "bytes", got: "f32" }),
        }
    }

    fn next_tag(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq << 32
    }

    /// Binomial-tree broadcast from `root` (in place).
    pub fn try_broadcast(&mut self, root: usize, buf: &mut Vec<f32>) -> Result<(), CommError> {
        let tag = self.next_tag();
        let group: Vec<usize> = (0..self.size).collect();
        self.broadcast_group(&group, root, buf, tag, Self::try_recv_f32, Payload::F32)
    }

    /// [`try_broadcast`](Communicator::try_broadcast) of a byte buffer —
    /// the elastic layer ships serialized optimizer state to joining ranks
    /// with it.
    pub fn try_broadcast_bytes(&mut self, root: usize, buf: &mut Vec<u8>) -> Result<(), CommError> {
        let tag = self.next_tag();
        let group: Vec<usize> = (0..self.size).collect();
        self.broadcast_group(&group, root, buf, tag, Self::try_recv_bytes, Payload::Bytes)
    }

    /// Ring all-reduce (sum) over all ranks — NCCL's systolic algorithm:
    /// a reduce-scatter pass followed by an all-gather pass, 2·(n−1) steps.
    pub fn try_allreduce_ring(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        let tag = self.next_tag();
        let group: Vec<usize> = (0..self.size).collect();
        self.ring_allreduce_group(&group, buf, tag)
    }

    /// Binomial reduce-to-root + broadcast all-reduce.
    pub fn try_allreduce_tree(&mut self, buf: &mut Vec<f32>) -> Result<(), CommError> {
        let tag = self.next_tag();
        let group: Vec<usize> = (0..self.size).collect();
        self.tree_reduce_group(&group, 0, buf, tag)?;
        self.broadcast_group(&group, 0, buf, tag | 1 << 24, Self::try_recv_f32, Payload::F32)
    }

    /// The paper's hybrid hierarchical all-reduce (§V-A3):
    ///
    /// 1. ring all-reduce among the `node_size` ranks of each node (NCCL
    ///    over NVLink),
    /// 2. `shard_leaders` ranks per node each all-reduce a `1/s` shard of
    ///    the buffer across nodes (MPI over InfiniBand; 4 leaders ↔
    ///    Summit's 4 virtual IB devices),
    /// 3. each leader broadcasts its finished shard within the node (NCCL).
    ///
    /// # Panics
    /// Panics unless `node_size` divides the world size and
    /// `1 ≤ shard_leaders ≤ node_size`.
    pub fn try_hierarchical_allreduce(
        &mut self,
        buf: &mut [f32],
        node_size: usize,
        shard_leaders: usize,
    ) -> Result<(), CommError> {
        assert!(node_size >= 1 && self.size.is_multiple_of(node_size), "node_size must divide world size");
        assert!(shard_leaders >= 1 && shard_leaders <= node_size, "invalid shard leader count");
        let seq = self.next_tag();
        let node = self.rank / node_size;
        let local = self.rank % node_size;
        let node_group: Vec<usize> = (0..node_size).map(|l| node * node_size + l).collect();
        let n_nodes = self.size / node_size;

        // Phase 1: intra-node ring reduce (all locals end with node sum).
        self.ring_allreduce_group(&node_group, buf, seq)?;

        if n_nodes > 1 {
            // Phase 2: shard leaders reduce across nodes.
            let len = buf.len();
            if local < shard_leaders {
                let lo = local * len / shard_leaders;
                let hi = (local + 1) * len / shard_leaders;
                let cross_group: Vec<usize> = (0..n_nodes).map(|g| g * node_size + local).collect();
                self.ring_allreduce_group(&cross_group, &mut buf[lo..hi], seq | 1 << 24)?;
            }
            // Phase 3: broadcast each shard within the node.
            for leader in 0..shard_leaders {
                let lo = leader * len / shard_leaders;
                let hi = (leader + 1) * len / shard_leaders;
                let mut shard = buf[lo..hi].to_vec();
                let tag = seq | 2 << 24 | (leader as u64) << 16;
                self.broadcast_group(&node_group, node_group[leader], &mut shard, tag, Self::try_recv_f32, Payload::F32)?;
                buf[lo..hi].copy_from_slice(&shard);
            }
        }
        Ok(())
    }

    // --- group primitives (callers pass a group containing self.rank) ----

    fn group_pos(&self, group: &[usize]) -> usize {
        group
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank must belong to the collective's group")
    }

    /// One binomial tree for both payload kinds: `recv` is the typed
    /// receive (a payload of the other kind is a `TypeMismatch`), `wrap`
    /// the matching [`Payload`] variant.
    fn broadcast_group<T: Clone>(
        &mut self,
        group: &[usize],
        root: usize,
        buf: &mut T,
        tag: u64,
        recv: fn(&mut Self, usize, u64) -> Result<T, CommError>,
        wrap: fn(T) -> Payload,
    ) -> Result<(), CommError> {
        let g = group.len();
        if g == 1 {
            return Ok(());
        }
        let root_pos = group.iter().position(|&r| r == root).expect("root in group");
        let me = (self.group_pos(group) + g - root_pos) % g; // relative position
        // Binomial tree on relative positions.
        if me != 0 {
            let parent = (me - 1) / 2;
            let src = group[(parent + root_pos) % g];
            *buf = recv(self, src, tag)?;
        }
        for child in [2 * me + 1, 2 * me + 2] {
            if child < g {
                let dst = group[(child + root_pos) % g];
                self.try_send_msg(dst, tag, wrap(buf.clone()))?;
            }
        }
        Ok(())
    }

    fn tree_reduce_group(&mut self, group: &[usize], root_pos: usize, buf: &mut [f32], tag: u64) -> Result<(), CommError> {
        let g = group.len();
        if g == 1 {
            return Ok(());
        }
        assert_eq!(root_pos, 0, "tree reduce assumes the group's first member is root");
        let me = self.group_pos(group);
        // Children push partial sums up a binomial tree (reverse broadcast
        // order so sums are deterministic: child 2m+2 then 2m+1).
        for child in [2 * me + 2, 2 * me + 1] {
            if child < g {
                let part = self.try_recv_f32(group[child], tag)?;
                for (a, b) in buf.iter_mut().zip(part.iter()) {
                    *a += *b;
                }
            }
        }
        if me != 0 {
            let parent = (me - 1) / 2;
            self.try_send_f32(group[parent], tag, buf.to_vec())?;
        }
        Ok(())
    }

    fn ring_allreduce_group(&mut self, group: &[usize], buf: &mut [f32], tag: u64) -> Result<(), CommError> {
        let g = group.len();
        if g == 1 {
            return Ok(());
        }
        let me = self.group_pos(group);
        let right = group[(me + 1) % g];
        let left = group[(me + g - 1) % g];
        let len = buf.len();
        let bounds = |i: usize| (i * len / g, (i + 1) * len / g);

        // Reduce-scatter: after g−1 steps, chunk (me+1)%g is complete here.
        for step in 0..g - 1 {
            let send_idx = (me + g - step) % g;
            let recv_idx = (me + g - step - 1) % g;
            let (slo, shi) = bounds(send_idx);
            self.try_send_f32(right, tag | (step as u64) << 8, buf[slo..shi].to_vec())?;
            let part = self.try_recv_f32(left, tag | (step as u64) << 8)?;
            let (rlo, rhi) = bounds(recv_idx);
            for (a, b) in buf[rlo..rhi].iter_mut().zip(part.iter()) {
                *a += *b;
            }
        }
        // All-gather: circulate finished chunks.
        for step in 0..g - 1 {
            let send_idx = (me + 1 + g - step) % g;
            let recv_idx = (me + g - step) % g;
            let (slo, shi) = bounds(send_idx);
            self.try_send_f32(right, tag | 1 << 20 | (step as u64) << 8, buf[slo..shi].to_vec())?;
            let part = self.try_recv_f32(left, tag | 1 << 20 | (step as u64) << 8)?;
            let (rlo, rhi) = bounds(recv_idx);
            buf[rlo..rhi].copy_from_slice(&part);
        }
        Ok(())
    }
}
