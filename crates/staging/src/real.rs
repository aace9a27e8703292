//! A real miniature staging system.
//!
//! Thread "nodes" stage an on-disk CDF5 dataset two ways:
//!
//! * **naive** — every node opens the shared files and reads every sample
//!   it needs (each file opened by many nodes);
//! * **distributed** — every node reads only the needed samples of its
//!   disjoint owned partition and forwards copies over channels (the
//!   "InfiniBand"), exactly the §V-A1 protocol.
//!
//! Both must deliver bit-identical shards; the test suite verifies it.

use crate::assign::StagingPlan;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use exaclim_climsim::cdf5::StoredSample;
use exaclim_climsim::ClimateDataset;
use exaclim_faults::FaultPlan;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A node's staged shard: sample index → payload.
pub type Shard = HashMap<usize, StoredSample>;

/// Outcome of a real staging run.
#[derive(Debug)]
pub struct RealStagingReport {
    /// Per-node shards in node order.
    pub shards: Vec<Shard>,
    /// Wall time, seconds.
    pub wall_time: f64,
    /// Total samples read from disk across all nodes.
    pub disk_reads: usize,
    /// Sample copies forwarded over channels.
    pub forwarded: usize,
    /// Recovery rounds run after reader-node deaths (0 on a healthy run).
    pub retries: usize,
    /// Samples whose filesystem ownership moved to a survivor.
    pub reassigned_samples: usize,
    /// Nodes that died mid-staging, in death order.
    pub crashed_nodes: Vec<usize>,
}

/// Naive staging: every node reads all its needed samples from the shared
/// dataset directly.
pub fn stage_naive(dataset: &Arc<ClimateDataset>, plan: &StagingPlan) -> RealStagingReport {
    let t0 = Instant::now();
    let mut disk_reads = 0;
    let shards: Vec<Shard> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.nodes)
            .map(|node| {
                let ds = dataset.clone();
                let needs = plan.needs[node].clone();
                scope.spawn(move || {
                    let mut shard = Shard::new();
                    for s in needs {
                        shard.insert(s, ds.sample(s).expect("dataset read"));
                    }
                    shard
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("node")).collect()
    });
    for s in &shards {
        disk_reads += s.len();
    }
    RealStagingReport {
        shards,
        wall_time: t0.elapsed().as_secs_f64(),
        disk_reads,
        forwarded: 0,
        retries: 0,
        reassigned_samples: 0,
        crashed_nodes: Vec::new(),
    }
}

enum Wire {
    Sample { index: usize, payload: StoredSample },
    Done,
}

/// Staging rounds at most: the first attempt plus recovery rounds.
const MAX_ATTEMPTS: usize = 4;
/// Backoff before recovery round `k` is `BASE_BACKOFF · 2^(k−1)`.
const BASE_BACKOFF: Duration = Duration::from_millis(5);
/// How long a collector waits with no traffic before concluding the
/// missing `Done`s will never come (a peer died).
const QUIET_TIMEOUT: Duration = Duration::from_millis(250);

/// Distributed staging: disjoint reads + channel redistribution. The
/// healthy case of [`stage_distributed_faulty`].
pub fn stage_distributed(dataset: &Arc<ClimateDataset>, plan: &StagingPlan) -> RealStagingReport {
    stage_distributed_faulty(dataset, plan, &FaultPlan::none())
}

/// What a node thread reports back to the staging driver.
enum NodeRun {
    /// Samples collected this round, disk reads, forwards.
    Finished(Shard, usize, usize),
    /// The node crashed (fault-injected) after this many reads; whatever
    /// it forwarded before dying is in flight, its own partial shard is
    /// lost, and it sent no `Done` and will never answer again.
    Crashed(usize, usize),
}

/// Distributed staging that survives reader-node deaths.
///
/// Runs the §V-A1 protocol in rounds. In each round every live node reads
/// the samples it owns that some live node still misses — each exactly
/// once — forwards copies to the nodes that need them, sends `Done` to
/// every participant and collects its own copies. A node whose
/// [`FaultPlan`] entry says "crash after `k` owned reads" performs `k`
/// reads, forwards them, then drops all its endpoints without sending
/// `Done` — exactly the signature of a real node death. Survivors detect
/// the silence through a quiet-period timeout, the driver moves the dead
/// node's ownership to survivors ([`StagingPlan::reassign_owners`]), and a
/// recovery round (after bounded exponential backoff) re-reads what is
/// still missing. Surviving nodes always end with complete, bit-identical
/// shards; the report counts rounds, reassignments, and deaths.
pub fn stage_distributed_faulty(
    dataset: &Arc<ClimateDataset>,
    plan: &StagingPlan,
    faults: &FaultPlan,
) -> RealStagingReport {
    let t0 = Instant::now();
    let n = plan.nodes;
    // A working copy: ownership moves off readers that die.
    let mut working = plan.clone();
    let mut alive = vec![true; n];
    let mut shards: Vec<Shard> = vec![Shard::new(); n];
    let mut disk_reads = 0usize;
    let mut forwarded = 0usize;
    let mut retries = 0usize;
    let mut reassigned_samples = 0usize;
    let mut crashed_nodes: Vec<usize> = Vec::new();

    for attempt in 0..MAX_ATTEMPTS {
        // What does each surviving node still miss? (Nothing, for the dead.)
        let missing: Vec<Vec<usize>> = (0..n)
            .map(|node| {
                if !alive[node] {
                    return Vec::new();
                }
                plan.needs[node]
                    .iter()
                    .copied()
                    .filter(|s| !shards[node].contains_key(s))
                    .collect()
            })
            .collect();
        if missing.iter().all(|m| m.is_empty()) {
            break;
        }
        if attempt > 0 {
            retries += 1;
            std::thread::sleep(BASE_BACKOFF * 2u32.pow((attempt - 1) as u32));
        }

        let participants: Vec<usize> = (0..n).filter(|&node| alive[node]).collect();
        // Fresh channels each round (no stale traffic across rounds).
        let mut txs: Vec<Sender<Wire>> = Vec::with_capacity(n);
        let mut rxs: Vec<Option<Receiver<Wire>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(Some(rx));
        }

        let results: Vec<(usize, NodeRun)> = std::thread::scope(|scope| {
            let (working, missing, participants) = (&working, &missing, &participants);
            let handles: Vec<_> = participants
                .iter()
                .map(|&node| {
                    let txs = txs.clone();
                    let rx = rxs[node].take().expect("receiver");
                    // The injected crash strikes once, on the node's first
                    // staging round.
                    let crash_after = if attempt == 0 { faults.crash_after_reads(node) } else { None };
                    scope.spawn(move || {
                        let mut shard = Shard::new();
                        let mut reads = 0usize;
                        let mut forwards = 0usize;
                        // Phase 1: read owned samples that some surviving
                        // node still misses; forward copies.
                        let to_read: Vec<usize> = working
                            .owned_by(node)
                            .into_iter()
                            .filter(|s| missing.iter().any(|m| m.contains(s)))
                            .collect();
                        for s in to_read {
                            if crash_after == Some(reads) {
                                // Node death: drop every endpoint without a
                                // Done. Peers must detect this, not hang.
                                return (node, NodeRun::Crashed(reads, forwards));
                            }
                            let payload = dataset.sample(s).expect("dataset read");
                            reads += 1;
                            for (dst, miss) in missing.iter().enumerate() {
                                if !miss.contains(&s) {
                                    continue;
                                }
                                if dst == node {
                                    shard.insert(s, payload.clone());
                                } else {
                                    forwards += 1;
                                    // A send can only fail if the peer died
                                    // this round; its loss is handled by the
                                    // next round.
                                    let _ = txs[dst].send(Wire::Sample { index: s, payload: payload.clone() });
                                }
                            }
                        }
                        if crash_after == Some(reads) {
                            return (node, NodeRun::Crashed(reads, forwards));
                        }
                        for &p in participants {
                            let _ = txs[p].send(Wire::Done);
                        }
                        // Phase 2: collect copies until every participant's
                        // Done arrived — or the line goes quiet (someone
                        // died mid-round).
                        let mut done = 0usize;
                        while done < participants.len() {
                            match rx.recv_timeout(QUIET_TIMEOUT) {
                                Ok(Wire::Sample { index, payload }) => {
                                    shard.insert(index, payload);
                                }
                                Ok(Wire::Done) => done += 1,
                                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        (node, NodeRun::Finished(shard, reads, forwards))
                    })
                })
                .collect();
            drop(txs);
            handles.into_iter().map(|h| h.join().expect("node thread")).collect()
        });

        // Merge deltas; record deaths.
        for (node, run) in results {
            match run {
                NodeRun::Finished(delta, reads, fwds) => {
                    shards[node].extend(delta);
                    disk_reads += reads;
                    forwarded += fwds;
                }
                NodeRun::Crashed(reads, fwds) => {
                    // The dead node's partial shard dies with it; its
                    // pre-death reads/forwards still happened (and the
                    // forwarded copies were delivered).
                    disk_reads += reads;
                    forwarded += fwds;
                    alive[node] = false;
                    crashed_nodes.push(node);
                    shards[node].clear();
                }
            }
        }
        // Survivors take over the dead readers' ownership.
        let survivors: Vec<usize> = (0..n).filter(|&x| alive[x]).collect();
        if survivors.is_empty() {
            break;
        }
        reassigned_samples += working.reassign_owners(&survivors);
    }

    RealStagingReport {
        shards,
        wall_time: t0.elapsed().as_secs_f64(),
        disk_reads,
        forwarded,
        retries,
        reassigned_samples,
        crashed_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_climsim::dataset::DatasetConfig;

    fn tiny_dataset() -> Arc<ClimateDataset> {
        let mut cfg = DatasetConfig::small(21, 12);
        cfg.generator.h = 24;
        cfg.generator.w = 36;
        Arc::new(ClimateDataset::in_memory(&cfg))
    }

    #[test]
    fn both_strategies_deliver_identical_shards() {
        let ds = tiny_dataset();
        let plan = StagingPlan::build(12, 4, 6, 5);
        let naive = stage_naive(&ds, &plan);
        let dist = stage_distributed(&ds, &plan);
        for node in 0..4 {
            assert_eq!(
                naive.shards[node].len(),
                plan.needs[node].len(),
                "node {node} naive shard complete"
            );
            let a = &naive.shards[node];
            let b = &dist.shards[node];
            assert_eq!(a.len(), b.len(), "node {node} shard sizes");
            for (idx, sample) in a {
                assert_eq!(
                    b.get(idx).expect("distributed shard has the sample"),
                    sample,
                    "node {node} sample {idx} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn distributed_reads_each_sample_once() {
        let ds = tiny_dataset();
        let plan = StagingPlan::build(12, 3, 8, 6);
        let dist = stage_distributed(&ds, &plan);
        // 11 of the 12 samples are needed somewhere.
        assert_eq!(dist.disk_reads, 11, "one disk read per needed sample");
        let naive = stage_naive(&ds, &plan);
        assert_eq!(naive.disk_reads, 3 * 8, "naive reads every need");
        assert!(dist.forwarded > 0, "copies must flow over the network");
    }

    /// Explores 12 seeded schedules: every pair of 2–5 nodes and 0, 1 or 2
    /// scheduled reader deaths (one on 2 nodes, so a node survives), at
    /// drawn nodes and read counts (a count past the node's reads never
    /// fires). The healthy run
    /// reads every needed sample exactly once in one round; under faults
    /// the scheduled deaths happen, every survivor ends with exactly
    /// `stage_naive`'s shard, and a replay gives the same shards. A run
    /// with a death waits out one quiet timeout (250 ms): about 4 s.
    #[test]
    fn seeded_crash_schedules_leave_every_survivor_complete() {
        use rand::{Rng, SeedableRng};
        let ds = tiny_dataset();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for case in 0..12u64 {
            let nodes = 2 + case as usize % 4;
            let plan = StagingPlan::build(12, nodes, rng.gen_range(2..=8), case);
            let needed: std::collections::HashSet<usize> = plan.needs.iter().flatten().copied().collect();
            let naive = stage_naive(&ds, &plan);

            let healthy = stage_distributed(&ds, &plan);
            assert_eq!(healthy.disk_reads, needed.len(), "case {case}: one read per needed sample");
            assert_eq!(healthy.retries, 0, "case {case}");
            assert_eq!(healthy.shards, naive.shards, "case {case}: healthy shards");

            let mut faults = FaultPlan::seeded(case);
            let mut doomed = Vec::new();
            let deaths = (case as usize % 3).min(nodes - 1);
            for node in rand::seq::index::sample(&mut rng, nodes, deaths) {
                let reads = plan.owned_by(node).iter().filter(|s| needed.contains(s)).count();
                let after = rng.gen_range(0..=reads + 1);
                faults = faults.with_crash_after_reads(node, after);
                if after <= reads {
                    doomed.push(node);
                }
            }
            let run = stage_distributed_faulty(&ds, &plan, &faults);
            let mut dead = run.crashed_nodes.clone();
            dead.sort_unstable();
            doomed.sort_unstable();
            assert_eq!(dead, doomed, "case {case}: the scheduled deaths");
            for node in 0..nodes {
                if dead.contains(&node) {
                    assert!(run.shards[node].is_empty(), "case {case}: dead node {node} holds nothing");
                } else {
                    assert_eq!(run.shards[node], naive.shards[node], "case {case}: survivor {node}");
                }
            }
            // Deaths strike only the first round, so one recovery round
            // suffices (none when the dead had forwarded everything).
            assert!(run.retries <= usize::from(!dead.is_empty()), "case {case}: {} retries", run.retries);

            let replay = stage_distributed_faulty(&ds, &plan, &faults);
            assert_eq!(replay.crashed_nodes, run.crashed_nodes, "case {case}");
            assert_eq!(replay.shards, run.shards, "case {case}: replayed shards bit-identical");
        }
    }

    #[test]
    fn reader_death_recovers_with_reassignment() {
        let ds = tiny_dataset();
        let plan = StagingPlan::build(12, 4, 6, 5);
        // Node 1 dies after reading a single owned sample.
        let faults = FaultPlan::seeded(3).with_crash_after_reads(1, 1);
        let ft = stage_distributed_faulty(&ds, &plan, &faults);
        assert_eq!(ft.crashed_nodes, vec![1]);
        assert!(ft.retries >= 1, "a recovery round must run");
        assert!(ft.reassigned_samples > 0, "dead node's samples must be reassigned");
        // Every *survivor* ends with its complete shard, bit-identical to
        // the healthy protocol's.
        let reference = stage_distributed(&ds, &plan);
        for node in [0usize, 2, 3] {
            assert_eq!(
                ft.shards[node].len(),
                plan.needs[node].len(),
                "node {node} shard complete despite the crash"
            );
            assert_eq!(ft.shards[node], reference.shards[node], "node {node} bit-identical");
        }
        assert!(ft.shards[1].is_empty(), "the dead node holds nothing");
    }

    #[test]
    fn two_deaths_still_recover() {
        let ds = tiny_dataset();
        let plan = StagingPlan::build(12, 4, 6, 5);
        let faults = FaultPlan::seeded(4)
            .with_crash_after_reads(0, 0) // dies before reading anything
            .with_crash_after_reads(2, 2);
        let ft = stage_distributed_faulty(&ds, &plan, &faults);
        let mut dead = ft.crashed_nodes.clone();
        dead.sort_unstable();
        assert_eq!(dead, vec![0, 2]);
        let reference = stage_distributed(&ds, &plan);
        for node in [1usize, 3] {
            assert_eq!(ft.shards[node], reference.shards[node], "survivor {node} complete");
        }
    }

    #[test]
    fn faulty_staging_replay_is_deterministic() {
        let ds = tiny_dataset();
        let plan = StagingPlan::build(12, 3, 8, 6);
        let faults = FaultPlan::seeded(9).with_crash_after_reads(2, 1);
        let a = stage_distributed_faulty(&ds, &plan, &faults);
        let b = stage_distributed_faulty(&ds, &plan, &faults);
        assert_eq!(a.crashed_nodes, b.crashed_nodes);
        assert_eq!(a.reassigned_samples, b.reassigned_samples);
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x, y, "replayed shards bit-identical");
        }
    }

    #[test]
    fn works_with_on_disk_dataset() {
        let mut cfg = DatasetConfig::small(22, 8);
        cfg.generator.h = 16;
        cfg.generator.w = 24;
        cfg.samples_per_file = 3;
        let dir = std::env::temp_dir().join(format!("exaclim_stage_{}", std::process::id()));
        let ds = Arc::new(ClimateDataset::on_disk(&cfg, &dir).expect("on-disk dataset"));
        let plan = StagingPlan::build(8, 2, 4, 11);
        let dist = stage_distributed(&ds, &plan);
        for node in 0..2 {
            assert_eq!(dist.shards[node].len(), 4);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
