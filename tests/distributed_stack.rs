//! Integration: the distributed-systems stack — staging → pipeline →
//! collectives → control plane — wired together across crates.

use exaclim_climsim::dataset::DatasetConfig;
use exaclim_climsim::ClimateDataset;
use exaclim_comm::CommWorld;
use exaclim_distrib::{ControlPlane, Coordinator};
use exaclim_pipeline::{ChannelStats, ReaderMode, StreamConfig, StreamingIngest};
use exaclim_staging::real::{stage_distributed, stage_naive};
use exaclim_staging::{IngestFeed, StagingPlan};
use exaclim_tensor::DType;
use std::sync::Arc;
use std::time::Duration;

/// Streams `shard` on `workers` readers.
fn start_stream(
    ds: &Arc<ClimateDataset>,
    shard: Vec<usize>,
    stats: ChannelStats,
    cfg: StreamConfig,
    workers: usize,
) -> StreamingIngest {
    let mut q = StreamingIngest::start(ds.clone(), shard, stats, cfg);
    q.set_workers(workers);
    q
}

fn dataset(n: usize) -> Arc<ClimateDataset> {
    let mut cfg = DatasetConfig::small(7, n);
    cfg.generator.h = 16;
    cfg.generator.w = 24;
    Arc::new(ClimateDataset::in_memory(&cfg))
}

#[test]
fn staged_shards_feed_the_pipeline() {
    // Stage a dataset onto 2 "nodes", then run the prefetch pipeline over
    // one node's shard and verify every delivered sample belongs to it.
    let ds = dataset(10);
    let plan = StagingPlan::build(10, 2, 5, 3);
    let staged = stage_distributed(&ds, &plan);
    let shard: Vec<usize> = plan.needs[0].clone();
    assert_eq!(staged.shards[0].len(), 5);

    let stats = ChannelStats::estimate(&ds, 2).expect("stats");
    let mut q = start_stream(
        &ds,
        shard.clone(),
        stats,
        StreamConfig {
            depth: 3,
            mode: ReaderMode::PerWorker,
            read_cost: Duration::ZERO,
            channels: (0..16).collect(),
            class_weights: vec![1.0, 10.0, 5.0],
            dtype: DType::F32,
            seed: 11,
            augment: false,
        },
        2,
    );
    for _ in 0..10 {
        let s = q.next_sample();
        assert_eq!(s.input.shape().dims(), &[1, 16, 16, 24]);
        // The sample must match one of the staged shard's payloads.
        let matched = shard.iter().any(|&idx| {
            let stored = staged.shards[0].get(&idx).expect("staged sample");
            stored.labels.as_slice() == s.labels.as_slice()
        });
        assert!(matched, "pipeline must serve staged-shard samples");
    }
}

#[test]
fn naive_and_distributed_staging_agree_at_8_nodes() {
    let ds = dataset(16);
    let plan = StagingPlan::build(16, 8, 6, 5);
    let a = stage_naive(&ds, &plan);
    let b = stage_distributed(&ds, &plan);
    for node in 0..8 {
        assert_eq!(a.shards[node], b.shards[node], "node {node}");
    }
    assert_eq!(b.disk_reads, 16);
    assert!(a.disk_reads > b.disk_reads, "naive re-reads shared files");
}

#[test]
fn control_plane_and_collective_compose_at_9_ranks() {
    // One full "step" of the §V-A3 machinery: coordinate a total order,
    // then all-reduce in that order with the hierarchical hybrid.
    let n = 9;
    let comms = CommWorld::new(n);
    let handles: Vec<_> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, mut comm)| {
            std::thread::spawn(move || {
                let coord = Coordinator::new(ControlPlane::Hierarchical { radix: 3 }, 5);
                let mut ready: Vec<u32> = (0..5).collect();
                ready.rotate_left(rank % 5);
                let order = coord.try_coordinate(&mut comm, &ready).expect("coordination round");
                // One buffer per tensor, reduced in the agreed order.
                let mut results = Vec::new();
                for &t in &order {
                    let mut buf = vec![(rank + t as usize) as f32; 8];
                    comm.try_hierarchical_allreduce(&mut buf, 3, 2)
                        .expect("hierarchical all-reduce");
                    results.push(buf[0]);
                }
                (order, results)
            })
        })
        .collect();
    let outs: Vec<(Vec<u32>, Vec<f32>)> = handles.into_iter().map(|h| h.join().expect("rank")).collect();
    for (order, results) in &outs[1..] {
        assert_eq!(order, &outs[0].0, "total order must agree");
        assert_eq!(results, &outs[0].1, "reductions must agree bitwise");
    }
    // Expected sums: Σ_r (r + t) = 36 + 9t.
    for (i, &t) in outs[0].0.iter().enumerate() {
        assert_eq!(outs[0].1[i], 36.0 + 9.0 * t as f32);
    }
}

#[test]
fn on_disk_dataset_supports_the_full_path() {
    // CDF5 files on disk → staging plan → pipeline decode.
    let mut cfg = DatasetConfig::small(13, 6);
    cfg.generator.h = 16;
    cfg.generator.w = 24;
    cfg.samples_per_file = 2;
    let dir = std::env::temp_dir().join(format!("exaclim_int_{}", std::process::id()));
    let ds = Arc::new(ClimateDataset::on_disk(&cfg, &dir).expect("on-disk"));
    assert_eq!(ds.files().len(), 3);
    let stats = ChannelStats::estimate(&ds, 2).expect("stats");
    let shard = IngestFeed::build(ds.len(), 1, 0, 4, 2).shard();
    let mut q = start_stream(
        &ds,
        shard,
        stats,
        StreamConfig {
            depth: 2,
            mode: ReaderMode::SharedLocked,
            read_cost: Duration::ZERO,
            channels: vec![0, 7],
            class_weights: vec![1.0, 1.0, 1.0],
            dtype: DType::F16,
            seed: 2,
            augment: false,
        },
        2,
    );
    let s = q.next_sample();
    assert_eq!(s.input.dtype(), DType::F16);
    assert_eq!(s.input.shape().dims(), &[1, 2, 16, 24]);
    drop(q);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn synchronous_training_waits_for_the_straggler() {
    // The Figure 4 efficiency model rests on one mechanism: the gradient
    // all-reduce is a barrier, so the step takes as long as the slowest
    // rank. Inject a real delay into one rank's input source and verify
    // the measured step time inflates accordingly on the *fast* rank too.
    use exaclim_distrib::trainer::{Batch, BatchSource};
    use exaclim_distrib::{train_data_parallel, TrainerConfig};
    use exaclim_nn::layers::Conv2d;
    use exaclim_nn::loss::Labels;
    use exaclim_nn::{Layer, Sequential};
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::ops::Conv2dParams;

    struct SlowSource {
        rng: rand::rngs::StdRng,
        delay: std::time::Duration,
    }
    impl BatchSource for SlowSource {
        fn next_batch(&mut self) -> Batch {
            std::thread::sleep(self.delay);
            let input = randn([1, 2, 6, 6], DType::F32, 1.0, &mut self.rng);
            let labels = Labels::new(1, 6, 6, vec![0; 36]);
            Batch { input, labels, weights: vec![1.0; 36] }
        }
    }

    let model = |rng: &mut rand::rngs::StdRng| -> Box<dyn Layer> {
        Box::new(
            Sequential::new("m")
                .push(Conv2d::new("c", 2, 3, 1, Conv2dParams::default(), true, rng)),
        )
    };
    let run = |slow_ms: u64| {
        let mut cfg = TrainerConfig::new(3);
        cfg.node_size = 3;
        cfg.steps = 4;
        let (report, _m) = train_data_parallel(&cfg, model, move |rank| SlowSource {
            rng: seeded_rng(100 + rank as u64),
            delay: std::time::Duration::from_millis(if rank == 2 { slow_ms } else { 0 }),
        });
        assert!(report.consistent);
        // Mean step wall time measured on rank 0 (a fast rank).
        report.steps.iter().map(|s| s.wall_time_s).sum::<f64>() / report.steps.len() as f64
    };
    let fast = run(0);
    let slow = run(60);
    assert!(
        slow > fast + 0.040,
        "rank 0's steps must absorb the rank-2 straggler: {fast:.4}s → {slow:.4}s"
    );
}
