//! Fault injection across the stack: kill nodes mid-staging, kill, retire
//! and add ranks mid-training, and watch the system recover
//! deterministically. Every invariant printed is also asserted, so the
//! example fails loudly if recovery breaks.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use exaclim_climsim::{ClimateDataset, DatasetConfig};
use exaclim_distrib::trainer::Batch;
use exaclim_distrib::{
    train_data_parallel_elastic, BatchSource, ElasticConfig, OptimizerKind, TrainerConfig,
};
use exaclim_faults::{FaultPlan, LinkFault};
use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::{class_weights, pixel_weight_map, ClassWeighting, Labels};
use exaclim_nn::{Layer, Sequential};
use exaclim_staging::real::{stage_distributed, stage_distributed_faulty};
use exaclim_staging::{simulate_distributed_staging_faulty, StagingConfig, StagingPlan};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::DType;
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // 1. Staging under chaos: the §V-A1 distributed protocol at 1024
    //    Summit nodes, with injected node deaths and degraded links.
    // ------------------------------------------------------------------
    println!("=== distributed staging at 1024 nodes, faults injected ===");
    let cfg = StagingConfig::summit(1024);
    let healthy = simulate_distributed_staging_faulty(&cfg, &FaultPlan::none());
    println!(
        "healthy:            {:>6.1} s, {:>5.2} reads/file",
        healthy.total_time, healthy.fs_reads_per_file
    );
    let chaos = FaultPlan::seeded(42)
        .with_crash_at_time(17, 2.0) // a reader node dies 2 s in
        .with_straggler(101, 3.0) // one node reads 3× slower
        .with_link_fault(LinkFault {
            src: Some(7), // node 7's egress: 2× slower, 25% packet loss
            dst: None,
            slowdown: 2.0,
            drop_prob: 0.25,
        });
    let faulty = simulate_distributed_staging_faulty(&cfg, &chaos);
    println!(
        "with faults:        {:>6.1} s, {:>5.2} reads/file  ({} crash, {} chunks reassigned, {} retries)",
        faulty.total_time,
        faulty.fs_reads_per_file,
        faulty.crashed_nodes,
        faulty.reassigned_chunks,
        faulty.retries
    );
    let replay = simulate_distributed_staging_faulty(&cfg, &chaos);
    let identical = replay.total_time.to_bits() == faulty.total_time.to_bits();
    println!("replay bit-identical: {identical}");
    assert!(identical, "simulated staging replay drifted");

    // ------------------------------------------------------------------
    // 2. Elastic training through churn: 4 ranks, 8 steps. Rank 1 leaves
    //    at step 2, rank 4 joins at step 4 and gets the live state by
    //    broadcast, rank 2 crashes at step 6. Membership changes at step
    //    boundaries; no step is lost or replayed, and no handoff is
    //    needed.
    // ------------------------------------------------------------------
    println!("\n=== elastic data-parallel training (4 ranks, leave + join + crash) ===");
    let mut trainer = TrainerConfig::new(4);
    trainer.steps = 8;
    trainer.optimizer = OptimizerKind::Sgd { lr: 0.05, momentum: 0.9 };
    let churn = FaultPlan::seeded(9)
        .with_leave_at_step(1, 2)
        .with_join_at_step(4, 4)
        .with_crash_at_step(2, 6);
    let elastic = ElasticConfig::new(trainer);
    let train = || train_data_parallel_elastic(&elastic, &churn, toy_model, toy_source).0;
    let report = train();
    for s in &report.steps {
        println!("  step {:>2}: loss {:.4}", s.step, s.mean_loss);
    }
    for g in &report.generations {
        println!(
            "  generation {} from step {}: members {:?}, lr {:.4} ({})",
            g.generation, g.begin_step, g.members, g.lr, g.cause
        );
    }
    println!(
        "left {:?}, joined {:?}, lost {:?}; {} live broadcast(s), {} handoff(s), {} step(s) retried",
        report.ranks_left,
        report.ranks_joined,
        report.ranks_lost,
        report.param_broadcasts,
        report.handoffs,
        report.steps_retried
    );
    assert_eq!((report.ranks_left.as_slice(), report.ranks_joined.as_slice()), (&[1][..], &[4][..]));
    assert_eq!(report.ranks_lost, vec![2]);
    assert_eq!(report.steps.len(), 8, "every global step completed once");
    assert_eq!(report.steps_retried, 0, "boundary churn loses no step");
    assert_eq!(report.handoffs, 0, "a survivor broadcast the state");
    println!(
        "finishing replicas bitwise-consistent: {} (hashes {:x?})",
        report.consistent, report.final_hashes
    );
    assert!(report.consistent, "finishing replicas diverged");

    // Chaos is replayable: the same plan gives the same bits.
    let replayed = train();
    let identical = replayed.final_hashes == report.final_hashes
        && replayed.steps.iter().zip(&report.steps).all(|(a, b)| a.mean_loss.to_bits() == b.mean_loss.to_bits());
    println!("training replay bit-identical: {identical}");
    assert!(identical, "elastic replay drifted");

    // ------------------------------------------------------------------
    // 3. Staging real samples through a reader death: 4 thread nodes
    //    stage a small in-memory dataset; node 1 dies after its first
    //    read, and the survivors re-read its orphaned samples.
    // ------------------------------------------------------------------
    println!("\n=== real staging (4 thread nodes), node 1 dies after one read ===");
    let mut data = DatasetConfig::small(21, 12);
    data.generator.h = 24;
    data.generator.w = 36;
    let dataset = Arc::new(ClimateDataset::in_memory(&data));
    let plan = StagingPlan::build(12, 4, 6, 5);
    let reader_death = FaultPlan::seeded(3).with_crash_after_reads(1, 1);
    let staged = stage_distributed_faulty(&dataset, &plan, &reader_death);
    println!(
        "crashed nodes {:?}, {} recovery round(s), {} sample(s) reassigned, {} disk reads",
        staged.crashed_nodes, staged.retries, staged.reassigned_samples, staged.disk_reads
    );
    assert_eq!(staged.crashed_nodes, vec![1]);
    let healthy = stage_distributed(&dataset, &plan);
    let complete = (0..plan.nodes)
        .filter(|n| !staged.crashed_nodes.contains(n))
        .all(|n| staged.shards[n].len() == plan.needs[n].len() && staged.shards[n] == healthy.shards[n]);
    println!("survivor shards complete and equal to a healthy run's: {complete}");
    assert!(complete, "a survivor's shard is incomplete or differs");
    let replay = stage_distributed_faulty(&dataset, &plan, &reader_death);
    let identical = replay.crashed_nodes == staged.crashed_nodes && replay.shards == staged.shards;
    println!("replay bit-identical: {identical}");
    assert!(identical, "real staging replay drifted");
}

/// A 2-layer conv net — identical on every rank by construction.
fn toy_model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    Box::new(
        Sequential::new("demo")
            .push(Conv2d::new("c1", 2, 8, 3, Conv2dParams::padded(1), true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c2", 8, 2, 1, Conv2dParams::default(), true, rng)),
    )
}

/// Synthetic per-rank batches: label = which of two channels is larger.
struct ToySource {
    rng: rand::rngs::StdRng,
}

fn toy_source(rank: usize) -> ToySource {
    ToySource { rng: seeded_rng(900 + rank as u64) }
}

impl BatchSource for ToySource {
    fn next_batch(&mut self) -> Batch {
        let (h, w) = (8, 8);
        let input = randn([1, 2, h, w], DType::F32, 1.0, &mut self.rng);
        let labels: Vec<u8> = (0..h * w)
            .map(|i| (input.as_slice()[i] > input.as_slice()[h * w + i]) as u8)
            .collect();
        let labels = Labels::new(1, h, w, labels);
        let freq = labels.class_frequencies(2);
        let weights = pixel_weight_map(&labels, &class_weights(&freq, ClassWeighting::Uniform));
        Batch { input, labels, weights }
    }
}
