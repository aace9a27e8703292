//! Data-staging comparison (§V-A1): naive vs distributed staging, both as
//! a real miniature system (threads + files + channels) and on the
//! simulated Summit filesystem.
//!
//! ```text
//! cargo run --release --example staging_comparison
//! ```

use exaclim_core::climsim::dataset::DatasetConfig;
use exaclim_core::climsim::ClimateDataset;
use exaclim_core::hpcsim::fs::SharedFilesystem;
use exaclim_core::staging::real::{stage_distributed, stage_naive};
use exaclim_core::staging::{simulate_distributed_staging, simulate_naive_staging, StagingConfig, StagingPlan};
use std::sync::Arc;

fn main() {
    // --- real miniature staging over an on-disk dataset -----------------
    println!("=== real mini-staging: 4 thread-nodes over CDF5 files ===");
    let mut cfg = DatasetConfig::small(5, 16);
    cfg.generator.h = 48;
    cfg.generator.w = 72;
    cfg.samples_per_file = 4;
    let dir = std::env::temp_dir().join("exaclim_staging_example");
    let dataset = Arc::new(ClimateDataset::on_disk(&cfg, &dir).expect("dataset"));
    let plan = StagingPlan::build(16, 4, 8, 3);
    println!(
        "  dataset: 16 samples in {} files; 4 nodes × 8 samples (replication {:.1}×)",
        dataset.files().len(),
        plan.mean_replication()
    );
    let naive = stage_naive(&dataset, &plan);
    let dist = stage_distributed(&dataset, &plan);
    // Reads and forwards only: wall times vary run to run, and the output
    // is pinned byte for byte.
    println!("  naive:       {} disk reads, 0 forwards", naive.disk_reads);
    println!("  distributed: {} disk reads, {} forwards", dist.disk_reads, dist.forwarded);
    let identical = (0..4).all(|n| naive.shards[n] == dist.shards[n]);
    println!("  shards bit-identical across strategies: {identical}");
    std::fs::remove_dir_all(&dir).ok();

    // --- reader-thread scaling (§V-A1's 1.79 → 11.98 GB/s) --------------
    println!("\n=== multi-threaded reader scaling on GPFS (paper: 6.7× at 8 threads) ===");
    let fs = SharedFilesystem::summit_gpfs();
    for t in [1, 2, 4, 8] {
        println!(
            "  {t} threads: {:.2} GB/s ({:.1}× single-thread)",
            fs.client_bw(t) / 1e9,
            fs.client_bw(t) / fs.client_bw(1)
        );
    }

    // --- simulated staging at machine scale ------------------------------
    println!("\n=== simulated Summit staging (paper: naive 10-20 min, optimized <3 min) ===");
    for nodes in [256, 1024, 4500] {
        let cfg = StagingConfig::summit(nodes);
        let naive = simulate_naive_staging(&cfg);
        let dist = simulate_distributed_staging(&cfg);
        println!(
            "  {nodes:>5} nodes: naive {:>7.1} min ({:.1} reads/file) | distributed {:>5.1} min ({:.1} TB over IB)",
            naive.total_time / 60.0,
            naive.fs_reads_per_file,
            dist.total_time / 60.0,
            dist.network_bytes / 1e12
        );
    }
}
