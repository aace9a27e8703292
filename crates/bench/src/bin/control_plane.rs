//! Regenerates the §V-A3 control-plane analysis: measured message counts
//! through rank 0 under the centralized vs hierarchical protocols, the
//! radix sweep (r ∈ [2, 8]), and the analytic projection to 27 360 ranks.
//! The protocol sends one message per tensor per tree edge each way, so
//! the measured counts are exact and the output is the same on every run.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin control_plane
//! ```

use exaclim_comm::CommWorld;
use exaclim_distrib::{ControlPlane, Coordinator};
use std::thread;

/// Runs one coordination round over `n` real rank threads and returns the
/// (sent + received) message count at rank 0 and the max at any other rank.
fn measure(n: usize, plane: ControlPlane, tensors: usize) -> (u64, u64) {
    let comms = CommWorld::new(n);
    let stats = comms[0].stats();
    let handles: Vec<_> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, mut comm)| {
            thread::spawn(move || {
                let coord = Coordinator::new(plane, tensors);
                let mut ready: Vec<u32> = (0..tensors as u32).collect();
                ready.rotate_left(rank % tensors.max(1));
                coord.try_coordinate(&mut comm, &ready)
            })
        })
        .collect();
    for (rank, h) in handles.into_iter().enumerate() {
        if let Err(e) = h.join().expect("rank thread") {
            panic!("rank {rank}: coordination failed: {e}");
        }
    }
    let rank0 = stats.messages_sent(0) + stats.messages_received(0);
    let other = (1..n)
        .map(|r| stats.messages_sent(r) + stats.messages_received(r))
        .max()
        .unwrap_or(0);
    (rank0, other)
}

fn main() {
    let tensors = 128; // "over a hundred allreduce operations per step"
    println!("=== measured control-plane traffic (one step, {tensors} gradient tensors) ===");
    println!(
        "{:>6} {:>14} {:>22} {:>22}",
        "ranks", "protocol", "rank-0 msgs/step", "max other rank"
    );
    for n in [4, 8, 12, 16] {
        let (c0, cother) = measure(n, ControlPlane::Centralized, tensors);
        println!("{n:>6} {:>14} {c0:>22} {cother:>22}", "centralized");
        let (h0, hother) = measure(n, ControlPlane::Hierarchical { radix: 4 }, tensors);
        println!("{n:>6} {:>14} {h0:>22} {hother:>22}", "radix-4 tree");
    }

    println!("\n=== radix sweep at 16 ranks (paper: no difference for r in [2,8]) ===");
    for radix in [2, 3, 4, 6, 8] {
        let (r0, other) = measure(16, ControlPlane::Hierarchical { radix }, tensors);
        println!("  radix {radix}: rank-0 {r0} msgs, max-other {other} msgs");
    }

    println!("\n=== analytic projection to paper scale ===");
    println!(
        "{:>8} {:>26} {:>26}",
        "ranks", "centralized r0 msgs/step", "radix-4 tree msgs/step"
    );
    // The measured protocol's own counts: every rank exchanges one message
    // per tensor per tree edge each way, 2·T·(children + has-parent). The
    // busiest tree rank is an interior one (4 children and a parent).
    for ranks in [1024usize, 5300, 27360] {
        let central = 2 * (ranks as u64 - 1) * tensors as u64;
        let hier = 2 * (4 + 1) * tensors as u64;
        println!("{ranks:>8} {central:>26} {hier:>26}");
    }
    println!(
        "\nAt 27360 ranks with ~1 step/s the centralized coordinator moves\n\
         ~{:.1} M msgs/s — the paper's \"millions of messages per second\" —\n\
         vs ~{} per rank per step for the tree (\"mere thousands\").",
        2.0 * 27359.0 * tensors as f64 / 1e6,
        2 * 5 * tensors
    );
}
