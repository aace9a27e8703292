//! Property-based tests for the collective algorithms: every algorithm,
//! every topology, random payloads — all ranks must agree bitwise on the
//! true sum.

use exaclim_comm::{CommWorld, Communicator};
use proptest::prelude::*;
use std::thread;

fn run_ranks<F>(n: usize, per_rank: Vec<Vec<f32>>, f: F) -> Vec<Vec<f32>>
where
    F: Fn(&mut Communicator, &mut Vec<f32>) + Send + Sync + Clone + 'static,
{
    let comms = CommWorld::new(n);
    let handles: Vec<_> = comms
        .into_iter()
        .zip(per_rank)
        .map(|(mut comm, mut buf)| {
            let f = f.clone();
            thread::spawn(move || {
                f(&mut comm, &mut buf);
                buf
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("rank")).collect()
}

fn reference_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    let len = inputs[0].len();
    (0..len).map(|i| inputs.iter().map(|v| v[i]).sum()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_algorithms_compute_the_sum(
        n in 1usize..7,
        len in 1usize..40,
        seed in 0u64..1000,
        algo in 0usize..2,
    ) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 32) as f32 / u32::MAX as f32 - 0.5) * 8.0
        };
        let inputs: Vec<Vec<f32>> = (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
        let want = reference_sum(&inputs);
        let outs = run_ranks(n, inputs, move |c, b| match algo {
            0 => c.try_allreduce_ring(b).expect("allreduce"),
            _ => c.try_allreduce_tree(b).expect("allreduce"),
        });
        for (rank, out) in outs.iter().enumerate() {
            // Bitwise agreement across ranks.
            prop_assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                outs[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "rank {} disagrees", rank
            );
            // Numerical agreement with the reference sum.
            for (a, b) in out.iter().zip(want.iter()) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn hierarchical_matches_flat_for_all_topologies(
        nodes in 1usize..4,
        gpn in 1usize..4,
        leaders_seed in 0usize..4,
        len in 1usize..24,
    ) {
        let n = nodes * gpn;
        let leaders = (leaders_seed % gpn) + 1;
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..len).map(|i| (r * 31 + i) as f32 * 0.25 - 2.0).collect())
            .collect();
        let want = reference_sum(&inputs);
        let outs = run_ranks(n, inputs, move |c, b| c.try_hierarchical_allreduce(b, gpn, leaders).expect("allreduce"));
        for out in &outs {
            for (a, b) in out.iter().zip(want.iter()) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn broadcast_delivers_root_payload(n in 1usize..7, root_seed in 0usize..7, len in 1usize..24) {
        let root = root_seed % n;
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..len).map(|i| (r * 100 + i) as f32).collect())
            .collect();
        let want = inputs[root].clone();
        let outs = run_ranks(n, inputs, move |c, b| c.try_broadcast(root, b).expect("broadcast"));
        for out in &outs {
            prop_assert_eq!(out, &want);
        }
    }
}
