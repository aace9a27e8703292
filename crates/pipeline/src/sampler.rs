//! The bit-reproducible hierarchical shuffle of a node-local shard.
//!
//! §V-A1: each rank draws from a node-local shard ("250 images per GPU
//! ... are sufficient to maintain convergence"); independent shards make
//! the union of local batches statistically similar to a global draw.
//! The shards themselves come from the staging plan
//! (`exaclim_staging::StagingPlan::node_needs`).
//!
//! The epoch order is a *pure function* of `(seed, epoch, shard,
//! chunk_size)` — no RNG draw history, no dependence on reader-worker
//! count or on where a reader resumes. The shuffle is
//! hierarchical, mirroring the storage layout the streaming readers
//! exploit: chunk order is permuted first (seeded by `(seed, epoch)`),
//! then samples within each chunk (seeded by `(seed, epoch, chunk)`), so
//! readers still touch one file per chunk while every epoch sees a fresh
//! global order.

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// All shuffle seeds and the sequence hash derive from it, so the whole
/// determinism story rests on arithmetic this crate owns rather than on
/// any external RNG's stream stability.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Order-sensitive hash of a consumed sample sequence. Tests
/// compare this across reader-worker counts, re-shards and
/// elastic churn schedules: equal hashes ⇔ bit-identical order.
#[cfg(test)]
pub(crate) fn sequence_hash(seq: impl IntoIterator<Item = usize>) -> u64 {
    let mut h = 0x6a09_e667_f3bc_c909u64; // sqrt(2) fractional bits
    for (i, idx) in seq.into_iter().enumerate() {
        h = mix64(h ^ (idx as u64).wrapping_add((i as u64).wrapping_mul(GOLDEN)));
    }
    h
}

/// Counter-mode SplitMix64 stream used for the Fisher–Yates shuffles.
struct Mix64Rng {
    state: u64,
}

impl Mix64Rng {
    fn new(seed: u64) -> Mix64Rng {
        Mix64Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Uniform-ish draw in `[0, n)`. Modulo bias is ≤ n/2⁶⁴ — irrelevant
    /// at shard scales and, more importantly, *stable*: the draw for a
    /// given `(seed, position)` never changes.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = Mix64Rng::new(seed);
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// The pure epoch permutation: chunk order seeded by `(seed, epoch)`,
/// within-chunk order by `(seed, epoch, chunk)`. Chunks are contiguous
/// `chunk_size` slices of `shard` (the last may be partial), so a run of
/// `chunk_size` consecutive output positions always maps to one chunk —
/// the invariant the streaming readers' one-open-per-chunk I/O relies on.
pub fn epoch_permutation(seed: u64, epoch: u64, shard: &[usize], chunk_size: usize) -> Vec<usize> {
    let chunk = chunk_size.max(1);
    let n_chunks = shard.len().div_ceil(chunk);
    let mut chunk_order: Vec<usize> = (0..n_chunks).collect();
    shuffle(&mut chunk_order, mix64(seed ^ 0xC4A1_5EED) ^ mix64(epoch.wrapping_add(1)));
    let mut out = Vec::with_capacity(shard.len());
    for &c in &chunk_order {
        let lo = c * chunk;
        let hi = (lo + chunk).min(shard.len());
        let base = out.len();
        out.extend_from_slice(&shard[lo..hi]);
        shuffle(
            &mut out[base..],
            mix64(seed ^ 0xA11C_E5ED) ^ mix64(epoch) ^ mix64((c as u64).wrapping_add(1)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_shard_each_epoch() {
        let shard = vec![3, 5, 7, 9];
        for epoch in 0..3 {
            let mut seen = epoch_permutation(1, epoch, &shard, 1);
            seen.sort_unstable();
            assert_eq!(seen, shard, "epoch {epoch}");
        }
    }

    #[test]
    fn epochs_are_differently_shuffled() {
        let shard: Vec<usize> = (0..32).collect();
        let e0 = epoch_permutation(2, 0, &shard, 1);
        let e1 = epoch_permutation(2, 1, &shard, 1);
        assert_ne!(e0, e1, "epoch orders should differ");
        let mut a = e0.clone();
        let mut b = e1.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same underlying shard");
    }

    #[test]
    fn epoch_order_is_a_pure_function_not_draw_history() {
        // Epoch 3 computed cold equals epoch 3 computed after walking
        // epochs 0–2: a reader may resume at any epoch without replaying
        // the ones before it.
        let shard: Vec<usize> = (100..164).collect();
        let cold = epoch_permutation(77, 3, &shard, 8);
        let walked: Vec<Vec<usize>> = (0..4).map(|e| epoch_permutation(77, e, &shard, 8)).collect();
        assert_eq!(walked[3], cold);
        assert_ne!(walked[2], cold);
    }

    #[test]
    fn chunk_runs_stay_within_one_chunk() {
        // Every aligned run of chunk_size output positions must come from
        // a single storage chunk (any order within it).
        let shard: Vec<usize> = (0..40).collect();
        let chunk = 8;
        for epoch in 0..4 {
            let order = epoch_permutation(5, epoch, &shard, chunk);
            for run in order.chunks(chunk) {
                let c = run[0] / chunk;
                assert!(
                    run.iter().all(|&i| i / chunk == c),
                    "epoch {epoch}: run {run:?} spans chunks"
                );
            }
        }
    }

    #[test]
    fn partial_last_chunk_is_preserved() {
        let shard: Vec<usize> = (0..10).collect(); // chunks of 4, 4, 2
        let order = epoch_permutation(3, 1, &shard, 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, shard);
    }

    #[test]
    fn sequence_hash_is_order_sensitive() {
        assert_eq!(sequence_hash([1, 2, 3]), sequence_hash([1, 2, 3]));
        assert_ne!(sequence_hash([1, 2, 3]), sequence_hash([3, 2, 1]));
        assert_ne!(sequence_hash([1, 2]), sequence_hash([1, 2, 0]));
    }
}
