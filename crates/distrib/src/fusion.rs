//! Tensor fusion: coalescing gradients into large all-reduce buffers.
//!
//! Both networks produce over a hundred gradient tensors per step, many of
//! them tiny (biases, batch-norm scales). All-reducing each individually
//! wastes latency; Horovod's fusion buffer batches consecutive ready
//! tensors up to a byte threshold. §V-B4 notes gradient lag additionally
//! "allows Horovod to more efficiently batch the tensors".

/// One fused all-reduce: a run of tensor ids reduced together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionBucket {
    /// Tensor ids in the order `fuse` was given (the trainer's canonical
    /// tensor order).
    pub tensor_ids: Vec<u32>,
    /// Total payload elements.
    pub elements: usize,
}

/// Greedily packs `order` into buckets of at most `threshold_bytes`
/// (4 bytes/element). A tensor larger than the threshold gets its own
/// bucket.
pub fn fuse(order: &[u32], sizes: &[usize], threshold_bytes: usize) -> Vec<FusionBucket> {
    let cap_elems = (threshold_bytes / 4).max(1);
    let mut buckets = Vec::new();
    let mut cur = FusionBucket { tensor_ids: Vec::new(), elements: 0 };
    for &id in order {
        let sz = sizes[id as usize];
        if !cur.tensor_ids.is_empty() && cur.elements + sz > cap_elems {
            buckets.push(std::mem::replace(
                &mut cur,
                FusionBucket { tensor_ids: Vec::new(), elements: 0 },
            ));
        }
        cur.tensor_ids.push(id);
        cur.elements += sz;
    }
    if !cur.tensor_ids.is_empty() {
        buckets.push(cur);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_up_to_threshold() {
        let sizes = vec![10, 10, 10, 10];
        let order = vec![0, 1, 2, 3];
        let buckets = fuse(&order, &sizes, 80); // 20 elements per bucket
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].tensor_ids, vec![0, 1]);
        assert_eq!(buckets[1].tensor_ids, vec![2, 3]);
        assert_eq!(buckets[0].elements, 20);
    }

    #[test]
    fn oversized_tensor_gets_own_bucket() {
        let sizes = vec![100, 5, 5];
        let buckets = fuse(&[1, 0, 2], &sizes, 40);
        assert_eq!(buckets.len(), 3, "{buckets:?}");
        assert_eq!(buckets[1].tensor_ids, vec![0]);
    }

    #[test]
    fn respects_coordination_order() {
        let sizes = vec![1, 1, 1];
        let buckets = fuse(&[2, 0, 1], &sizes, 1024);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].tensor_ids, vec![2, 0, 1]);
    }

    #[test]
    fn empty_order_is_empty() {
        assert!(fuse(&[], &[], 100).is_empty());
    }

    #[test]
    fn large_threshold_fuses_everything() {
        let sizes: Vec<usize> = (1..=120).collect();
        let order: Vec<u32> = (0..120).collect();
        let buckets = fuse(&order, &sizes, usize::MAX / 8);
        assert_eq!(buckets.len(), 1, "one all-reduce for the whole model");
    }
}
