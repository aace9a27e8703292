//! Log-bucketed latency histograms for the serving tier.
//!
//! A [`LatencyHistogram`] records request latencies with bounded relative
//! error and O(1) memory, and merges exactly: every replica thread keeps
//! its own histogram and the load generator folds them together at the
//! end of a run, so recording never takes a shared lock on the hot path.
//!
//! Bucketing is HDR-style: each power-of-two octave of nanoseconds is
//! split into `SUB_BUCKETS` linear sub-buckets, giving a worst-case
//! relative quantile error of `1 / SUB_BUCKETS` (12.5 %) while covering
//! the full `u64` nanosecond range — sub-microsecond tensor ops and
//! multi-second tail stalls land in the same fixed 512-slot table.

use std::time::Duration;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: u64 = 8;
/// 64 octaves × 8 sub-buckets covers all of `u64` nanoseconds.
const NUM_BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

/// A mergeable log-bucketed latency histogram (nanosecond domain).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond value: octave by leading bit, then a
/// linear sub-bucket within the octave.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        // Degenerate low octaves where an octave has fewer than
        // SUB_BUCKETS integers: index directly, exact.
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as u64;
    let base = 1u64 << octave;
    let sub = (((ns - base) as u128 * SUB_BUCKETS as u128) >> octave) as u64;
    (octave * SUB_BUCKETS + sub) as usize
}

/// Upper edge (inclusive representative) of a bucket, in nanoseconds.
fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let octave = idx / SUB_BUCKETS;
    let sub = idx % SUB_BUCKETS;
    let base = 1u64 << octave;
    // Last nanosecond belonging to sub-bucket `sub` of this octave.
    let step = (((sub + 1) as u128 * base as u128) / SUB_BUCKETS as u128) as u64;
    base + step.saturating_sub(1)
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Exact sum of all recorded samples — lets callers that previously
    /// kept an ad-hoc atomic nanosecond total (the pipeline's wait
    /// counters) migrate without losing the aggregate.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.min(u64::MAX as u128) as u64)
    }

    /// Smallest recorded sample (exact), or zero when empty.
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.min_ns)
    }

    /// Largest recorded sample (exact), or zero when empty.
    pub fn max(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) with ≤ 1/`SUB_BUCKETS` relative
    /// error: the smallest bucket upper edge such that at least
    /// `ceil(q · count)` samples are at or below it. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the exact extremes so p0/p100 are honest.
                return Duration::from_nanos(bucket_upper(idx).clamp(self.min_ns, self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// Median.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// Folds another histogram into this one. Exact: both use the same
    /// fixed bucket layout, so merged quantiles equal those of a single
    /// histogram that saw every sample.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_consistent() {
        // Every value maps into a bucket whose upper edge is >= value and
        // indices never decrease with value.
        let mut prev = 0usize;
        for &ns in &[0u64, 1, 7, 8, 9, 100, 1_000, 4_096, 65_537, 1 << 30, u64::MAX / 2] {
            let idx = bucket_of(ns);
            assert!(idx >= prev, "non-monotone at {ns}");
            assert!(bucket_upper(idx) >= ns, "upper edge below value at {ns}");
            prev = idx;
        }
    }

    #[test]
    fn quantiles_are_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.p50().as_micros() as f64;
        let p99 = h.quantile(0.99).as_micros() as f64;
        // True p50 = 5000 µs, p99 = 9900 µs; allow the 1/8 bucket error.
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.13, "p50 {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.13, "p99 {p99}");
        assert_eq!(h.min(), Duration::from_micros(1));
        assert_eq!(h.max(), Duration::from_micros(10_000));
        let mean = h.mean().as_micros() as f64;
        assert!((mean / 5_000.5 - 1.0).abs() < 1e-3, "mean {mean}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1_000u64 {
            let d = Duration::from_nanos(1 + i * i);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
        assert_eq!(a.mean(), whole.mean());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }
}
