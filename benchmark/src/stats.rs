//! The arithmetic every report in this benchmark rests on: medians and
//! quartile spreads, the percentile a sample count supports, the seeded
//! arrival schedule, the goodput rule, and the regression verdict.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    s
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// which is what the driver that accepts this benchmark computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let m = s.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread: the distance between the quartiles as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `q` (0..1) of a latency sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let s = sorted(values);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; `None` below 20 samples (not even the median has).
pub fn supported_percentile(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// SplitMix64: the benchmark's own generator for request contents and
/// arrival times, so the seed reaches them without the program's help.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller; one value per call).
    pub fn next_normal(&mut self) -> f64 {
        let (u, v) = (self.next_f64(), self.next_f64());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Due times, in seconds from the start of the phase, of `n` Poisson
/// arrivals at `rate` per second: exponential gaps from the seed.
pub fn arrival_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -rng.next_f64().ln() / rate;
            t
        })
        .collect()
}

/// What one fixed-rate phase of an open-loop run showed.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOutcome {
    /// Requests per second offered.
    pub rate: f64,
    /// Requests answered correctly within the latency limit, per second of
    /// the phase.
    pub within_limit_per_s: f64,
    /// The tail percentile of latency, milliseconds.
    pub tail_ms: f64,
    /// Requests refused, unanswered or answered wrongly.
    pub failed: u64,
    /// Requests due but unanswered when half of the phase's requests were due.
    pub backlog_mid: usize,
    /// Requests due but unanswered when the last request was due.
    pub backlog_end: usize,
}

/// Backlog growth that a stable queue does not show by chance: `slack`
/// more requests outstanding at the end of a phase than at its middle.
pub fn backlog_growing(p: &PhaseOutcome, slack: usize) -> bool {
    p.backlog_end >= p.backlog_mid + slack
}

/// A phase passes when nothing failed, the tail met the limit and the
/// backlog was not growing.
pub fn phase_passes(p: &PhaseOutcome, limit_ms: f64, slack: usize) -> bool {
    p.failed == 0 && p.tail_ms <= limit_ms && !backlog_growing(p, slack)
}

/// Goodput: the within-limit completion rate of the highest-rate phase
/// that passes; 0 when none does.
pub fn goodput(phases: &[PhaseOutcome], limit_ms: f64, slack: usize) -> f64 {
    phases
        .iter()
        .filter(|p| phase_passes(p, limit_ms, slack))
        .max_by(|a, b| a.rate.partial_cmp(&b.rate).expect("rates are finite"))
        .map_or(0.0, |p| p.within_limit_per_s)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread is wider than the bound: the comparison cannot
    /// tell a regression from noise, and says so instead of saying "ok".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the base median the new median is worse (negative
/// when it is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Compares two sets of runs of one metric against its bound.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = worsening(median(base), median(new), better);
    let noisy = [base, new]
        .iter()
        .any(|v| v.len() >= 2 && spread(v) > bound);
    if worse_by > bound {
        Verdict::Worse
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The regression bound calibration writes: three times the measured
/// spread (so the spread stays below a third of it), rounded up to a
/// whole percent, never below the metric's floor nor above `cap`, the
/// widest bound the contract allows.
pub fn calibrated_bound(floor: f64, spread: f64, cap: f64) -> f64 {
    ((3.0 * spread * 100.0).ceil() / 100.0).clamp(floor, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 6.0));
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.50));
        assert_eq!(supported_percentile(40), Some(0.75));
        assert_eq!(supported_percentile(100), Some(0.90));
        assert_eq!(supported_percentile(199), Some(0.90));
        assert_eq!(supported_percentile(200), Some(0.95));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn arrival_schedule_repeats_per_seed_and_has_the_rate() {
        let a = arrival_schedule(7, 50.0, 4000);
        assert_eq!(a, arrival_schedule(7, 50.0, 4000));
        assert_ne!(a, arrival_schedule(8, 50.0, 4000));
        assert!(a.windows(2).all(|w| w[1] > w[0]), "due times increase");
        let rate = a.len() as f64 / a.last().expect("non-empty");
        assert!((rate - 50.0).abs() < 2.5, "empirical rate {rate}");
        // Exponential gaps: the coefficient of variation is 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1);
    }

    fn phase(rate: f64, tail_ms: f64, failed: u64, mid: usize, end: usize) -> PhaseOutcome {
        PhaseOutcome {
            rate,
            within_limit_per_s: rate * 0.99,
            tail_ms,
            failed,
            backlog_mid: mid,
            backlog_end: end,
        }
    }

    #[test]
    fn goodput_is_the_highest_passing_rate() {
        let ok30 = phase(30.0, 20.0, 0, 1, 2);
        let ok60 = phase(60.0, 60.0, 0, 3, 5);
        let slow90 = phase(90.0, 300.0, 0, 10, 12);
        assert_eq!(goodput(&[ok30, ok60, slow90], 100.0, 16), 60.0 * 0.99);
        // A failure disqualifies a phase whatever its latency.
        let failed60 = phase(60.0, 60.0, 1, 3, 5);
        assert_eq!(goodput(&[ok30, failed60, slow90], 100.0, 16), 30.0 * 0.99);
        // So does a backlog that grows, even under the limit so far.
        let growing60 = phase(60.0, 60.0, 0, 4, 20);
        assert_eq!(goodput(&[ok30, growing60], 100.0, 16), 30.0 * 0.99);
        assert_eq!(goodput(&[slow90], 100.0, 16), 0.0);
    }

    #[test]
    fn verdict_separates_worse_from_unresolved() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slower = [110.0, 111.0, 109.0, 110.5, 109.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&base, &same, Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &slower, Better::Higher, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // A single run per side has no spread and is judged on its value.
        assert_eq!(
            verdict(&[100.0], &[104.0], Better::Lower, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0], &[94.0], Better::Higher, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn calibrated_bound_keeps_three_spreads_inside() {
        assert_eq!(calibrated_bound(0.05, 0.004, 0.25), 0.05);
        assert_eq!(calibrated_bound(0.05, 0.031, 0.25), 0.10);
        assert_eq!(calibrated_bound(0.10, 0.08, 0.25), 0.24);
        // A host too noisy for the rule gets the cap, not a bound above it.
        assert_eq!(calibrated_bound(0.05, 0.12, 0.25), 0.25);
    }
}
