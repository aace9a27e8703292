//! The step-timeline overlap report.
//!
//! §V-A3 overlaps gradient all-reduces with backward computation; the
//! question a performance engineer asks of such a run is "how much of the
//! communication did backward actually hide?". This module folds the
//! wall-clock spans recorded by `exaclim_tensor::profile`'s timeline
//! ([`SpanRecord`]) into per-step rows: compute time, total comm-busy
//! time, the *exposed* comm time the critical path waited on, and the
//! overlap fraction `(busy − exposed) / busy`.

use exaclim_tensor::profile::{SpanKind, SpanRecord};
use std::collections::BTreeMap;

/// One training step's timeline summary for one rank.
#[derive(Debug, Clone, Copy)]
pub struct StepOverlapRow {
    /// Rank the row describes.
    pub rank: usize,
    /// Step index.
    pub step: usize,
    /// Forward-pass seconds.
    pub forward_s: f64,
    /// Backward-pass seconds (loss + model backward).
    pub backward_s: f64,
    /// Seconds any thread of the rank spent packing / all-reducing /
    /// scattering gradient buckets.
    pub comm_busy_s: f64,
    /// Seconds the rank's critical path waited on gradient communication.
    pub comm_exposed_s: f64,
    /// Optimizer seconds.
    pub optimizer_s: f64,
    /// Seconds the rank's critical path waited on the input pipeline (the
    /// blocking batch pull) — the exposed-I/O number that drives prefetch
    /// autoscaling.
    pub ingest_s: f64,
    /// Fraction of comm-busy time hidden behind backward, in `[0, 1]`:
    /// `(comm_busy − comm_exposed) / comm_busy`, `0` when no comm ran.
    pub overlap_fraction: f64,
}

impl StepOverlapRow {
    /// Total step wall time accounted by the timeline's phases.
    pub fn accounted_s(&self) -> f64 {
        self.forward_s + self.backward_s + self.comm_exposed_s + self.optimizer_s + self.ingest_s
    }

    /// Fraction of the accounted step the critical path spent waiting on
    /// ingest, in `[0, 1]` — the signal a well-fed pipeline keeps near 0.
    pub fn ingest_fraction(&self) -> f64 {
        let total = self.accounted_s();
        if total > 0.0 {
            (self.ingest_s / total).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Folds raw timeline spans into per-(rank, step) rows, ordered by rank
/// then step.
pub fn step_timeline(spans: &[SpanRecord]) -> Vec<StepOverlapRow> {
    let mut acc: BTreeMap<(usize, usize), StepOverlapRow> = BTreeMap::new();
    for s in spans {
        let row = acc.entry((s.rank, s.step)).or_insert(StepOverlapRow {
            rank: s.rank,
            step: s.step,
            forward_s: 0.0,
            backward_s: 0.0,
            comm_busy_s: 0.0,
            comm_exposed_s: 0.0,
            optimizer_s: 0.0,
            ingest_s: 0.0,
            overlap_fraction: 0.0,
        });
        match s.kind {
            SpanKind::Forward => row.forward_s += s.dur_s,
            SpanKind::Backward => row.backward_s += s.dur_s,
            SpanKind::CommBusy => row.comm_busy_s += s.dur_s,
            SpanKind::CommExposed => row.comm_exposed_s += s.dur_s,
            SpanKind::Optimizer => row.optimizer_s += s.dur_s,
            SpanKind::Ingest => row.ingest_s += s.dur_s,
        }
    }
    let mut rows: Vec<StepOverlapRow> = acc.into_values().collect();
    for r in &mut rows {
        if r.comm_busy_s > 0.0 {
            r.overlap_fraction = ((r.comm_busy_s - r.comm_exposed_s) / r.comm_busy_s).clamp(0.0, 1.0);
        }
    }
    rows
}

/// Mean exposed-comm seconds per step across the given rows.
pub fn mean_exposed_s(rows: &[StepOverlapRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.comm_exposed_s).sum::<f64>() / rows.len() as f64
}

/// Mean overlap fraction across the given rows.
pub fn mean_overlap_fraction(rows: &[StepOverlapRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.overlap_fraction).sum::<f64>() / rows.len() as f64
}

/// Mean exposed-ingest seconds per step across the given rows — the
/// per-step signal `exaclim_pipeline`'s `ReaderAutoscaler` sums over its
/// decision window.
pub fn mean_ingest_s(rows: &[StepOverlapRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.ingest_s).sum::<f64>() / rows.len() as f64
}

/// Renders the per-step timeline as a table (times in milliseconds).
pub fn render_step_timeline(rows: &[StepOverlapRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>4} {:>4} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "rank", "step", "ingest ms", "fwd ms", "bwd ms", "busy ms", "exposed ms", "opt ms", "overlap"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>4} {:>4} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>10.3} {:>7.0}%",
            r.rank,
            r.step,
            r.ingest_s * 1e3,
            r.forward_s * 1e3,
            r.backward_s * 1e3,
            r.comm_busy_s * 1e3,
            r.comm_exposed_s * 1e3,
            r.optimizer_s * 1e3,
            r.overlap_fraction * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, step: usize, kind: SpanKind, dur_s: f64) -> SpanRecord {
        SpanRecord { rank, step, kind, start_s: 0.0, dur_s }
    }

    #[test]
    fn folds_spans_into_rows_and_computes_overlap() {
        let spans = vec![
            span(0, 0, SpanKind::Forward, 0.010),
            span(0, 0, SpanKind::Backward, 0.020),
            span(0, 0, SpanKind::CommBusy, 0.004),
            span(0, 0, SpanKind::CommBusy, 0.004),
            span(0, 0, SpanKind::CommExposed, 0.002),
            span(0, 0, SpanKind::Optimizer, 0.001),
            span(1, 0, SpanKind::CommBusy, 0.006),
            span(1, 0, SpanKind::CommExposed, 0.006),
        ];
        let rows = step_timeline(&spans);
        assert_eq!(rows.len(), 2);
        let r0 = rows[0];
        assert_eq!((r0.rank, r0.step), (0, 0));
        assert!((r0.comm_busy_s - 0.008).abs() < 1e-12);
        assert!((r0.overlap_fraction - 0.75).abs() < 1e-9);
        let r1 = rows[1];
        assert_eq!(r1.rank, 1);
        assert!(r1.overlap_fraction.abs() < 1e-9, "fully exposed comm has zero overlap");
    }

    #[test]
    fn serial_reduction_reports_zero_overlap() {
        // Serial mode records busy == exposed; the fraction must clamp to 0
        // even with timer jitter making exposed marginally larger.
        let spans = vec![
            span(0, 0, SpanKind::CommBusy, 0.005),
            span(0, 0, SpanKind::CommExposed, 0.0051),
        ];
        let rows = step_timeline(&spans);
        assert_eq!(rows[0].overlap_fraction, 0.0);
    }

    #[test]
    fn renders_a_table_row_per_step() {
        let spans = vec![
            span(0, 0, SpanKind::Forward, 0.01),
            span(0, 1, SpanKind::Forward, 0.01),
        ];
        let text = render_step_timeline(&step_timeline(&spans));
        assert!(text.contains("overlap"));
        assert_eq!(text.lines().count(), 3, "header + two steps");
    }

    #[test]
    fn means_over_rows() {
        let spans = vec![
            span(0, 0, SpanKind::CommBusy, 0.004),
            span(0, 0, SpanKind::CommExposed, 0.001),
            span(0, 1, SpanKind::CommBusy, 0.004),
            span(0, 1, SpanKind::CommExposed, 0.003),
        ];
        let rows = step_timeline(&spans);
        assert!((mean_exposed_s(&rows) - 0.002).abs() < 1e-12);
        assert!(mean_overlap_fraction(&rows) > 0.0);
    }

    #[test]
    fn ingest_spans_fold_into_their_own_column() {
        let spans = vec![
            span(0, 0, SpanKind::Ingest, 0.006),
            span(0, 0, SpanKind::Ingest, 0.002),
            span(0, 0, SpanKind::Forward, 0.010),
            span(0, 0, SpanKind::Backward, 0.012),
            span(0, 1, SpanKind::Forward, 0.010),
        ];
        let rows = step_timeline(&spans);
        assert!((rows[0].ingest_s - 0.008).abs() < 1e-12);
        assert_eq!(rows[1].ingest_s, 0.0);
        assert!((mean_ingest_s(&rows) - 0.004).abs() < 1e-12);
        let frac = rows[0].ingest_fraction();
        assert!((frac - 0.008 / 0.030).abs() < 1e-9, "ingest share of the accounted step: {frac}");
        let text = render_step_timeline(&rows);
        assert!(text.contains("ingest ms"));
    }
}
