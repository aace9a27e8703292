//! Spans recorded from outside the program, around calls into its layers.
//!
//! A traced run keeps spans in memory and writes them out once, at exit.
//! Spans of one training step (or one request) share an `id`; `parent`
//! names the span that caused this one. A layer's self time is its span
//! minus what its children cover; the per-operation table prints those
//! self times beside the wall time, with the remainder nobody claimed.

use crate::json::Value;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One span. Times are microseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the time belongs to.
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Name of the enclosing span ("" for a root).
    pub parent: &'static str,
    /// `rank:step` for training, the request or frame number for serving.
    pub id: String,
}

/// Where spans go: shared by every wrapper of a traced run.
#[derive(Clone)]
pub struct TraceSink {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl TraceSink {
    pub fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: &'static str,
        id: String,
        start: Instant,
        end: Instant,
    ) {
        self.record_us(name, layer, parent, id, self.us(start), self.us(end));
    }

    pub fn record_us(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: &'static str,
        id: String,
        start_us: f64,
        end_us: f64,
    ) {
        let span = Span {
            name,
            layer,
            start_us,
            end_us,
            parent,
            id,
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Every span so far, in start order.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span recorder panicked").clone();
        spans.sort_by(|a, b| {
            a.start_us
                .partial_cmp(&b.start_us)
                .expect("span times are finite")
        });
        spans
    }
}

/// One JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Value::obj([
            ("name", Value::Str(s.name.into())),
            ("layer", Value::Str(s.layer.into())),
            ("start_us", Value::Num(s.start_us)),
            ("end_us", Value::Num(s.end_us)),
            ("parent", Value::Str(s.parent.into())),
            ("id", Value::Str(s.id.clone())),
        ]);
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

/// One operation's wall time split into the self times of named parts.
pub struct Row {
    pub id: String,
    pub wall_ms: f64,
    /// One value per column of the table, in column order.
    pub parts_ms: Vec<f64>,
}

impl Row {
    /// Wall time no part accounts for.
    pub fn remainder_ms(&self) -> f64 {
        self.wall_ms - self.parts_ms.iter().sum::<f64>()
    }
}

/// Renders the first `show` rows and the mean over all of them. Every row
/// ends with the unaccounted remainder, so the columns sum to `wall`.
pub fn render_table(title: &str, columns: &[&str], rows: &[Row], show: usize) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!("{:>10} {:>10}", "id", "wall_ms"));
    for c in columns {
        out.push_str(&format!(" {c:>22}"));
    }
    out.push_str(&format!(" {:>14}\n", "unaccounted_ms"));
    let line = |id: &str, wall: f64, parts: &[f64], rem: f64| {
        let mut l = format!("{id:>10} {wall:>10.3}");
        for p in parts {
            l.push_str(&format!(" {p:>22.3}"));
        }
        l.push_str(&format!(" {rem:>14.3}\n"));
        l
    };
    for r in rows.iter().take(show) {
        out.push_str(&line(&r.id, r.wall_ms, &r.parts_ms, r.remainder_ms()));
    }
    if rows.len() > show {
        out.push_str(&format!("{:>10}\n", "..."));
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        let wall = rows.iter().map(|r| r.wall_ms).sum::<f64>() / n;
        let parts: Vec<f64> = (0..columns.len())
            .map(|c| rows.iter().map(|r| r.parts_ms[c]).sum::<f64>() / n)
            .collect();
        let rem = rows.iter().map(Row::remainder_ms).sum::<f64>() / n;
        out.push_str(&line(&format!("mean/{}", rows.len()), wall, &parts, rem));
        out.push_str(&format!("{:>10} {:>10}", "share", "100.0%"));
        for p in &parts {
            out.push_str(&format!(" {:>21.1}%", 100.0 * p / wall));
        }
        out.push_str(&format!(" {:>13.1}%\n", 100.0 * rem / wall));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_wall_with_the_remainder_shown() {
        let rows = vec![
            Row {
                id: "0:5".into(),
                wall_ms: 10.0,
                parts_ms: vec![1.0, 6.0],
            },
            Row {
                id: "0:6".into(),
                wall_ms: 12.0,
                parts_ms: vec![1.0, 8.0],
            },
        ];
        assert_eq!(rows[0].remainder_ms(), 3.0);
        let t = render_table("steps", &["pipeline.wait", "models.forward"], &rows, 1);
        assert!(t.contains("unaccounted_ms"));
        assert!(t.contains("mean/2"));
        // mean wall 11 = 1 + 7 + remainder 3
        let mean = t.lines().find(|l| l.contains("mean/2")).expect("mean row");
        let nums: Vec<f64> = mean
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().expect("number"))
            .collect();
        assert_eq!(nums, vec![11.0, 1.0, 7.0, 3.0]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let sink = TraceSink::new();
        let t0 = sink.epoch;
        sink.record(
            "step",
            "distrib",
            "",
            "0:0".into(),
            t0,
            t0 + std::time::Duration::from_micros(1500),
        );
        sink.record_us(
            "models.forward",
            "models",
            "step",
            "0:0".into(),
            10.0,
            900.0,
        );
        let text = to_jsonl(&sink.snapshot());
        assert_eq!(text.lines().count(), 2);
        let first = crate::json::parse(text.lines().next().expect("line")).expect("json");
        assert_eq!(first.get("name").and_then(Value::as_str), Some("step"));
        assert_eq!(first.get("end_us").and_then(Value::as_f64), Some(1500.0));
    }
}
