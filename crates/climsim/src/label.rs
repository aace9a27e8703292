//! TECA-like heuristic labeling (§III-A2).
//!
//! The paper's ground truth is *not* hand-drawn: "scientists currently use
//! a combination of heuristics" — TECA's pressure/wind/warm-core criteria
//! for tropical cyclones, and a floodfill over integrated water vapor for
//! atmospheric rivers. This module reimplements those heuristics against
//! the synthetic fields, so the labels we train on inherit the same
//! strengths and imperfections (Fig 7's caption notes the network's
//! boundaries sometimes look *better* than the heuristic labels).

use crate::fields::ClimateSample;
use crate::{channel_index, classes};

/// Heuristic thresholds.
#[derive(Debug, Clone)]
pub struct LabelerConfig {
    /// Sea-level-pressure depression (Pa below the zonal median) that marks
    /// a TC candidate core.
    pub tc_psl_depression: f32,
    /// Minimum 850 hPa wind speed (m/s) for TC pixels.
    pub tc_wind: f32,
    /// Warm-core test: T200 anomaly (K) above zonal median at the core.
    pub tc_warm_core: f32,
    /// TMQ anomaly (kg/m²) above the zonal median that seeds AR floodfill.
    pub ar_tmq_anomaly: f32,
    /// Minimum AR component latitude span, as a fraction of grid height.
    pub ar_min_lat_span: f32,
    /// Maximum AR component area fraction (rejects broad moist blobs).
    pub ar_max_area: f32,
}

impl Default for LabelerConfig {
    fn default() -> LabelerConfig {
        LabelerConfig {
            tc_psl_depression: 900.0,
            tc_wind: 15.0,
            tc_warm_core: 1.0,
            ar_tmq_anomaly: 12.0,
            ar_min_lat_span: 0.08,
            ar_max_area: 0.05,
        }
    }
}

/// Per-row (zonal) median of a field — the anomaly baseline TECA-style
/// detectors use so latitude structure does not trip thresholds.
fn zonal_median(field: &[f32], h: usize, w: usize) -> Vec<f32> {
    let mut med = vec![0.0f32; h];
    let mut row = vec![0.0f32; w];
    for y in 0..h {
        row.copy_from_slice(&field[y * w..(y + 1) * w]);
        row.sort_by(|a, b| a.partial_cmp(b).expect("finite field"));
        med[y] = row[w / 2];
    }
    med
}

/// 4-connected floodfill collecting the component of `seed` among the
/// pixels `member` admits: each is marked in `visited` and appended to
/// `out`, in depth-first order.
pub(crate) fn floodfill(
    h: usize,
    w: usize,
    seed: usize,
    member: impl Fn(usize) -> bool,
    visited: &mut [bool],
    out: &mut Vec<usize>,
) {
    let mut stack = vec![seed];
    visited[seed] = true;
    while let Some(i) = stack.pop() {
        out.push(i);
        let (y, x) = (i / w, i % w);
        // Longitude wraps; latitude does not.
        let mut push = |j: usize| {
            if member(j) && !visited[j] {
                visited[j] = true;
                stack.push(j);
            }
        };
        if y > 0 {
            push(i - w);
        }
        if y + 1 < h {
            push(i + w);
        }
        push(y * w + (x + 1) % w);
        push(y * w + (x + w - 1) % w);
    }
}

/// Runs the TC and AR heuristics over a sample, producing a BG/TC/AR mask.
pub fn heuristic_labels(sample: &ClimateSample, cfg: &LabelerConfig) -> Vec<u8> {
    let (h, w) = (sample.h, sample.w);
    let hw = h * w;
    let psl = sample.channel(channel_index("PSL").expect("PSL"));
    let u = sample.channel(channel_index("U850").expect("U850"));
    let v = sample.channel(channel_index("V850").expect("V850"));
    let t200 = sample.channel(channel_index("T200").expect("T200"));
    let tmq = sample.channel(channel_index("TMQ").expect("TMQ"));

    let psl_med = zonal_median(psl, h, w);
    let t200_med = zonal_median(t200, h, w);
    let tmq_med = zonal_median(tmq, h, w);

    let mut mask = vec![classes::BG; hw];

    // --- tropical cyclones: candidate = deep low + strong wind ----------
    let candidate: Vec<bool> = (0..hw)
        .map(|i| {
            let y = i / w;
            let wind = (u[i] * u[i] + v[i] * v[i]).sqrt();
            psl[i] < psl_med[y] - cfg.tc_psl_depression && wind > cfg.tc_wind
        })
        .collect();
    let mut visited = vec![false; hw];
    let mut comp = Vec::new();
    for seed in 0..hw {
        if candidate[seed] && !visited[seed] {
            comp.clear();
            floodfill(h, w, seed, |j| candidate[j], &mut visited, &mut comp);
            // Warm-core test at the component's pressure minimum.
            let core = comp
                .iter()
                .copied()
                .min_by(|&a, &b| psl[a].partial_cmp(&psl[b]).expect("finite"))
                .expect("non-empty component");
            let cy = core / w;
            if t200[core] - t200_med[cy] >= cfg.tc_warm_core {
                for &i in &comp {
                    mask[i] = classes::TC;
                }
            }
        }
    }

    // --- atmospheric rivers: TMQ anomaly floodfill + shape tests --------
    let candidate: Vec<bool> = (0..hw)
        .map(|i| {
            let y = i / w;
            mask[i] == classes::BG && tmq[i] > tmq_med[y] + cfg.ar_tmq_anomaly
        })
        .collect();
    let mut visited = vec![false; hw];
    for seed in 0..hw {
        if candidate[seed] && !visited[seed] {
            comp.clear();
            floodfill(h, w, seed, |j| candidate[j], &mut visited, &mut comp);
            let ys_min = comp.iter().map(|&i| i / w).min().expect("non-empty");
            let ys_max = comp.iter().map(|&i| i / w).max().expect("non-empty");
            let span = (ys_max - ys_min) as f32 / h as f32;
            let area = comp.len() as f32 / hw as f32;
            if span >= cfg.ar_min_lat_span && area <= cfg.ar_max_area {
                for &i in &comp {
                    mask[i] = classes::AR;
                }
            }
        }
    }

    mask
}

/// Intersection-over-union between two masks for one class — used to
/// validate the heuristics against the generator's true masks.
#[cfg(test)]
fn mask_iou(a: &[u8], b: &[u8], class: u8) -> f64 {
    let mut inter = 0u64;
    let mut union = 0u64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let (xa, yb) = (x == class, y == class);
        if xa && yb {
            inter += 1;
        }
        if xa || yb {
            union += 1;
        }
    }
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{FieldGenerator, GeneratorConfig};

    fn fractions(mask: &[u8]) -> [f64; 3] {
        let mut c = [0usize; 3];
        for &m in mask {
            c[m as usize] += 1;
        }
        [
            c[0] as f64 / mask.len() as f64,
            c[1] as f64 / mask.len() as f64,
            c[2] as f64 / mask.len() as f64,
        ]
    }

    #[test]
    fn heuristics_rediscover_injected_events() {
        let g = FieldGenerator::new(GeneratorConfig::small(11));
        let cfg = LabelerConfig::default();
        let mut tc_iou_sum = 0.0;
        let mut ar_iou_sum = 0.0;
        let n = 6;
        for i in 0..n {
            let s = g.generate(i);
            let mask = heuristic_labels(&s, &cfg);
            tc_iou_sum += mask_iou(&mask, &s.true_mask, crate::classes::TC);
            ar_iou_sum += mask_iou(&mask, &s.true_mask, crate::classes::AR);
        }
        let (tc_iou, ar_iou) = (tc_iou_sum / n as f64, ar_iou_sum / n as f64);
        // Heuristics approximate — not reproduce — the true events, exactly
        // like TECA labels approximate real storms.
        assert!(tc_iou > 0.25, "TC heuristic IoU {tc_iou}");
        assert!(ar_iou > 0.25, "AR heuristic IoU {ar_iou}");
        assert!(tc_iou < 0.999 || ar_iou < 0.999, "labels should be imperfect");
    }

    #[test]
    fn heuristic_class_mix_matches_paper_order() {
        let g = FieldGenerator::new(GeneratorConfig::small(13));
        let cfg = LabelerConfig::default();
        let mut f = [0.0f64; 3];
        let n = 8;
        for i in 0..n {
            let s = g.generate(i);
            let fr = fractions(&heuristic_labels(&s, &cfg));
            for k in 0..3 {
                f[k] += fr[k] / n as f64;
            }
        }
        // Paper: 98.2 % BG, 1.7 % AR, <0.1 % TC → BG ≫ AR ≫ TC.
        assert!(f[0] > 0.90, "BG {:.4}", f[0]);
        assert!(f[2] > f[1], "AR ({:.4}) should outweigh TC ({:.4})", f[2], f[1]);
        assert!(f[1] < 0.02, "TC {:.4}", f[1]);
    }

    #[test]
    fn quiet_background_yields_no_events() {
        // A sample with zero injected events should produce (almost) no
        // detections.
        let g = FieldGenerator::new(GeneratorConfig {
            tc_range: (0, 0),
            ar_range: (0, 0),
            ..GeneratorConfig::small(17)
        });
        let s = g.generate(0);
        let mask = heuristic_labels(&s, &LabelerConfig::default());
        let f = fractions(&mask);
        assert!(f[1] < 0.002, "spurious TC fraction {:.5}", f[1]);
        assert!(f[2] < 0.01, "spurious AR fraction {:.5}", f[2]);
    }

    #[test]
    fn floodfill_wraps_longitude() {
        let (h, w) = (3, 8);
        let mut cand = vec![false; h * w];
        // A band crossing the date line on row 1.
        cand[w + 7] = true;
        cand[w] = true;
        cand[w + 1] = true;
        let mut visited = vec![false; h * w];
        let mut out = Vec::new();
        floodfill(h, w, w + 7, |j| cand[j], &mut visited, &mut out);
        assert_eq!(out.len(), 3, "wrapped component must be connected");
    }

    #[test]
    fn mask_iou_basics() {
        let a = vec![0u8, 1, 1, 0];
        let b = vec![0u8, 1, 0, 1];
        assert_eq!(mask_iou(&a, &b, 1), 1.0 / 3.0);
        assert_eq!(mask_iou(&a, &a, 1), 1.0);
        assert_eq!(mask_iou(&a, &b, 2), 1.0, "absent class counts as perfect");
    }
}
