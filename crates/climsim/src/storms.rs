//! Per-storm analytics (§VIII-A).
//!
//! "Prior to this work, climate scientists reported coarse summary
//! statistics such as number of global storms. In contrast, we can now
//! compute conditional precipitation, wind velocity profiles and power
//! dissipation indices for individual storm systems." This module computes
//! exactly those per-event statistics from a segmentation mask: connected
//! components (longitude-periodic), per-storm area, centroid, peak wind,
//! conditional precipitation, core pressure, and the power dissipation
//! index (∝ ∫ v³).

use crate::fields::ClimateSample;
use crate::label::floodfill;
use crate::{channel_index, classes};

/// One detected storm system.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Class (TC or AR).
    pub class: u8,
    /// Pixel count.
    pub area: usize,
    /// Area as a fraction of the globe.
    pub area_fraction: f64,
    /// Centroid (row, col) in grid coordinates.
    pub centroid: (f64, f64),
    /// Centroid latitude in degrees.
    pub latitude: f64,
    /// Maximum 850 hPa wind speed inside the mask, m/s.
    pub max_wind: f64,
    /// Mean precipitation rate inside the mask (conditional precipitation).
    pub mean_precip: f64,
    /// Minimum sea-level pressure inside the mask, Pa.
    pub min_pressure: f64,
    /// Power dissipation index: Σ |v|³ over member pixels (∝ integrated
    /// cube of wind speed, the Emanuel PDI up to constants).
    pub power_dissipation: f64,
}

/// Summary statistics over a set of storms.
#[derive(Debug, Clone, Default)]
pub struct StormSummary {
    /// Tropical-cyclone count.
    pub tc_count: usize,
    /// Atmospheric-river count.
    pub ar_count: usize,
    /// Strongest TC wind observed, m/s.
    pub max_tc_wind: f64,
    /// Mean conditional precipitation over all storm pixels.
    pub mean_conditional_precip: f64,
    /// Total power dissipation over all TCs.
    pub total_tc_pdi: f64,
}

/// Extracts per-storm statistics from a mask over a sample's fields.
///
/// `min_area` suppresses speckle components (heuristic or network masks
/// can produce single-pixel noise).
pub fn analyze_storms(sample: &ClimateSample, mask: &[u8], min_area: usize) -> Vec<Storm> {
    let (h, w) = (sample.h, sample.w);
    assert_eq!(mask.len(), h * w, "mask size mismatch");
    let u = sample.channel(channel_index("U850").expect("U850"));
    let v = sample.channel(channel_index("V850").expect("V850"));
    let prect = sample.channel(channel_index("PRECT").expect("PRECT"));
    let psl = sample.channel(channel_index("PSL").expect("PSL"));

    let mut visited = vec![false; h * w];
    let mut storms = Vec::new();
    for seed in 0..h * w {
        if visited[seed] || mask[seed] == classes::BG {
            continue;
        }
        let class = mask[seed];
        // Longitude-periodic 4-connected floodfill over same-class pixels.
        let mut members = Vec::new();
        floodfill(h, w, seed, |j| mask[j] == class, &mut visited, &mut members);
        if members.len() < min_area {
            continue;
        }

        let mut cy = 0.0f64;
        let mut cx = 0.0f64;
        let mut max_wind = 0.0f64;
        let mut precip = 0.0f64;
        let mut min_p = f64::INFINITY;
        let mut pdi = 0.0f64;
        for &i in &members {
            cy += (i / w) as f64;
            cx += (i % w) as f64;
            let speed = ((u[i] as f64).powi(2) + (v[i] as f64).powi(2)).sqrt();
            max_wind = max_wind.max(speed);
            pdi += speed.powi(3);
            precip += prect[i] as f64;
            min_p = min_p.min(psl[i] as f64);
        }
        let n = members.len() as f64;
        let centroid = (cy / n, cx / n);
        storms.push(Storm {
            class,
            area: members.len(),
            area_fraction: n / (h * w) as f64,
            centroid,
            latitude: -90.0 + 180.0 * (centroid.0 + 0.5) / h as f64,
            max_wind,
            mean_precip: precip / n,
            min_pressure: min_p,
            power_dissipation: pdi,
        });
    }
    storms
}

/// Aggregates storms into the summary climate scientists previously had
/// to stop at — plus the per-storm detail they can now go beyond it with.
pub fn summarize(storms: &[Storm]) -> StormSummary {
    let mut s = StormSummary::default();
    let mut precip_weighted = 0.0;
    let mut total_area = 0usize;
    for storm in storms {
        match storm.class {
            classes::TC => {
                s.tc_count += 1;
                s.max_tc_wind = s.max_tc_wind.max(storm.max_wind);
                s.total_tc_pdi += storm.power_dissipation;
            }
            classes::AR => s.ar_count += 1,
            _ => {}
        }
        precip_weighted += storm.mean_precip * storm.area as f64;
        total_area += storm.area;
    }
    if total_area > 0 {
        s.mean_conditional_precip = precip_weighted / total_area as f64;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{FieldGenerator, GeneratorConfig};
    use crate::label::{heuristic_labels, LabelerConfig};

    fn generated() -> (ClimateSample, FieldGenerator) {
        let g = FieldGenerator::new(GeneratorConfig::small(77));
        (g.generate(2), g)
    }

    #[test]
    fn finds_the_injected_events() {
        let (s, _) = generated();
        let storms = analyze_storms(&s, &s.true_mask, 3);
        let summary = summarize(&storms);
        // GeneratorConfig::small injects 1–3 TCs and 1–2 ARs.
        assert!(summary.tc_count >= 1 && summary.tc_count <= 4, "TCs {}", summary.tc_count);
        assert!(summary.ar_count >= 1 && summary.ar_count <= 3, "ARs {}", summary.ar_count);
    }

    #[test]
    fn tc_statistics_are_physical() {
        let (s, _) = generated();
        let storms = analyze_storms(&s, &s.true_mask, 3);
        let tcs: Vec<&Storm> = storms.iter().filter(|st| st.class == classes::TC).collect();
        assert!(!tcs.is_empty());
        for tc in tcs {
            assert!(tc.max_wind > 15.0, "TC winds {:.1} m/s", tc.max_wind);
            assert!(tc.latitude.abs() < 40.0, "TCs live in the tropics: {:.1}°", tc.latitude);
            assert!(tc.min_pressure < 101_000.0, "TC core is a low: {:.0} Pa", tc.min_pressure);
            assert!(tc.power_dissipation > 0.0);
        }
    }

    #[test]
    fn ars_are_larger_than_tcs() {
        let (s, _) = generated();
        let storms = analyze_storms(&s, &s.true_mask, 3);
        let max_tc = storms.iter().filter(|s| s.class == classes::TC).map(|s| s.area).max();
        let max_ar = storms.iter().filter(|s| s.class == classes::AR).map(|s| s.area).max();
        if let (Some(tc), Some(ar)) = (max_tc, max_ar) {
            assert!(ar > tc, "filaments outsize cyclone cores: AR {ar} vs TC {tc}");
        }
    }

    #[test]
    fn conditional_precip_beats_global_mean() {
        // §VIII-A's "conditional precipitation": storm pixels must be much
        // wetter than the global average.
        let (s, _) = generated();
        let storms = analyze_storms(&s, &s.true_mask, 3);
        let summary = summarize(&storms);
        let prect = s.channel(channel_index("PRECT").expect("PRECT"));
        let global_mean = prect.iter().map(|&v| v as f64).sum::<f64>() / prect.len() as f64;
        assert!(
            summary.mean_conditional_precip > 1.5 * global_mean,
            "conditional {:.2e} vs global {:.2e}",
            summary.mean_conditional_precip,
            global_mean
        );
    }

    #[test]
    fn heuristic_masks_yield_similar_counts_to_truth() {
        let (s, _) = generated();
        let truth = summarize(&analyze_storms(&s, &s.true_mask, 3));
        let mask = heuristic_labels(&s, &LabelerConfig::default());
        let heur = summarize(&analyze_storms(&s, &mask, 3));
        let diff = (truth.tc_count as i64 - heur.tc_count as i64).abs();
        assert!(diff <= 2, "TC counts: truth {} vs heuristic {}", truth.tc_count, heur.tc_count);
    }

    #[test]
    fn min_area_suppresses_speckle() {
        let (s, _) = generated();
        let mut speckled = s.true_mask.clone();
        speckled[0] = classes::TC; // a lone corner pixel
        let with = analyze_storms(&s, &speckled, 1).len();
        let without = analyze_storms(&s, &speckled, 3).len();
        assert!(without < with, "min_area must drop the speckle");
    }
}

/// A storm tracked across consecutive frames (§VIII-A's temporal outlook:
/// "AR tracks", storms "making landfall more often").
#[derive(Debug, Clone)]
pub struct StormTrack {
    /// Class (TC or AR).
    pub class: u8,
    /// First frame the storm appears in.
    pub start_frame: usize,
    /// Per-frame snapshots, in frame order.
    pub states: Vec<Storm>,
}

impl StormTrack {
    /// Track length in frames.
    pub fn lifetime(&self) -> usize {
        self.states.len()
    }

    /// Net longitudinal displacement in grid columns (positive = east),
    /// unwrapped across the date line.
    pub fn zonal_displacement(&self, grid_w: usize) -> f64 {
        let w = grid_w as f64;
        let mut total = 0.0;
        for pair in self.states.windows(2) {
            let mut dx = pair[1].centroid.1 - pair[0].centroid.1;
            if dx > w / 2.0 {
                dx -= w;
            }
            if dx < -w / 2.0 {
                dx += w;
            }
            total += dx;
        }
        total
    }

    /// Peak wind over the lifetime.
    pub fn peak_wind(&self) -> f64 {
        self.states.iter().map(|s| s.max_wind).fold(0.0, f64::max)
    }
}

/// Periodic centroid distance on the grid.
fn centroid_distance(a: (f64, f64), b: (f64, f64), w: usize) -> f64 {
    let dy = a.0 - b.0;
    let mut dx = (a.1 - b.1).abs();
    if dx > w as f64 / 2.0 {
        dx = w as f64 - dx;
    }
    (dy * dy + dx * dx).sqrt()
}

/// Links per-frame storm detections into tracks by nearest-centroid
/// matching (same class, within `max_step` pixels per frame).
pub fn track_storms(per_frame: &[Vec<Storm>], grid_w: usize, max_step: f64) -> Vec<StormTrack> {
    let mut open: Vec<StormTrack> = Vec::new();
    let mut closed: Vec<StormTrack> = Vec::new();
    for (t, storms) in per_frame.iter().enumerate() {
        let mut used = vec![false; storms.len()];
        let mut still_open = Vec::new();
        for mut track in open.drain(..) {
            let last = track.states.last().expect("non-empty track");
            // Greedy nearest unmatched same-class detection.
            let best = storms
                .iter()
                .enumerate()
                .filter(|(i, s)| !used[*i] && s.class == track.class)
                .map(|(i, s)| (i, centroid_distance(last.centroid, s.centroid, grid_w)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match best {
                Some((i, d)) if d <= max_step => {
                    used[i] = true;
                    track.states.push(storms[i].clone());
                    still_open.push(track);
                }
                _ => closed.push(track),
            }
        }
        open = still_open;
        for (i, s) in storms.iter().enumerate() {
            if !used[i] {
                open.push(StormTrack {
                    class: s.class,
                    start_frame: t,
                    states: vec![s.clone()],
                });
            }
        }
    }
    closed.extend(open);
    closed
}

#[cfg(test)]
mod track_tests {
    use super::*;
    use crate::sequence::SequenceGenerator;
    use crate::fields::GeneratorConfig;

    #[test]
    fn tracking_links_synthetic_motion() {
        // Hand-built detections: one storm moving east 3 px/frame, plus a
        // one-frame speckle far away.
        let mk = |cy: f64, cx: f64| Storm {
            class: crate::classes::TC,
            area: 10,
            area_fraction: 0.01,
            centroid: (cy, cx),
            latitude: 0.0,
            max_wind: 30.0,
            mean_precip: 1e-7,
            min_pressure: 98_000.0,
            power_dissipation: 1.0,
        };
        let frames = vec![
            vec![mk(10.0, 5.0)],
            vec![mk(10.5, 8.0), mk(40.0, 60.0)],
            vec![mk(11.0, 11.0)],
        ];
        let tracks = track_storms(&frames, 144, 6.0);
        assert_eq!(tracks.len(), 2);
        let main = tracks.iter().find(|t| t.lifetime() == 3).expect("3-frame track");
        assert_eq!(main.start_frame, 0);
        assert!((main.zonal_displacement(144) - 6.0).abs() < 1e-9);
        let speckle = tracks.iter().find(|t| t.lifetime() == 1).expect("speckle");
        assert_eq!(speckle.start_frame, 1);
    }

    #[test]
    fn tracking_handles_dateline_crossing() {
        let mk = |cx: f64| Storm {
            class: crate::classes::TC,
            area: 10,
            area_fraction: 0.01,
            centroid: (10.0, cx),
            latitude: 0.0,
            max_wind: 30.0,
            mean_precip: 1e-7,
            min_pressure: 98_000.0,
            power_dissipation: 1.0,
        };
        // Westward through the 0-meridian on a 100-wide grid.
        let frames = vec![vec![mk(2.0)], vec![mk(98.0)], vec![mk(94.0)]];
        let tracks = track_storms(&frames, 100, 6.0);
        assert_eq!(tracks.len(), 1, "date-line crossing must not split the track");
        assert!((tracks[0].zonal_displacement(100) - (-8.0)).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_sequence_tracking() {
        // Generate a real sequence, detect per frame, track, and check a
        // multi-frame TC track exists with westward drift.
        let gen = SequenceGenerator::new(GeneratorConfig {
            tc_range: (1, 1),
            ar_range: (0, 0),
            ..GeneratorConfig::small(205)
        });
        let frames = gen.generate(1, 5);
        let detections: Vec<Vec<Storm>> = frames
            .iter()
            .map(|f| analyze_storms(f, &f.true_mask, 3))
            .collect();
        let w = frames[0].w;
        let tracks = track_storms(&detections, w, 12.0);
        let tc_tracks: Vec<&StormTrack> = tracks
            .iter()
            .filter(|t| t.class == crate::classes::TC && t.lifetime() >= 3)
            .collect();
        assert!(!tc_tracks.is_empty(), "a persistent TC track must be recovered");
        for t in tc_tracks {
            assert!(
                t.zonal_displacement(w) <= 1.0,
                "TCs drift westward: {}",
                t.zonal_displacement(w)
            );
            assert!(t.peak_wind() > 15.0);
        }
    }
}
