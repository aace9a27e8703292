//! Synthetic CAM5-like field generation.
//!
//! Every sample is a 16-channel snapshot on a lat/lon grid with smooth,
//! latitude-structured backgrounds plus injected tropical-cyclone vortices
//! and atmospheric-river moisture filaments. Geometry scales with the grid
//! so the same statistics hold from the 96×144 test size up to the paper's
//! 768×1152.

use crate::classes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthetic snapshot: `channels × h × w` fields plus the generator's
/// own ("true") event mask.
#[derive(Debug, Clone)]
pub struct ClimateSample {
    /// Grid height (latitude).
    pub h: usize,
    /// Grid width (longitude).
    pub w: usize,
    /// Channel count (16).
    pub channels: usize,
    /// Channel-major field data, `channels * h * w` values.
    pub data: Vec<f32>,
    /// Ground-truth mask painted by the generator (BG/TC/AR).
    pub true_mask: Vec<u8>,
}

impl ClimateSample {
    /// Immutable view of one channel.
    pub fn channel(&self, c: usize) -> &[f32] {
        &self.data[c * self.h * self.w..(c + 1) * self.h * self.w]
    }

    /// Mutable view of one channel.
    fn channel_mut(&mut self, c: usize) -> &mut [f32] {
        &mut self.data[c * self.h * self.w..(c + 1) * self.h * self.w]
    }
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Grid height.
    pub h: usize,
    /// Grid width.
    pub w: usize,
    /// Base RNG seed; sample `i` uses `seed ⊕ hash(i)`.
    pub seed: u64,
    /// Min/max tropical cyclones per snapshot.
    pub tc_range: (usize, usize),
    /// Min/max atmospheric rivers per snapshot.
    pub ar_range: (usize, usize),
    /// Smooth-noise modes per channel.
    pub noise_modes: usize,
}

impl GeneratorConfig {
    /// Test-scale default grid (96×144).
    pub fn small(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            h: 96,
            w: 144,
            seed,
            tc_range: (1, 3),
            ar_range: (1, 2),
            noise_modes: 6,
        }
    }

    /// The paper's full CAM5 grid (768×1152) — used by the analytic paths.
    pub fn paper(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            h: 768,
            w: 1152,
            seed,
            tc_range: (2, 6),
            ar_range: (2, 4),
            noise_modes: 10,
        }
    }
}

/// Deterministic synthetic-field generator.
#[derive(Debug, Clone)]
pub struct FieldGenerator {
    config: GeneratorConfig,
}

/// Per-channel background description: `value = a + b·exp(−(lat/c)²) +
/// d·sin(k·lat_rad)` plus smooth noise with amplitude `noise`.
struct ChannelProfile {
    a: f32,
    b: f32,
    c: f32,
    d: f32,
    k: f32,
    noise: f32,
}

fn profiles() -> [ChannelProfile; 16] {
    // Ordered as CHANNEL_NAMES.
    [
        ChannelProfile { a: 8.0, b: 42.0, c: 24.0, d: 0.0, k: 0.0, noise: 5.0 }, // TMQ
        ChannelProfile { a: 0.0, b: 0.0, c: 1.0, d: -9.0, k: 3.0, noise: 4.0 },  // U850
        ChannelProfile { a: 0.0, b: 0.0, c: 1.0, d: 2.0, k: 5.0, noise: 3.5 },   // V850
        ChannelProfile { a: 0.0, b: 0.0, c: 1.0, d: -7.0, k: 3.0, noise: 3.0 },  // UBOT
        ChannelProfile { a: 0.0, b: 0.0, c: 1.0, d: 1.5, k: 5.0, noise: 2.5 },   // VBOT
        ChannelProfile { a: 0.002, b: 0.016, c: 28.0, d: 0.0, k: 0.0, noise: 0.002 }, // QREFHT
        ChannelProfile { a: 100_800.0, b: 500.0, c: 50.0, d: 0.0, k: 0.0, noise: 350.0 }, // PS
        ChannelProfile { a: 101_000.0, b: 350.0, c: 45.0, d: 0.0, k: 0.0, noise: 400.0 }, // PSL
        ChannelProfile { a: 208.0, b: 12.0, c: 38.0, d: 0.0, k: 0.0, noise: 1.5 },  // T200
        ChannelProfile { a: 248.0, b: 18.0, c: 40.0, d: 0.0, k: 0.0, noise: 1.5 },  // T500
        ChannelProfile { a: 1.0e-8, b: 6.0e-8, c: 12.0, d: 0.0, k: 0.0, noise: 1.2e-8 }, // PRECT
        ChannelProfile { a: 266.0, b: 34.0, c: 38.0, d: 0.0, k: 0.0, noise: 2.0 },  // TS
        ChannelProfile { a: 264.0, b: 33.0, c: 38.0, d: 0.0, k: 0.0, noise: 2.0 },  // TREFHT
        ChannelProfile { a: 16_200.0, b: 300.0, c: 45.0, d: 0.0, k: 0.0, noise: 60.0 }, // Z100
        ChannelProfile { a: 11_800.0, b: 350.0, c: 45.0, d: 0.0, k: 0.0, noise: 70.0 }, // Z200
        ChannelProfile { a: 60.0, b: 12.0, c: 50.0, d: 0.0, k: 0.0, noise: 8.0 },   // ZBOT
    ]
}

/// Parameters of one tropical-cyclone event.
#[derive(Debug, Clone, Copy)]
pub struct TcParams {
    /// Centre row (grid coordinates).
    pub cy: f32,
    /// Centre column (grid coordinates, longitude-periodic).
    pub cx: f32,
    /// Core radius σ, pixels.
    pub sigma: f32,
    /// Central pressure depression, Pa.
    pub depth: f32,
    /// Peak tangential wind, m/s.
    pub vmax: f32,
}

/// Parameters of one atmospheric-river event (quadratic Bézier filament).
#[derive(Debug, Clone, Copy)]
pub struct ArParams {
    /// Start point (row, col).
    pub p0: (f32, f32),
    /// Control point (row, col).
    pub p1: (f32, f32),
    /// End point (row, col).
    pub p2: (f32, f32),
    /// Filament half-width, pixels.
    pub width: f32,
    /// TMQ boost amplitude, kg/m².
    pub amp: f32,
    /// Along-filament wind boost, m/s.
    pub wind: f32,
}

const C_TMQ: usize = 0;
const C_U850: usize = 1;
const C_V850: usize = 2;
const C_UBOT: usize = 3;
const C_VBOT: usize = 4;
const C_PS: usize = 6;
const C_PSL: usize = 7;
const C_T200: usize = 8;
const C_PRECT: usize = 10;

impl FieldGenerator {
    /// New generator.
    pub fn new(config: GeneratorConfig) -> FieldGenerator {
        FieldGenerator { config }
    }

    /// The configured grid.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Latitude in degrees of grid row `y`.
    pub fn latitude(&self, y: usize) -> f32 {
        -90.0 + 180.0 * (y as f32 + 0.5) / self.config.h as f32
    }

    /// Generates sample `index` deterministically.
    pub fn generate(&self, index: u64) -> ClimateSample {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let (h, w) = (self.config.h, self.config.w);
        let hw = h * w;
        let mut sample = ClimateSample {
            h,
            w,
            channels: 16,
            data: vec![0.0; 16 * hw],
            true_mask: vec![classes::BG; hw],
        };

        // --- backgrounds -------------------------------------------------
        let profs = profiles();
        for (c, p) in profs.iter().enumerate() {
            // Smooth noise: a few random long-wavelength modes.
            let modes: Vec<(f32, f32, f32, f32)> = (0..self.config.noise_modes)
                .map(|_| {
                    (
                        rng.gen_range(0.5..4.0),                        // fx
                        rng.gen_range(0.5..4.0),                        // fy
                        rng.gen_range(0.0..std::f32::consts::TAU),      // phase
                        rng.gen_range(0.3..1.0),                        // amp
                    )
                })
                .collect();
            let field = sample.channel_mut(c);
            for y in 0..h {
                let lat = -90.0 + 180.0 * (y as f32 + 0.5) / h as f32;
                let latr = lat.to_radians();
                let base = p.a + p.b * (-(lat / p.c) * (lat / p.c)).exp() + p.d * (p.k * latr).sin();
                for x in 0..w {
                    let mut n = 0.0;
                    for &(fx, fy, ph, amp) in &modes {
                        n += amp
                            * (std::f32::consts::TAU * (fx * x as f32 / w as f32 + fy * y as f32 / h as f32) + ph)
                                .sin();
                    }
                    field[y * w + x] = base + p.noise * n / self.config.noise_modes as f32 * 2.0;
                }
            }
        }

        // --- tropical cyclones -------------------------------------------
        let n_tc = rng.gen_range(self.config.tc_range.0..=self.config.tc_range.1);
        for _ in 0..n_tc {
            self.paint_tc(&mut sample, &mut rng);
        }

        // --- atmospheric rivers ------------------------------------------
        let n_ar = rng.gen_range(self.config.ar_range.0..=self.config.ar_range.1);
        for _ in 0..n_ar {
            self.paint_ar(&mut sample, &mut rng);
        }

        sample
    }

    /// Generates only the background fields (no events) for frame `index`
    /// — the canvas the sequence generator paints advected events onto.
    pub fn generate_background(&self, index: u64) -> ClimateSample {
        let save = self.config.clone();
        let quiet = FieldGenerator::new(GeneratorConfig {
            tc_range: (0, 0),
            ar_range: (0, 0),
            ..save
        });
        quiet.generate(index)
    }

    /// Core radius (σ, pixels) of a TC at this resolution: ~300 km at the
    /// paper's 0.25° grid, ≈ w/110.
    fn tc_sigma(&self) -> f32 {
        (self.config.w as f32 / 110.0).max(1.0)
    }

    /// Half-width (pixels) of an AR filament: ~10 px at paper scale.
    fn ar_width(&self) -> f32 {
        (self.config.w as f32 / 110.0).max(1.2)
    }

    /// Samples the parameters of one tropical cyclone (tropics only:
    /// |lat| ∈ [8°, 28°]).
    pub fn sample_tc(&self, rng: &mut StdRng) -> TcParams {
        let h = self.config.h;
        let lat: f32 = rng.gen_range(8.0..28.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let cy = (((lat + 90.0) / 180.0 * h as f32) as usize).min(h - 1) as f32;
        TcParams {
            cy,
            cx: rng.gen_range(0.0..self.config.w as f32),
            sigma: self.tc_sigma() * rng.gen_range(0.8..1.3),
            depth: rng.gen_range(2500.0..5000.0),
            vmax: rng.gen_range(30.0..55.0),
        }
    }

    fn paint_tc(&self, s: &mut ClimateSample, rng: &mut StdRng) {
        let params = self.sample_tc(rng);
        self.paint_tc_at(s, &params);
    }

    /// Paints a tropical cyclone with explicit parameters (used by the
    /// temporal sequence generator, which advects events between frames).
    pub fn paint_tc_at(&self, s: &mut ClimateSample, params: &TcParams) {
        let (h, w) = (s.h, s.w);
        let TcParams { cy, cx, sigma, depth, vmax } = *params;
        let southern = self.latitude((cy as usize).min(h - 1)) < 0.0;
        let spin = if southern { 1.0 } else { -1.0 }; // cyclonic

        let reach = (4.0 * sigma).ceil() as isize;
        for dy in -reach..=reach {
            let y = cy as isize + dy;
            if y < 0 || y >= h as isize {
                continue;
            }
            for dx in -reach..=reach {
                // Periodic in longitude.
                let x = (cx as isize + dx).rem_euclid(w as isize);
                let (fy, fx) = (dy as f32, dx as f32);
                let d2 = fx * fx + fy * fy;
                let d = d2.sqrt().max(1e-3);
                let g = (-d2 / (2.0 * sigma * sigma)).exp();
                let idx = y as usize * w + x as usize;
                // Pressure low.
                s.channel_mut(C_PS)[idx] -= 0.8 * depth * g;
                s.channel_mut(C_PSL)[idx] -= depth * g;
                // Tangential wind: Rankine-like profile peaking at σ.
                let v = vmax * (d / sigma) * (1.0 - d / sigma).exp();
                let (tu, tv) = (spin * -fy / d, spin * fx / d);
                s.channel_mut(C_U850)[idx] += v * tu;
                s.channel_mut(C_V850)[idx] += v * tv;
                s.channel_mut(C_UBOT)[idx] += 0.8 * v * tu;
                s.channel_mut(C_VBOT)[idx] += 0.8 * v * tv;
                // Moisture, rain, warm core.
                s.channel_mut(C_TMQ)[idx] += 20.0 * g;
                s.channel_mut(C_PRECT)[idx] += 3.0e-7 * g;
                s.channel_mut(C_T200)[idx] += 4.0 * g;
                // True mask: the gale-force region, which grows with
                // intensity (stronger storms have larger damaging-wind
                // footprints — what the sequence generator's lifecycle
                // envelope modulates).
                if d <= 1.8 * sigma * (vmax / 45.0).clamp(0.4, 1.25) {
                    s.true_mask[idx] = classes::TC;
                }
            }
        }
    }

    /// Samples the parameters of one atmospheric river: a quadratic Bézier
    /// from the subtropics poleward and eastward.
    pub fn sample_ar(&self, rng: &mut StdRng) -> ArParams {
        let (h, w) = (self.config.h, self.config.w);
        let hemi: f32 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let lat0 = rng.gen_range(12.0..22.0) * hemi;
        let lat1 = rng.gen_range(42.0..58.0) * hemi;
        let x0 = rng.gen_range(0.0..w as f32);
        let dx_total = rng.gen_range(0.18..0.40) * w as f32;
        let y_of = |lat: f32| (lat + 90.0) / 180.0 * h as f32;
        let (p0y, p0x) = (y_of(lat0), x0);
        let (p2y, p2x) = (y_of(lat1), x0 + dx_total);
        // Control point bows the filament.
        let p1y = (p0y + p2y) / 2.0 + rng.gen_range(-0.06..0.06) * h as f32;
        let p1x = (p0x + p2x) / 2.0 + rng.gen_range(-0.12..0.12) * w as f32;
        ArParams {
            p0: (p0y, p0x),
            p1: (p1y, p1x),
            p2: (p2y, p2x),
            width: self.ar_width() * rng.gen_range(0.9..1.4),
            amp: rng.gen_range(22.0..30.0),
            wind: rng.gen_range(8.0..14.0),
        }
    }

    fn paint_ar(&self, s: &mut ClimateSample, rng: &mut StdRng) {
        let params = self.sample_ar(rng);
        self.paint_ar_at(s, &params);
    }

    /// Paints an atmospheric river with explicit parameters.
    pub fn paint_ar_at(&self, s: &mut ClimateSample, params: &ArParams) {
        let (h, w) = (s.h, s.w);
        let ArParams { p0, p1, p2, width, amp, wind } = *params;
        let (p0y, p0x) = p0;
        let (p1y, p1x) = p1;
        let (p2y, p2x) = p2;

        let steps = (3 * (h + w) / 2).max(64);
        let reach = (2.5 * width).ceil() as isize;
        for i in 0..=steps {
            let t = i as f32 / steps as f32;
            let omt = 1.0 - t;
            let py = omt * omt * p0y + 2.0 * omt * t * p1y + t * t * p2y;
            let px = omt * omt * p0x + 2.0 * omt * t * p1x + t * t * p2x;
            // Path tangent for along-filament wind.
            let tyx = 2.0 * omt * (p1y - p0y) + 2.0 * t * (p2y - p1y);
            let txx = 2.0 * omt * (p1x - p0x) + 2.0 * t * (p2x - p1x);
            let tnorm = (tyx * tyx + txx * txx).sqrt().max(1e-3);
            for dy in -reach..=reach {
                let y = py as isize + dy;
                if y < 0 || y >= h as isize {
                    continue;
                }
                for dx in -reach..=reach {
                    let x = (px as isize + dx).rem_euclid(w as isize);
                    let d2 = (dy * dy + dx * dx) as f32;
                    let g = (-d2 / (2.0 * width * width)).exp();
                    if g < 0.05 {
                        continue;
                    }
                    let idx = y as usize * w + x as usize;
                    let tmq = s.channel_mut(C_TMQ);
                    // `max` keeps overlapping path steps from double-adding.
                    let boost = amp * g;
                    let cur = tmq[idx];
                    let base_plus = cur.max(self.ar_base_tmq(y as usize) + boost);
                    tmq[idx] = base_plus;
                    s.channel_mut(C_U850)[idx] += wind * g * txx / tnorm * 0.2;
                    s.channel_mut(C_V850)[idx] += wind * g * tyx / tnorm * 0.2;
                    s.channel_mut(C_PRECT)[idx] += 8.0e-8 * g;
                    if d2.sqrt() <= width && s.true_mask[idx] == classes::BG {
                        s.true_mask[idx] = classes::AR;
                    }
                }
            }
        }
    }

    /// Approximate background TMQ at row `y` (used to make AR boosts
    /// absolute rather than additive under overlap).
    fn ar_base_tmq(&self, y: usize) -> f32 {
        let lat = self.latitude(y);
        8.0 + 42.0 * (-(lat / 24.0) * (lat / 24.0)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = FieldGenerator::new(GeneratorConfig::small(42));
        let a = g.generate(7);
        let b = g.generate(7);
        assert_eq!(a.data, b.data);
        assert_eq!(a.true_mask, b.true_mask);
        let c = g.generate(8);
        assert_ne!(a.data, c.data, "different indices differ");
    }

    #[test]
    fn class_mix_is_paper_like() {
        // Average over several samples: BG ≈ 98 %, AR a few %, TC ≪ 1 %.
        let g = FieldGenerator::new(GeneratorConfig::small(1));
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for i in 0..12 {
            let s = g.generate(i);
            for &m in &s.true_mask {
                counts[m as usize] += 1;
            }
            total += s.true_mask.len();
        }
        let bg = counts[0] as f64 / total as f64;
        let tc = counts[1] as f64 / total as f64;
        let ar = counts[2] as f64 / total as f64;
        assert!(bg > 0.93 && bg < 0.995, "BG fraction {bg}");
        assert!(tc > 0.0002 && tc < 0.02, "TC fraction {tc}");
        assert!(ar > 0.005 && ar < 0.06, "AR fraction {ar}");
    }

    #[test]
    fn tc_signature_is_physical() {
        // Find a TC pixel; PSL must be depressed and wind elevated nearby.
        let g = FieldGenerator::new(GeneratorConfig::small(3));
        let s = g.generate(0);
        let hw = s.h * s.w;
        let tc_pixels: Vec<usize> = (0..hw).filter(|&i| s.true_mask[i] == classes::TC).collect();
        assert!(!tc_pixels.is_empty(), "sample should contain a TC");
        let psl = s.channel(C_PSL);
        let u = s.channel(C_U850);
        let v = s.channel(C_V850);
        let mean_psl: f32 = psl.iter().sum::<f32>() / hw as f32;
        let min_tc_psl = tc_pixels.iter().map(|&i| psl[i]).fold(f32::INFINITY, f32::min);
        assert!(min_tc_psl < mean_psl - 1000.0, "TC core must be a deep low: {min_tc_psl} vs {mean_psl}");
        let max_wind = tc_pixels
            .iter()
            .map(|&i| (u[i] * u[i] + v[i] * v[i]).sqrt())
            .fold(0.0f32, f32::max);
        assert!(max_wind > 20.0, "TC winds must be strong: {max_wind}");
    }

    #[test]
    fn ar_is_a_moisture_filament() {
        let g = FieldGenerator::new(GeneratorConfig::small(5));
        let s = g.generate(1);
        let tmq = s.channel(C_TMQ);
        let hw = s.h * s.w;
        let ar: Vec<usize> = (0..hw).filter(|&i| s.true_mask[i] == classes::AR).collect();
        assert!(!ar.is_empty());
        // AR pixels are much wetter than their latitude's background.
        let mut elevated = 0usize;
        for &i in &ar {
            let y = i / s.w;
            if tmq[i] > g.ar_base_tmq(y) + 10.0 {
                elevated += 1;
            }
        }
        assert!(
            elevated as f64 > 0.8 * ar.len() as f64,
            "{elevated}/{} AR pixels are moisture-elevated",
            ar.len()
        );
        // Filament spans a meaningful latitude range.
        let ys: Vec<usize> = ar.iter().map(|&i| i / s.w).collect();
        let span = ys.iter().max().unwrap() - ys.iter().min().unwrap();
        assert!(span > s.h / 8, "AR latitude span {span}");
    }

    #[test]
    fn paper_scale_sample_is_56mb() {
        // §V-A1 sizes the staging system around multi-MB samples; at paper
        // scale one sample is 16·768·1152·4 B ≈ 56.6 MB.
        let cfg = GeneratorConfig::paper(0);
        let bytes = 16 * cfg.h * cfg.w * 4;
        assert_eq!(bytes, 56_623_104);
    }
}
