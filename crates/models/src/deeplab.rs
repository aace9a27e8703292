//! The modified DeepLabv3+ network of Figure 1.
//!
//! Encoder: a ResNet core whose stages 3–4 trade stride for dilation
//! (output stride 8 — 144×96 at paper scale). ASPP: 1×1 plus three atrous
//! 3×3 branches (dilations 12/24/36), concatenated and projected to 256
//! channels. Decoder: the paper replaces the standard quarter-resolution
//! bilinear decoder with a **full-resolution** one — three learned
//! `3×3 deconv, /2` stages with convolutional refinement and a low-level
//! skip — "thereby benefiting the science use case" (§V-B5).

use crate::blocks::{Aspp, Bottleneck};
use crate::spec::{ArchSpec, OpKind, SpecBuilder};
use exaclim_nn::layers::{conv_bn_relu, Conv2d, Deconv2d, MaxPool2d};
use exaclim_nn::{Ctx, Layer, ParamSet, Sequential};
use exaclim_tensor::ops::{self, Conv2dParams, Deconv2dParams};
use exaclim_tensor::Tensor;
use rand::rngs::StdRng;

/// Decoder style ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// The paper's full-resolution learned-deconvolution decoder.
    FullResolution,
    /// The standard DeepLabv3+ decoder: predict at ¼ resolution (here:
    /// at the encoder's output stride) and bilinearly upsample ×8.
    QuarterResolution,
}

/// DeepLabv3+ hyper-parameters.
#[derive(Debug, Clone)]
pub struct DeepLabConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Segmentation classes.
    pub n_classes: usize,
    /// Stem width (64 at paper scale).
    pub stem_width: usize,
    /// Bottlenecks per stage (ResNet-50: `[3, 4, 6, 3]`).
    pub stage_blocks: Vec<usize>,
    /// Internal `planes` of the first stage (64 at paper scale); each
    /// stage doubles it. Output channels are `4×planes`.
    pub base_planes: usize,
    /// ASPP branch width (256 at paper scale).
    pub aspp_width: usize,
    /// ASPP dilations (12/24/36 at paper scale).
    pub aspp_dilations: Vec<usize>,
    /// Decoder width (256 at paper scale).
    pub decoder_width: usize,
    /// Low-level skip projection width (48 at paper scale).
    pub skip_width: usize,
    /// Decoder variant.
    pub decoder: DecoderKind,
    /// Dropout in ASPP projection.
    pub dropout: f32,
}

impl DeepLabConfig {
    /// The exact Figure 1 configuration (ResNet-50 core, 16 channels).
    pub fn paper() -> DeepLabConfig {
        DeepLabConfig {
            in_channels: crate::NUM_CHANNELS_FULL,
            n_classes: crate::NUM_CLASSES,
            stem_width: 64,
            stage_blocks: vec![3, 4, 6, 3],
            base_planes: 64,
            aspp_width: 256,
            aspp_dilations: vec![12, 24, 36],
            decoder_width: 256,
            skip_width: 48,
            decoder: DecoderKind::FullResolution,
            dropout: 0.1,
        }
    }

    /// A laptop-scale configuration that trains in seconds. Proportions
    /// follow the paper network (wide ASPP/decoder relative to the stem)
    /// so the DeepLab-beats-Tiramisu quality ordering survives the
    /// scale-down once trained to convergence.
    pub fn tiny(in_channels: usize) -> DeepLabConfig {
        DeepLabConfig {
            in_channels,
            n_classes: crate::NUM_CLASSES,
            stem_width: 16,
            stage_blocks: vec![1, 1, 2, 1],
            base_planes: 8,
            aspp_width: 32,
            aspp_dilations: vec![2, 4, 6],
            decoder_width: 32,
            skip_width: 12,
            decoder: DecoderKind::FullResolution,
            dropout: 0.0,
        }
    }

    fn stage_params(&self, stage: usize) -> (usize, usize, usize) {
        // (planes, stride, dilation): stages 0–1 downsample, 2–3 dilate.
        let planes = self.base_planes << stage;
        match stage {
            0 => (planes, 1, 1),
            1 => (planes, 2, 1),
            2 => (planes, 1, 2),
            _ => (planes, 1, 4),
        }
    }

    /// Emits the symbolic per-op spec at the given input resolution.
    pub fn spec(&self, h: usize, w: usize) -> ArchSpec {
        let mut b = SpecBuilder::new(self.in_channels, h, w);
        b.conv("stem.conv", self.stem_width, 7, 2, 3, 1, false);
        b.pointwise("stem.bn", OpKind::BatchNorm);
        b.pointwise("stem.relu", OpKind::ReLU);
        b.maxpool("stem.pool", 3, 2, 1);
        let skip = b.cursor(); // stride-4 features feed the decoder skip

        let mut in_ch = self.stem_width;
        for (stage, &n_blocks) in self.stage_blocks.iter().enumerate() {
            let (planes, stride, dilation) = self.stage_params(stage);
            for blk in 0..n_blocks {
                let s = if blk == 0 { stride } else { 1 };
                let name = format!("enc.s{stage}.b{blk}");
                let cur = b.cursor();
                b.conv(format!("{name}.c1"), planes, 1, 1, 0, 1, false);
                b.pointwise(format!("{name}.bn1"), OpKind::BatchNorm);
                b.pointwise(format!("{name}.relu1"), OpKind::ReLU);
                b.conv(format!("{name}.c2"), planes, 3, s, dilation, dilation, false);
                b.pointwise(format!("{name}.bn2"), OpKind::BatchNorm);
                b.pointwise(format!("{name}.relu2"), OpKind::ReLU);
                b.conv(format!("{name}.c3"), planes * 4, 1, 1, 0, 1, false);
                b.pointwise(format!("{name}.bn3"), OpKind::BatchNorm);
                if blk == 0 && (s != 1 || in_ch != planes * 4) {
                    // Projection shortcut (costed at the block input shape).
                    let after = b.cursor();
                    b.set_cursor(cur.c, cur.h, cur.w);
                    b.conv(format!("{name}.proj"), planes * 4, 1, s, 0, 1, false);
                    b.pointwise(format!("{name}.projbn"), OpKind::BatchNorm);
                    b.set_cursor(after.c, after.h, after.w);
                }
                b.pointwise(format!("{name}.add"), OpKind::Add);
                b.pointwise(format!("{name}.relu3"), OpKind::ReLU);
                in_ch = planes * 4;
            }
        }

        // ASPP.
        let enc = b.cursor();
        b.conv("aspp.b1x1.conv", self.aspp_width, 1, 1, 0, 1, false);
        b.pointwise("aspp.b1x1.bn", OpKind::BatchNorm);
        b.pointwise("aspp.b1x1.relu", OpKind::ReLU);
        for &d in &self.aspp_dilations {
            b.set_cursor(enc.c, enc.h, enc.w);
            b.conv(format!("aspp.bd{d}.conv"), self.aspp_width, 3, 1, d, d, false);
            b.pointwise(format!("aspp.bd{d}.bn"), OpKind::BatchNorm);
            b.pointwise(format!("aspp.bd{d}.relu"), OpKind::ReLU);
        }
        let n_branches = 1 + self.aspp_dilations.len();
        b.set_cursor(self.aspp_width * n_branches, enc.h, enc.w);
        b.pointwise("aspp.concat", OpKind::Concat);
        b.conv("aspp.proj.conv", self.aspp_width, 1, 1, 0, 1, false);
        b.pointwise("aspp.proj.bn", OpKind::BatchNorm);
        b.pointwise("aspp.proj.relu", OpKind::ReLU);
        if self.dropout > 0.0 {
            b.pointwise("aspp.proj.drop", OpKind::Dropout);
        }

        match self.decoder {
            DecoderKind::FullResolution => {
                let dw = self.decoder_width;
                b.deconv_x2("dec.up0", dw, 3); // stride 8 → 4
                // Low-level skip: project stride-4 stem features to skip_width.
                let cur = b.cursor();
                b.set_cursor(skip.c, skip.h, skip.w);
                b.conv("dec.skip.conv", self.skip_width, 1, 1, 0, 1, false);
                b.pointwise("dec.skip.bn", OpKind::BatchNorm);
                b.pointwise("dec.skip.relu", OpKind::ReLU);
                b.set_cursor(cur.c, cur.h, cur.w);
                b.concat("dec.cat", self.skip_width);
                b.conv("dec.ref0a", dw, 3, 1, 1, 1, false);
                b.pointwise("dec.ref0a.bn", OpKind::BatchNorm);
                b.pointwise("dec.ref0a.relu", OpKind::ReLU);
                b.conv("dec.ref0b", dw, 3, 1, 1, 1, false);
                b.pointwise("dec.ref0b.bn", OpKind::BatchNorm);
                b.pointwise("dec.ref0b.relu", OpKind::ReLU);
                b.deconv_x2("dec.up1", dw, 3); // stride 4 → 2
                b.conv("dec.ref1", dw, 3, 1, 1, 1, false);
                b.pointwise("dec.ref1.bn", OpKind::BatchNorm);
                b.pointwise("dec.ref1.relu", OpKind::ReLU);
                b.deconv_x2("dec.up2", dw, 3); // stride 2 → 1
                // Full-resolution refinement: Figure 1 keeps two 3×3 conv 256
                // stages at 1152×768 before narrowing to 128 — the bulk of
                // the decoder's FLOPs, and the price of full-res masks.
                b.conv("dec.ref2a", dw, 3, 1, 1, 1, false);
                b.pointwise("dec.ref2a.bn", OpKind::BatchNorm);
                b.pointwise("dec.ref2a.relu", OpKind::ReLU);
                b.conv("dec.ref2b", dw, 3, 1, 1, 1, false);
                b.pointwise("dec.ref2b.bn", OpKind::BatchNorm);
                b.pointwise("dec.ref2b.relu", OpKind::ReLU);
                b.conv("dec.ref2c", dw / 2, 3, 1, 1, 1, false);
                b.pointwise("dec.ref2c.bn", OpKind::BatchNorm);
                b.pointwise("dec.ref2c.relu", OpKind::ReLU);
                b.conv("head", self.n_classes, 1, 1, 0, 1, true);
            }
            DecoderKind::QuarterResolution => {
                b.conv("head", self.n_classes, 1, 1, 0, 1, true);
                let cur = b.cursor();
                b.set_cursor(cur.c, cur.h * 8, cur.w * 8);
                b.pointwise("dec.bilinear_x8", OpKind::Bilinear);
            }
        }
        b.pointwise("softmax", OpKind::Softmax);
        b.build("DeepLabv3+", (self.in_channels, h, w))
    }
}

/// The DeepLabv3+ network (runtime form).
pub struct DeepLabV3Plus {
    config: DeepLabConfig,
    stem: Sequential,
    pool: MaxPool2d,
    stages: Vec<Bottleneck>,
    aspp: Aspp,
    // Full-resolution decoder pieces.
    up0: Deconv2d,
    skip_proj: Sequential,
    ref0: Sequential,
    up1: Deconv2d,
    ref1: Sequential,
    up2: Deconv2d,
    ref2: Sequential,
    head: Conv2d,
    skip_cache: Option<Tensor>,
}

impl DeepLabV3Plus {
    /// Builds the network with reproducible initialization.
    pub fn new(config: DeepLabConfig, rng: &mut StdRng) -> DeepLabV3Plus {
        assert_eq!(
            config.decoder,
            DecoderKind::FullResolution,
            "runtime network implements the paper's full-resolution decoder; \
             the quarter-resolution variant exists in spec form for ablation"
        );
        let stem = conv_bn_relu(
            "stem",
            config.in_channels,
            config.stem_width,
            7,
            Conv2dParams::strided(2, 3),
            rng,
        );
        let pool = MaxPool2d::new(3, 2, 1);
        let mut stages = Vec::new();
        let mut in_ch = config.stem_width;
        for (stage, &n_blocks) in config.stage_blocks.iter().enumerate() {
            let (planes, stride, dilation) = config.stage_params(stage);
            for blk in 0..n_blocks {
                let s = if blk == 0 { stride } else { 1 };
                stages.push(Bottleneck::new(
                    format!("enc.s{stage}.b{blk}"),
                    in_ch,
                    planes,
                    s,
                    dilation,
                    rng,
                ));
                in_ch = planes * 4;
            }
        }
        let aspp = Aspp::new("aspp", in_ch, config.aspp_width, &config.aspp_dilations, config.dropout, rng);

        let dw = config.decoder_width;
        let up0 = Deconv2d::new("dec.up0", config.aspp_width, dw, 3, Deconv2dParams::double(), rng);
        let skip_proj = conv_bn_relu("dec.skip", config.stem_width, config.skip_width, 1, Conv2dParams::default(), rng);
        let ref0 = Sequential::new("dec.ref0")
            .push(Conv2d::new("dec.ref0a.conv", dw + config.skip_width, dw, 3, Conv2dParams::padded(1), false, rng))
            .push(exaclim_nn::layers::BatchNorm2d::new("dec.ref0a.bn", dw))
            .push(exaclim_nn::layers::ReLU::new())
            .push(Conv2d::new("dec.ref0b.conv", dw, dw, 3, Conv2dParams::padded(1), false, rng))
            .push(exaclim_nn::layers::BatchNorm2d::new("dec.ref0b.bn", dw))
            .push(exaclim_nn::layers::ReLU::new());
        let up1 = Deconv2d::new("dec.up1", dw, dw, 3, Deconv2dParams::double(), rng);
        let ref1 = conv_bn_relu("dec.ref1", dw, dw, 3, Conv2dParams::padded(1), rng);
        let up2 = Deconv2d::new("dec.up2", dw, dw, 3, Deconv2dParams::double(), rng);
        let ref2 = Sequential::new("dec.ref2")
            .push(Conv2d::new("dec.ref2a.conv", dw, dw, 3, Conv2dParams::padded(1), false, rng))
            .push(exaclim_nn::layers::BatchNorm2d::new("dec.ref2a.bn", dw))
            .push(exaclim_nn::layers::ReLU::new())
            .push(Conv2d::new("dec.ref2b.conv", dw, dw, 3, Conv2dParams::padded(1), false, rng))
            .push(exaclim_nn::layers::BatchNorm2d::new("dec.ref2b.bn", dw))
            .push(exaclim_nn::layers::ReLU::new())
            .push(Conv2d::new("dec.ref2c.conv", dw, dw / 2, 3, Conv2dParams::padded(1), false, rng))
            .push(exaclim_nn::layers::BatchNorm2d::new("dec.ref2c.bn", dw / 2))
            .push(exaclim_nn::layers::ReLU::new());
        let head = Conv2d::new("head", dw / 2, config.n_classes, 1, Conv2dParams::default(), true, rng);

        DeepLabV3Plus {
            config,
            stem,
            pool,
            stages,
            aspp,
            up0,
            skip_proj,
            ref0,
            up1,
            ref1,
            up2,
            ref2,
            head,
            skip_cache: None,
        }
    }

    /// The network's configuration.
    pub fn config(&self) -> &DeepLabConfig {
        &self.config
    }
}

impl Layer for DeepLabV3Plus {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let s = self.stem.forward(x, ctx);
        let mut cur = self.pool.forward(&s, ctx);
        let low_level = cur.clone();
        for b in self.stages.iter_mut() {
            cur = b.forward(&cur, ctx);
        }
        cur = self.aspp.forward(&cur, ctx);
        cur = self.up0.forward(&cur, ctx);
        let skip = self.skip_proj.forward(&low_level, ctx);
        self.skip_cache = Some(skip.clone());
        let cat = ops::concat_channels(&[&cur, &skip]);
        cur = self.ref0.forward(&cat, ctx);
        cur = self.up1.forward(&cur, ctx);
        cur = self.ref1.forward(&cur, ctx);
        cur = self.up2.forward(&cur, ctx);
        cur = self.ref2.forward(&cur, ctx);
        self.head.forward(&cur, ctx)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let skip = self.skip_cache.take().expect("DeepLabV3Plus::backward before forward");
        let mut g = self.head.backward(grad_out);
        g = self.ref2.backward(&g);
        g = self.up2.backward(&g);
        g = self.ref1.backward(&g);
        g = self.up1.backward(&g);
        let gcat = self.ref0.backward(&g);
        let dw = self.config.decoder_width;
        let parts = ops::split_channels(&gcat, &[dw, self.config.skip_width]);
        let mut it = parts.into_iter();
        let gmain = it.next().expect("main part");
        let gskip = it.next().expect("skip part");
        let gskip_pool = self.skip_proj.backward(&gskip);
        g = self.up0.backward(&gmain);
        g = self.aspp.backward(&g);
        for b in self.stages.iter_mut().rev() {
            g = b.backward(&g);
        }
        g.add_assign(&gskip_pool);
        let _ = skip; // cached only to assert forward/backward pairing
        g = self.pool.backward(&g);
        self.stem.backward(&g)
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.stem.params());
        for b in &self.stages {
            set.extend(b.params());
        }
        set.extend(self.aspp.params());
        set.extend(self.up0.params());
        set.extend(self.skip_proj.params());
        set.extend(self.ref0.params());
        set.extend(self.up1.params());
        set.extend(self.ref1.params());
        set.extend(self.up2.params());
        set.extend(self.ref2.params());
        set.extend(self.head.params());
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.stem.buffers());
        for b in &self.stages {
            set.extend(b.buffers());
        }
        set.extend(self.aspp.buffers());
        set.extend(self.skip_proj.buffers());
        set.extend(self.ref0.buffers());
        set.extend(self.ref1.buffers());
        set.extend(self.ref2.buffers());
        set
    }

    fn set_training(&mut self, training: bool) {
        self.stem.set_training(training);
        self.pool.set_training(training);
        for b in self.stages.iter_mut() {
            b.set_training(training);
        }
        self.aspp.set_training(training);
        self.up0.set_training(training);
        self.skip_proj.set_training(training);
        self.ref0.set_training(training);
        self.up1.set_training(training);
        self.ref1.set_training(training);
        self.up2.set_training(training);
        self.ref2.set_training(training);
        self.head.set_training(training);
    }

    fn name(&self) -> String {
        "DeepLabv3+".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::DType;

    #[test]
    fn tiny_network_full_resolution_output() {
        let mut rng = seeded_rng(70);
        let mut net = DeepLabV3Plus::new(DeepLabConfig::tiny(4), &mut rng);
        let x = randn([1, 4, 32, 32], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = net.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 3, 32, 32]);
        let gx = net.backward(&Tensor::full(y.shape().clone(), DType::F32, 0.1));
        assert_eq!(gx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn all_params_receive_gradients() {
        let mut rng = seeded_rng(71);
        let mut net = DeepLabV3Plus::new(DeepLabConfig::tiny(4), &mut rng);
        let x = randn([1, 4, 16, 16], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = net.forward(&x, &mut ctx);
        let _ = net.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        let mut missing = Vec::new();
        for p in net.params().iter() {
            if p.grad().max_abs() == 0.0 {
                missing.push(p.name());
            }
        }
        assert!(missing.is_empty(), "params with zero gradient: {missing:?}");
    }

    #[test]
    fn param_names_are_unique() {
        let mut rng = seeded_rng(72);
        let net = DeepLabV3Plus::new(DeepLabConfig::tiny(4), &mut rng);
        let mut names: Vec<String> = net.params().iter().map(|p| p.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn spec_param_count_matches_runtime() {
        let mut rng = seeded_rng(73);
        let cfg = DeepLabConfig::tiny(4);
        let net = DeepLabV3Plus::new(cfg.clone(), &mut rng);
        let spec = cfg.spec(32, 32);
        assert_eq!(spec.total_params(), net.params().total_scalars());
    }

    #[test]
    fn paper_spec_reproduces_figure1_shapes() {
        let spec = DeepLabConfig::paper().spec(768, 1152);
        // Encoder output stride 8: 144×96 at 1152×768 (Figure 1 annotates
        // width×height; our (h, w) is (96, 144)).
        let aspp_in = spec.ops.iter().find(|o| o.name == "aspp.b1x1.conv").unwrap();
        assert_eq!((aspp_in.in_ch, aspp_in.in_h, aspp_in.in_w), (2048, 96, 144));
        // Stem: 7×7/2 conv to 64 channels, 3×3/2 pool → 192×288.
        let pool = spec.ops.iter().find(|o| o.name == "stem.pool").unwrap();
        assert_eq!((pool.out_ch, pool.out_h, pool.out_w), (64, 192, 288));
        // Head emits 3 classes at full 768×1152.
        let head = spec.ops.iter().find(|o| o.name == "head").unwrap();
        assert_eq!((head.out_ch, head.out_h, head.out_w), (3, 768, 1152));
        // ResNet-50 parameter count sanity: ~23.5M for the encoder alone at
        // 3-channel ImageNet scale; ours differs only in the 16-channel stem.
        assert!(spec.total_params() > 20_000_000 && spec.total_params() < 60_000_000);
    }

    #[test]
    fn paper_scale_flops_match_figure2_within_factor_two() {
        // Figure 2: DeepLabv3+ = 14.41 TF/sample (fwd+bwd).
        let spec = DeepLabConfig::paper().spec(768, 1152);
        let tf = spec.training_flops() as f64 / 1e12;
        assert!(tf > 9.0 && tf < 21.0, "DeepLabv3+ TF/sample = {tf} (paper: 14.41)");
    }

    #[test]
    fn deeplab_costs_more_flops_than_tiramisu() {
        // Figure 2 ordering: 14.41 TF vs 4.188 TF per sample.
        let dl = DeepLabConfig::paper().spec(768, 1152).training_flops();
        let ti = crate::tiramisu::TiramisuConfig::paper_modified(16)
            .spec(768, 1152)
            .training_flops();
        let ratio = dl as f64 / ti as f64;
        assert!(ratio > 1.5, "DeepLab/Tiramisu flop ratio = {ratio}");
    }

    #[test]
    fn quarter_resolution_decoder_is_cheaper() {
        let mut full = DeepLabConfig::paper();
        full.decoder = DecoderKind::FullResolution;
        let mut quarter = DeepLabConfig::paper();
        quarter.decoder = DecoderKind::QuarterResolution;
        let f = full.spec(768, 1152).training_flops();
        let q = quarter.spec(768, 1152).training_flops();
        assert!(f > q, "full-res decoder must cost more: {f} vs {q}");
    }
}
