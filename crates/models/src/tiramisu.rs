//! The Tiramisu (FC-DenseNet) segmentation network (§III-A1) with the
//! paper's performance modification (§V-B5): the original design used
//! growth-rate 16 with 3×3 convolutions; the paper halved the layer count
//! per block, doubled the growth rate to 32 and widened the kernels to 5×5
//! to keep the receptive field — which both ran faster *and* trained
//! better.

use crate::blocks::{transition_down, DenseBlock};
use crate::spec::{ArchSpec, OpKind, SpecBuilder};
use exaclim_nn::layers::{Conv2d, Deconv2d};
use exaclim_nn::{Ctx, Layer, ParamSet};
use exaclim_tensor::ops::{self, Conv2dParams, Deconv2dParams};
use exaclim_tensor::Tensor;
use rand::rngs::StdRng;

/// Tiramisu hyper-parameters.
#[derive(Debug, Clone)]
pub struct TiramisuConfig {
    /// Input channels (16 CAM5 variables on Summit, 4 on Piz Daint).
    pub in_channels: usize,
    /// Segmentation classes.
    pub n_classes: usize,
    /// Stem convolution width.
    pub base_width: usize,
    /// Dense-layer growth rate (16 original, 32 modified).
    pub growth: usize,
    /// Layers per down-path dense block (top to bottom).
    pub block_layers: Vec<usize>,
    /// Layers in the bottleneck dense block.
    pub bottleneck_layers: usize,
    /// Dense-layer kernel extent (3 original, 5 modified).
    pub kernel: usize,
    /// Dropout probability inside dense layers.
    pub dropout: f32,
}

impl TiramisuConfig {
    /// The initial configuration (§V-B5): growth 16 with 3×3 kernels and
    /// twice the layers per block of the shipped network.
    pub fn paper_original(in_channels: usize) -> TiramisuConfig {
        TiramisuConfig {
            in_channels,
            n_classes: crate::NUM_CLASSES,
            base_width: 48,
            growth: 16,
            block_layers: vec![4, 4, 4, 8],
            bottleneck_layers: 10,
            kernel: 3,
            dropout: 0.2,
        }
    }

    /// The network the paper ships: "five dense blocks in each direction,
    /// with 2,2,2,4 and 5 layers respectively (top to bottom)" after the
    /// §V-B5 modification — growth rate 32, layers halved, 5×5 kernels to
    /// preserve the receptive field. Four blocks form the down path, the
    /// 5-layer block is the bottleneck.
    pub fn paper_modified(in_channels: usize) -> TiramisuConfig {
        TiramisuConfig {
            in_channels,
            n_classes: crate::NUM_CLASSES,
            base_width: 48,
            growth: 32,
            block_layers: vec![2, 2, 2, 4],
            bottleneck_layers: 5,
            kernel: 5,
            dropout: 0.2,
        }
    }

    /// A laptop-scale configuration that trains in seconds.
    pub fn tiny(in_channels: usize) -> TiramisuConfig {
        TiramisuConfig {
            in_channels,
            n_classes: crate::NUM_CLASSES,
            base_width: 12,
            growth: 6,
            block_layers: vec![2, 2],
            bottleneck_layers: 2,
            kernel: 3,
            dropout: 0.0,
        }
    }

    /// Emits the symbolic per-op spec at the given input resolution.
    pub fn spec(&self, h: usize, w: usize) -> ArchSpec {
        let mut b = SpecBuilder::new(self.in_channels, h, w);
        b.conv("stem", self.base_width, self.kernel, 1, self.kernel / 2, 1, false);
        let mut skip_ch = Vec::new();

        let emit_dense = |b: &mut SpecBuilder, name: &str, n_layers: usize, growth: usize, kernel: usize, include_input: bool, dropout: f32| {
            let start = b.cursor();
            let mut in_ch = start.c;
            for j in 0..n_layers {
                b.set_cursor(in_ch, start.h, start.w);
                b.pointwise(format!("{name}.l{j}.bn"), OpKind::BatchNorm);
                b.pointwise(format!("{name}.l{j}.relu"), OpKind::ReLU);
                b.conv(format!("{name}.l{j}.conv"), growth, kernel, 1, kernel / 2, 1, false);
                if dropout > 0.0 {
                    b.pointwise(format!("{name}.l{j}.drop"), OpKind::Dropout);
                }
                in_ch += growth;
            }
            let out_c = if include_input { in_ch } else { n_layers * growth };
            b.set_cursor(out_c, start.h, start.w);
        };

        for (i, &n_layers) in self.block_layers.iter().enumerate() {
            emit_dense(&mut b, &format!("down{i}"), n_layers, self.growth, self.kernel, true, self.dropout);
            skip_ch.push(b.cursor().c);
            let c = b.cursor().c;
            b.pointwise(format!("td{i}.bn"), OpKind::BatchNorm);
            b.pointwise(format!("td{i}.relu"), OpKind::ReLU);
            b.conv(format!("td{i}.conv"), c, 1, 1, 0, 1, false);
            if self.dropout > 0.0 {
                b.pointwise(format!("td{i}.drop"), OpKind::Dropout);
            }
            b.maxpool(format!("td{i}.pool"), 2, 2, 0);
        }

        emit_dense(&mut b, "bottleneck", self.bottleneck_layers, self.growth, self.kernel, false, self.dropout);

        for (i, &n_layers) in self.block_layers.iter().enumerate().rev() {
            let c = b.cursor().c;
            b.deconv_x2(format!("tu{i}.deconv"), c, 3);
            b.concat(format!("up{i}.skip"), skip_ch[i]);
            let last = i == 0;
            emit_dense(&mut b, &format!("up{i}"), n_layers, self.growth, self.kernel, last, self.dropout);
        }

        b.conv("head", self.n_classes, 1, 1, 0, 1, true);
        b.pointwise("softmax", OpKind::Softmax);
        b.build("Tiramisu", (self.in_channels, h, w))
    }
}

/// The Tiramisu network (runtime form).
pub struct Tiramisu {
    config: TiramisuConfig,
    stem: Conv2d,
    down_blocks: Vec<DenseBlock>,
    down_transitions: Vec<exaclim_nn::Sequential>,
    bottleneck: DenseBlock,
    up_deconvs: Vec<Deconv2d>,
    up_blocks: Vec<DenseBlock>,
    head: Conv2d,
    skip_cache: Option<Vec<Tensor>>,
    skip_channels: Vec<usize>,
    deconv_channels: Vec<usize>,
}

impl Tiramisu {
    /// Builds the network with reproducible initialization.
    pub fn new(config: TiramisuConfig, rng: &mut StdRng) -> Tiramisu {
        let k = config.kernel;
        let stem = Conv2d::new(
            "stem",
            config.in_channels,
            config.base_width,
            k,
            Conv2dParams::padded(k / 2),
            false,
            rng,
        );
        let mut ch = config.base_width;
        let mut down_blocks = Vec::new();
        let mut down_transitions = Vec::new();
        let mut skip_channels = Vec::new();
        for (i, &n_layers) in config.block_layers.iter().enumerate() {
            let db = DenseBlock::new(format!("down{i}"), ch, n_layers, config.growth, k, config.dropout, true, rng);
            ch = db.out_channels();
            skip_channels.push(ch);
            down_transitions.push(transition_down(&format!("td{i}"), ch, config.dropout, rng));
            down_blocks.push(db);
        }
        let bottleneck = DenseBlock::new(
            "bottleneck",
            ch,
            config.bottleneck_layers,
            config.growth,
            k,
            config.dropout,
            false,
            rng,
        );
        ch = bottleneck.out_channels();

        let mut up_deconvs = Vec::new();
        let mut up_blocks = Vec::new();
        let mut deconv_channels = Vec::new();
        for (i, &n_layers) in config.block_layers.iter().enumerate().rev() {
            let deconv = Deconv2d::new(format!("tu{i}"), ch, ch, 3, Deconv2dParams::double(), rng);
            deconv_channels.push(ch);
            let cat_ch = ch + skip_channels[i];
            let last = i == 0;
            let db = DenseBlock::new(format!("up{i}"), cat_ch, n_layers, config.growth, k, config.dropout, last, rng);
            ch = db.out_channels();
            up_deconvs.push(deconv);
            up_blocks.push(db);
        }
        let head = Conv2d::new("head", ch, config.n_classes, 1, Conv2dParams::default(), true, rng);
        Tiramisu {
            config,
            stem,
            down_blocks,
            down_transitions,
            bottleneck,
            up_deconvs,
            up_blocks,
            head,
            skip_cache: None,
            skip_channels,
            deconv_channels,
        }
    }

    /// The network's configuration.
    pub fn config(&self) -> &TiramisuConfig {
        &self.config
    }
}

impl Layer for Tiramisu {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let mut cur = self.stem.forward(x, ctx);
        let mut skips = Vec::with_capacity(self.down_blocks.len());
        for (db, td) in self.down_blocks.iter_mut().zip(self.down_transitions.iter_mut()) {
            let feat = db.forward(&cur, ctx);
            cur = td.forward(&feat, ctx);
            skips.push(feat);
        }
        cur = self.bottleneck.forward(&cur, ctx);
        for (j, (deconv, db)) in self.up_deconvs.iter_mut().zip(self.up_blocks.iter_mut()).enumerate() {
            let i = self.down_blocks.len() - 1 - j; // skip index
            let up = deconv.forward(&cur, ctx);
            let cat = ops::concat_channels(&[&up, &skips[i]]);
            cur = db.forward(&cat, ctx);
        }
        self.skip_cache = Some(skips);
        self.head.forward(&cur, ctx)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let skips = self.skip_cache.take().expect("Tiramisu::backward before forward");
        let mut skip_grads: Vec<Option<Tensor>> = vec![None; skips.len()];

        let mut g = self.head.backward(grad_out);
        for (j, (deconv, db)) in self.up_deconvs.iter_mut().zip(self.up_blocks.iter_mut()).enumerate().rev() {
            let i = self.down_blocks.len() - 1 - j;
            let gcat = db.backward(&g);
            let parts = ops::split_channels(&gcat, &[self.deconv_channels[j], self.skip_channels[i]]);
            let mut it = parts.into_iter();
            let gup = it.next().expect("deconv part");
            let gskip = it.next().expect("skip part");
            skip_grads[i] = Some(gskip);
            g = deconv.backward(&gup);
        }
        g = self.bottleneck.backward(&g);
        for i in (0..self.down_blocks.len()).rev() {
            let mut gfeat = self.down_transitions[i].backward(&g);
            if let Some(gs) = skip_grads[i].take() {
                gfeat.add_assign(&gs);
            }
            g = self.down_blocks[i].backward(&gfeat);
        }
        self.stem.backward(&g)
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.stem.params());
        for (db, td) in self.down_blocks.iter().zip(self.down_transitions.iter()) {
            set.extend(db.params());
            set.extend(td.params());
        }
        set.extend(self.bottleneck.params());
        for (d, db) in self.up_deconvs.iter().zip(self.up_blocks.iter()) {
            set.extend(d.params());
            set.extend(db.params());
        }
        set.extend(self.head.params());
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for (db, td) in self.down_blocks.iter().zip(self.down_transitions.iter()) {
            set.extend(db.buffers());
            set.extend(td.buffers());
        }
        set.extend(self.bottleneck.buffers());
        for db in &self.up_blocks {
            set.extend(db.buffers());
        }
        set
    }

    fn set_training(&mut self, training: bool) {
        self.stem.set_training(training);
        for (db, td) in self.down_blocks.iter_mut().zip(self.down_transitions.iter_mut()) {
            db.set_training(training);
            td.set_training(training);
        }
        self.bottleneck.set_training(training);
        for (tu, db) in self.up_deconvs.iter_mut().zip(self.up_blocks.iter_mut()) {
            tu.set_training(training);
            db.set_training(training);
        }
        self.head.set_training(training);
    }

    fn name(&self) -> String {
        "Tiramisu".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::DType;

    #[test]
    fn tiny_network_full_resolution_output() {
        let mut rng = seeded_rng(60);
        let cfg = TiramisuConfig::tiny(4);
        let mut net = Tiramisu::new(cfg, &mut rng);
        let x = randn([1, 4, 16, 24], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = net.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 3, 16, 24], "per-pixel logits at input resolution");
        let gx = net.backward(&Tensor::full(y.shape().clone(), DType::F32, 0.1));
        assert_eq!(gx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn all_params_receive_gradients() {
        let mut rng = seeded_rng(61);
        let mut net = Tiramisu::new(TiramisuConfig::tiny(4), &mut rng);
        let x = randn([1, 4, 8, 8], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = net.forward(&x, &mut ctx);
        let _ = net.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        let params = net.params();
        let mut missing = Vec::new();
        for p in params.iter() {
            if p.grad().max_abs() == 0.0 {
                missing.push(p.name());
            }
        }
        assert!(missing.is_empty(), "params with zero gradient: {missing:?}");
    }

    #[test]
    fn param_names_are_unique() {
        let mut rng = seeded_rng(62);
        let net = Tiramisu::new(TiramisuConfig::tiny(4), &mut rng);
        let params = net.params();
        let mut names: Vec<String> = params.iter().map(|p| p.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate parameter names break all-reduce ordering");
    }

    #[test]
    fn spec_param_count_matches_runtime() {
        let mut rng = seeded_rng(63);
        let cfg = TiramisuConfig::tiny(4);
        let net = Tiramisu::new(cfg.clone(), &mut rng);
        let spec = cfg.spec(16, 16);
        assert_eq!(
            spec.total_params(),
            net.params().total_scalars(),
            "symbolic spec and runtime network must agree on parameters"
        );
    }

    #[test]
    fn modified_network_is_cheaper_than_original_at_same_scale() {
        // §V-B5: halving layers and doubling growth with 5×5 kernels kept
        // the model size roughly constant while being faster per FLOP on
        // the GPU; FLOP totals stay within ~2.5× of each other.
        let orig = TiramisuConfig::paper_original(16).spec(96, 144);
        let modi = TiramisuConfig::paper_modified(16).spec(96, 144);
        let r = modi.training_flops() as f64 / orig.training_flops() as f64;
        assert!(r > 0.5 && r < 4.0, "flop ratio modified/original = {r}");
    }

    #[test]
    fn paper_scale_spec_has_expected_magnitude() {
        // Figure 2 quotes 4.188 TF/sample for the (modified) Tiramisu at
        // 1152×768×16. Our reconstruction of the unpublished layer sizes
        // must land within a factor ~2 of that.
        let spec = TiramisuConfig::paper_modified(16).spec(768, 1152);
        let tf = spec.training_flops() as f64 / 1e12;
        assert!(tf > 2.8 && tf < 6.0, "Tiramisu TF/sample = {tf} (paper: 4.188)");
    }

    #[test]
    fn deterministic_initialization_across_replicas() {
        let a = Tiramisu::new(TiramisuConfig::tiny(4), &mut seeded_rng(7));
        let b = Tiramisu::new(TiramisuConfig::tiny(4), &mut seeded_rng(7));
        assert_eq!(a.params().state_hash(), b.params().state_hash());
    }
}
