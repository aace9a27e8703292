//! Composite blocks: dense blocks (Tiramisu), bottleneck residual blocks
//! (ResNet-50 core) and the atrous spatial pyramid pooling (ASPP) module.

use exaclim_nn::layers::{conv_bn_relu, BatchNorm2d, Conv2d, Dropout, MaxPool2d, ReLU};
use exaclim_nn::{Ctx, Layer, ParamSet, Sequential};
use exaclim_tensor::ops::{self, Conv2dParams};
use exaclim_tensor::Tensor;
use rand::rngs::StdRng;

/// One Tiramisu dense layer: BN → ReLU → Conv(k×k, growth) → Dropout.
fn dense_layer(name: &str, in_ch: usize, growth: usize, kernel: usize, dropout: f32, rng: &mut StdRng) -> Sequential {
    Sequential::new(name)
        .push(BatchNorm2d::new(format!("{name}.bn"), in_ch))
        .push(ReLU::new())
        .push(Conv2d::new(
            format!("{name}.conv"),
            in_ch,
            growth,
            kernel,
            Conv2dParams::padded(kernel / 2),
            false,
            rng,
        ))
        .push(Dropout::new(dropout))
}

/// A Tiramisu dense block: layer `j` consumes the concatenation of the
/// block input and all previous layer outputs and emits `growth` channels.
///
/// "Where ResNet uses addition, Tiramisu uses concatenation" (§III-A1).
/// In the down path the block output re-concatenates the input
/// (`include_input = true`); in the up path only the new feature maps are
/// kept to bound channel growth, following the original Tiramisu design.
pub struct DenseBlock {
    name: String,
    layers: Vec<Sequential>,
    growth: usize,
    in_ch: usize,
    include_input: bool,
    cached: Option<Vec<Tensor>>,
}

impl DenseBlock {
    /// Builds `n_layers` dense layers with the given growth rate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        n_layers: usize,
        growth: usize,
        kernel: usize,
        dropout: f32,
        include_input: bool,
        rng: &mut StdRng,
    ) -> DenseBlock {
        let name = name.into();
        let layers = (0..n_layers)
            .map(|j| dense_layer(&format!("{name}.l{j}"), in_ch + j * growth, growth, kernel, dropout, rng))
            .collect();
        DenseBlock {
            name,
            layers,
            growth,
            in_ch,
            include_input,
            cached: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        let new_ch = self.layers.len() * self.growth;
        if self.include_input {
            self.in_ch + new_ch
        } else {
            new_ch
        }
    }
}

impl Layer for DenseBlock {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let mut feats: Vec<Tensor> = vec![x.clone()];
        for layer in self.layers.iter_mut() {
            let inp = if feats.len() == 1 {
                feats[0].clone()
            } else {
                let refs: Vec<&Tensor> = feats.iter().collect();
                ops::concat_channels(&refs)
            };
            let out = layer.forward(&inp, ctx);
            feats.push(out);
        }
        let out_refs: Vec<&Tensor> = if self.include_input {
            feats.iter().collect()
        } else {
            feats.iter().skip(1).collect()
        };
        let y = ops::concat_channels(&out_refs);
        self.cached = Some(feats);
        y
    }

    fn set_training(&mut self, training: bool) {
        for l in self.layers.iter_mut() {
            l.set_training(training);
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let feats = self.cached.take().expect("DenseBlock::backward before forward");
        let n_layers = self.layers.len();

        // Per-feature gradient accumulators (feats[0] = block input).
        let mut grads: Vec<Tensor> = feats
            .iter()
            .map(|t| Tensor::zeros(t.shape().clone(), t.dtype()))
            .collect();

        // Split the output gradient back onto the concatenated features.
        let first_out = if self.include_input { 0 } else { 1 };
        let sizes: Vec<usize> = feats[first_out..].iter().map(|t| t.shape().dim(1)).collect();
        for (i, g) in ops::split_channels(grad_out, &sizes).into_iter().enumerate() {
            grads[first_out + i].add_assign(&g);
        }

        // Walk layers in reverse, scattering input gradients onto the
        // features each layer consumed.
        for j in (0..n_layers).rev() {
            let gout = grads[j + 1].clone();
            let gin = self.layers[j].backward(&gout);
            let consumed: Vec<usize> = feats[..=j].iter().map(|t| t.shape().dim(1)).collect();
            if consumed.len() == 1 {
                grads[0].add_assign(&gin);
            } else {
                for (i, g) in ops::split_channels(&gin, &consumed).into_iter().enumerate() {
                    grads[i].add_assign(&g);
                }
            }
        }
        grads.swap_remove(0)
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for l in &self.layers {
            set.extend(l.params());
        }
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for l in &self.layers {
            set.extend(l.buffers());
        }
        set
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Tiramisu transition-down: BN → ReLU → 1×1 conv → Dropout → 2×2 max pool.
pub fn transition_down(name: &str, ch: usize, dropout: f32, rng: &mut StdRng) -> Sequential {
    Sequential::new(name)
        .push(BatchNorm2d::new(format!("{name}.bn"), ch))
        .push(ReLU::new())
        .push(Conv2d::new(format!("{name}.conv"), ch, ch, 1, Conv2dParams::default(), false, rng))
        .push(Dropout::new(dropout))
        .push(MaxPool2d::new(2, 2, 0))
}

/// ResNet bottleneck block (1×1 reduce → 3×3 [possibly atrous] → 1×1
/// expand ×4) with a projection shortcut where shapes change.
///
/// The paper's encoder keeps stages 3–4 at stride 1 and dilates their 3×3
/// convolutions instead (Figure 1: `d 2` and `d 4`), preserving the 144×96
/// feature resolution.
pub struct Bottleneck {
    name: String,
    conv1: Sequential,
    conv2: Sequential,
    conv3: Conv2d,
    bn3: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Option<Tensor>,
}

impl Bottleneck {
    /// Builds a bottleneck with `planes` internal channels (output is
    /// `4·planes`), the given stride on the 3×3, and dilation.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        planes: usize,
        stride: usize,
        dilation: usize,
        rng: &mut StdRng,
    ) -> Bottleneck {
        let name = name.into();
        let out_ch = planes * 4;
        let conv1 = conv_bn_relu(&format!("{name}.c1"), in_ch, planes, 1, Conv2dParams::default(), rng);
        let conv2 = conv_bn_relu(
            &format!("{name}.c2"),
            planes,
            planes,
            3,
            Conv2dParams { stride, pad: dilation, dilation },
            rng,
        );
        let conv3 = Conv2d::new(format!("{name}.c3"), planes, out_ch, 1, Conv2dParams::default(), false, rng);
        let bn3 = BatchNorm2d::new(format!("{name}.bn3"), out_ch);
        let shortcut = if stride != 1 || in_ch != out_ch {
            Some((
                Conv2d::new(
                    format!("{name}.proj"),
                    in_ch,
                    out_ch,
                    1,
                    Conv2dParams::strided(stride, 0),
                    false,
                    rng,
                ),
                BatchNorm2d::new(format!("{name}.projbn"), out_ch),
            ))
        } else {
            None
        };
        Bottleneck {
            name,
            conv1,
            conv2,
            conv3,
            bn3,
            shortcut,
            relu_out: None,
        }
    }

    /// Output channels (`4·planes`).
    pub fn out_channels(planes: usize) -> usize {
        planes * 4
    }
}

impl Layer for Bottleneck {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let mut main = self.conv1.forward(x, ctx);
        main = self.conv2.forward(&main, ctx);
        main = self.conv3.forward(&main, ctx);
        main = self.bn3.forward(&main, ctx);
        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, ctx);
                bn.forward(&s, ctx)
            }
            None => x.clone(),
        };
        let pre = ops::add(&main, &skip);
        let y = ops::relu_forward(&pre);
        // Cache the *output*: the backward mask (y > 0 iff pre > 0) comes
        // back out of it, so `pre` can be dropped here instead of living
        // until backward alongside y.
        self.relu_out = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.relu_out.take().expect("Bottleneck::backward before forward");
        let g = ops::relu_backward_from_output(&y, grad_out);
        // Main branch.
        let mut gm = self.bn3.backward(&g);
        gm = self.conv3.backward(&gm);
        gm = self.conv2.backward(&gm);
        let mut gx = self.conv1.backward(&gm);
        // Shortcut branch.
        match &mut self.shortcut {
            Some((conv, bn)) => {
                let gs = bn.backward(&g);
                let gs = conv.backward(&gs);
                gx.add_assign(&gs);
            }
            None => gx.add_assign(&g),
        }
        gx
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.conv1.params());
        set.extend(self.conv2.params());
        set.extend(self.conv3.params());
        set.extend(self.bn3.params());
        if let Some((c, b)) = &self.shortcut {
            set.extend(c.params());
            set.extend(b.params());
        }
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.conv1.buffers());
        set.extend(self.conv2.buffers());
        set.extend(self.bn3.buffers());
        if let Some((_, b)) = &self.shortcut {
            set.extend(b.buffers());
        }
        set
    }

    fn set_training(&mut self, training: bool) {
        self.conv1.set_training(training);
        self.conv2.set_training(training);
        self.conv3.set_training(training);
        self.bn3.set_training(training);
        if let Some((proj, projbn)) = self.shortcut.as_mut() {
            proj.set_training(training);
            projbn.set_training(training);
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Atrous spatial pyramid pooling: parallel 1×1 and atrous 3×3 branches
/// over the same input, concatenated and projected (Figure 1's green/ASPP
/// column: dilations 12, 24, 36 at paper scale).
pub struct Aspp {
    name: String,
    branches: Vec<Sequential>,
    project: Sequential,
    branch_ch: usize,
}

impl Aspp {
    /// ASPP with one 1×1 branch plus one 3×3 branch per dilation.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        branch_ch: usize,
        dilations: &[usize],
        dropout: f32,
        rng: &mut StdRng,
    ) -> Aspp {
        let name = name.into();
        let mut branches = vec![conv_bn_relu(
            &format!("{name}.b1x1"),
            in_ch,
            branch_ch,
            1,
            Conv2dParams::default(),
            rng,
        )];
        for &d in dilations {
            branches.push(conv_bn_relu(
                &format!("{name}.bd{d}"),
                in_ch,
                branch_ch,
                3,
                Conv2dParams::atrous(d),
                rng,
            ));
        }
        let total = branch_ch * branches.len();
        let project = Sequential::new(format!("{name}.proj"))
            .push(Conv2d::new(format!("{name}.proj.conv"), total, branch_ch, 1, Conv2dParams::default(), false, rng))
            .push(BatchNorm2d::new(format!("{name}.proj.bn"), branch_ch))
            .push(ReLU::new())
            .push(Dropout::new(dropout));
        Aspp {
            name,
            branches,
            project,
            branch_ch,
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.branch_ch
    }
}

impl Layer for Aspp {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let outs: Vec<Tensor> = self.branches.iter_mut().map(|b| b.forward(x, ctx)).collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        let cat = ops::concat_channels(&refs);
        self.project.forward(&cat, ctx)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let gcat = self.project.backward(grad_out);
        let sizes = vec![self.branch_ch; self.branches.len()];
        let parts = ops::split_channels(&gcat, &sizes);
        let mut gx: Option<Tensor> = None;
        for (branch, g) in self.branches.iter_mut().zip(parts) {
            let gb = branch.backward(&g);
            match gx.as_mut() {
                Some(acc) => acc.add_assign(&gb),
                None => gx = Some(gb),
            }
        }
        gx.expect("ASPP has at least one branch")
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for b in &self.branches {
            set.extend(b.params());
        }
        set.extend(self.project.params());
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for b in &self.branches {
            set.extend(b.buffers());
        }
        set.extend(self.project.buffers());
        set
    }

    fn set_training(&mut self, training: bool) {
        for b in self.branches.iter_mut() {
            b.set_training(training);
        }
        self.project.set_training(training);
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::DType;

    #[test]
    fn dense_block_channel_arithmetic() {
        let mut rng = seeded_rng(41);
        let mut blk = DenseBlock::new("db", 16, 3, 8, 3, 0.0, true, &mut rng);
        assert_eq!(blk.out_channels(), 16 + 24);
        let x = randn([2, 16, 8, 8], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = blk.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 40, 8, 8]);
        let gx = blk.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        assert_eq!(gx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn dense_block_up_path_excludes_input() {
        let mut rng = seeded_rng(42);
        let mut blk = DenseBlock::new("db", 16, 2, 8, 3, 0.0, false, &mut rng);
        assert_eq!(blk.out_channels(), 16);
        let x = randn([1, 16, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = blk.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 16, 4, 4]);
    }

    /// Central-difference oracle for `layer.backward` in train mode,
    /// against the input entries `xs` and the entries `ws` of the
    /// parameter named `weight`. The loss projects the output on a random
    /// tensor `r` drawn from `rng`, so `backward(r)` is its exact gradient
    /// (a sum loss is nearly blind behind batch norm, whose train-mode
    /// outputs sum to a constant); the loss is summed in f64 to keep
    /// cancellation out of the difference.
    fn projection_gradient_check(
        layer: &mut dyn Layer,
        x: &Tensor,
        weight: &str,
        xs: &[usize],
        ws: &[usize],
        rng: &mut StdRng,
    ) {
        let mut ctx = Ctx::train(0);
        let y = layer.forward(x, &mut ctx);
        let r = randn(y.shape().clone(), DType::F32, 1.0, rng);
        let gx = layer.backward(&r);
        let w = layer.params().get(weight).unwrap_or_else(|| panic!("no parameter {weight}")).clone();
        let gw = w.grad();

        let mut loss = |x: &Tensor| -> f64 {
            let y = layer.forward(x, &mut ctx);
            y.as_slice().iter().zip(r.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum()
        };
        // A step small enough to stay off ReLU kinks at these indices.
        let eps = 3e-3f32;
        let close = |num: f64, ana: f32| (num - ana as f64).abs() < 5e-3 * (ana as f64).abs().max(1.0);
        for &idx in xs {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            let ana = gx.as_slice()[idx];
            assert!(close(num, ana), "input grad[{idx}]: numeric {num} vs analytic {ana}");
        }
        for &idx in ws {
            w.apply_update(|v, _| v[idx] += eps);
            let lp = loss(x);
            w.apply_update(|v, _| v[idx] -= 2.0 * eps);
            let lm = loss(x);
            w.apply_update(|v, _| v[idx] += eps);
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = gw.as_slice()[idx];
            assert!(close(num, ana), "{weight} grad[{idx}]: numeric {num} vs analytic {ana}");
        }
    }

    /// `DenseBlock::backward` at dropout 0, against the block input and
    /// the first layer's conv weight, whose gradient arrives both through
    /// the block output and through the later layer that consumes its
    /// features (measured error about 2e-4 relative).
    #[test]
    fn dense_block_gradient_check() {
        let mut rng = seeded_rng(43);
        let mut blk = DenseBlock::new("db", 4, 2, 4, 3, 0.0, true, &mut rng);
        let x = randn([2, 4, 4, 4], DType::F32, 1.0, &mut rng);
        projection_gradient_check(&mut blk, &x, "db.l0.conv.weight", &[0, 17, 70, x.numel() - 1], &[0, 5, 31, 143], &mut rng);
    }

    #[test]
    fn bottleneck_identity_and_projection_paths() {
        let mut rng = seeded_rng(44);
        let mut ctx = Ctx::train(0);
        // Projection path: channel change.
        let mut b1 = Bottleneck::new("b1", 16, 8, 1, 1, &mut rng);
        let x = randn([1, 16, 6, 6], DType::F32, 1.0, &mut rng);
        let y = b1.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 32, 6, 6]);
        // Identity path: in_ch == 4·planes, stride 1.
        let mut b2 = Bottleneck::new("b2", 32, 8, 1, 1, &mut rng);
        let y2 = b2.forward(&y, &mut ctx);
        assert_eq!(y2.shape().dims(), &[1, 32, 6, 6]);
        assert!(b2.shortcut.is_none());
        // Strided path halves resolution.
        let mut b3 = Bottleneck::new("b3", 32, 8, 2, 1, &mut rng);
        let y3 = b3.forward(&y2, &mut ctx);
        assert_eq!(y3.shape().dims(), &[1, 32, 3, 3]);
        // Atrous path preserves resolution.
        let mut b4 = Bottleneck::new("b4", 32, 8, 1, 2, &mut rng);
        let y4 = b4.forward(&y2, &mut ctx);
        assert_eq!(y4.shape().dims(), &[1, 32, 6, 6]);
    }

    /// `Bottleneck::backward`: the input gradient is the sum of the
    /// residual branch's and the shortcut's. With an identity shortcut the
    /// first 1×1 conv's weight is checked; with a strided projection
    /// shortcut, the projection's.
    #[test]
    fn bottleneck_gradient_flows_through_both_branches() {
        let mut rng = seeded_rng(45);
        let mut identity = Bottleneck::new("b", 16, 4, 1, 1, &mut rng);
        assert!(identity.shortcut.is_none());
        let x = randn([2, 16, 4, 4], DType::F32, 1.0, &mut rng);
        projection_gradient_check(&mut identity, &x, "b.c1.conv.weight", &[0, 77, 200, x.numel() - 1], &[0, 9, 40, 63], &mut rng);

        let mut projected = Bottleneck::new("p", 8, 4, 2, 1, &mut rng);
        assert!(projected.shortcut.is_some());
        let x = randn([2, 8, 6, 6], DType::F32, 1.0, &mut rng);
        projection_gradient_check(&mut projected, &x, "p.proj.weight", &[0, 43, 301, x.numel() - 1], &[0, 21, 77, 127], &mut rng);
    }

    /// `Aspp::backward`: the input gradient sums every branch's, and an
    /// atrous branch's conv weight is checked. (Its last output channel
    /// sits near a ReLU kink at this step; the checked entries feed the
    /// first three.)
    #[test]
    fn aspp_gradient_check() {
        let mut rng = seeded_rng(48);
        let mut aspp = Aspp::new("a", 4, 4, &[2], 0.0, &mut rng);
        let x = randn([2, 4, 6, 6], DType::F32, 1.0, &mut rng);
        projection_gradient_check(&mut aspp, &x, "a.bd2.conv.weight", &[0, 50, 199, x.numel() - 1], &[0, 13, 70, 100], &mut rng);
    }

    #[test]
    fn aspp_concatenates_branches() {
        let mut rng = seeded_rng(46);
        let mut aspp = Aspp::new("aspp", 16, 8, &[2, 4, 6], 0.0, &mut rng);
        assert_eq!(aspp.out_channels(), 8);
        let x = randn([1, 16, 12, 12], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = aspp.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 8, 12, 12]);
        let gx = aspp.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        assert_eq!(gx.shape().dims(), x.shape().dims());
        // 4 branches × (conv w + bn γ/β) + projection (conv + bn γ/β).
        assert_eq!(aspp.params().len(), 4 * 3 + 3);
    }

    #[test]
    fn transition_down_halves() {
        let mut rng = seeded_rng(47);
        let mut td = transition_down("td", 8, 0.0, &mut rng);
        let x = randn([1, 8, 8, 8], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = td.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
    }

    /// Activation caches are copy-on-write shares of the activation, not
    /// copies: after `forward` the cached input (Conv2d, Deconv2d) or
    /// output (ReLU, Bottleneck) shares its buffer with the layer's cache,
    /// and `backward` releases the share.
    #[test]
    fn activation_caches_alias_not_copy() {
        use exaclim_nn::layers::Deconv2d;
        use exaclim_tensor::ops::Deconv2dParams;
        let mut rng = seeded_rng(44);
        let mut ctx = Ctx::train(0);
        let x = randn([1, 4, 6, 6], DType::F32, 1.0, &mut rng);
        assert!(!x.storage_shared());

        let mut conv = Conv2d::new("c", 4, 4, 3, Conv2dParams { stride: 1, pad: 1, dilation: 1 }, false, &mut rng);
        let y = conv.forward(&x, &mut ctx);
        assert!(x.storage_shared(), "Conv2d caches its input by reference");
        conv.backward(&y);
        assert!(!x.storage_shared(), "backward consumes the cache");

        let mut deconv = Deconv2d::new("d", 4, 4, 3, Deconv2dParams::double(), &mut rng);
        let y = deconv.forward(&x, &mut ctx);
        assert!(x.storage_shared(), "Deconv2d caches its input by reference");
        deconv.backward(&y);
        assert!(!x.storage_shared());

        let mut relu = ReLU::new();
        let y = relu.forward(&x, &mut ctx);
        assert!(y.storage_shared(), "ReLU caches its output by reference");
        relu.backward(&y);
        assert!(!y.storage_shared());

        let mut block = Bottleneck::new("b", 4, 1, 1, 1, &mut rng);
        let y = block.forward(&x, &mut ctx);
        assert!(y.storage_shared(), "Bottleneck caches its output by reference");
        block.backward(&y);
        assert!(!y.storage_shared());
    }
}
