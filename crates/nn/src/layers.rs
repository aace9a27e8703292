//! Concrete layers: the vocabulary of Figure 1.

use crate::layer::{Ctx, Layer};
use crate::param::{Param, ParamSet};
use exaclim_tensor::init::he_normal;
use exaclim_tensor::ops::{self, BatchNormCache, Conv2dParams, ConvAlgo, Deconv2dParams};
use exaclim_tensor::{DType, Shape, Tensor};
use rand::rngs::StdRng;

/// 2-D convolution layer (`dark blue` and `green` boxes of Figure 1).
pub struct Conv2d {
    name: String,
    weight: Param,
    bias: Option<Param>,
    params: Conv2dParams,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// He-initialized convolution.
    ///
    /// * `name` must be unique within a model: it orders distributed
    ///   all-reduce operations.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        params: Conv2dParams,
        bias: bool,
        rng: &mut StdRng,
    ) -> Conv2d {
        let name = name.into();
        let weight = Param::new(
            format!("{name}.weight"),
            he_normal([out_ch, in_ch, kernel, kernel], DType::F32, rng),
        );
        let bias = bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros([out_ch], DType::F32)));
        Conv2d {
            name,
            weight,
            bias,
            params,
            cached_input: None,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _ctx: &mut Ctx) -> Tensor {
        // The cache shares `x`'s storage (copy-on-write); a buffer copy
        // happens only if someone later mutates either side.
        self.cached_input = Some(x.clone());
        // Mixed precision: cast the f32 master weight to the activation
        // precision for compute, as tensor cores do.
        let w = self.weight.value().cast(x.dtype());
        let mut y = ops::conv2d_forward(x, &w, self.params, ConvAlgo::Auto);
        if let Some(b) = &self.bias {
            let bv = b.value().cast(x.dtype());
            ops::add_bias_nchw(&mut y, &bv);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("Conv2d::backward before forward");
        let w = self.weight.value().cast(x.dtype());
        if let Some(b) = &self.bias {
            b.accumulate_grad(&ops::bias_grad_nchw(grad_out));
        }
        let grads = ops::conv2d_backward(&x, &w, grad_out, self.params);
        self.weight.accumulate_grad(&grads.grad_weight);
        grads.grad_input
    }

    fn params(&self) -> ParamSet {
        let mut s = ParamSet::new();
        s.push(self.weight.clone());
        if let Some(b) = &self.bias {
            s.push(b.clone());
        }
        s
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Transposed convolution (`light blue` boxes of Figure 1) — the learned
/// upsampler of the paper's full-resolution decoder.
pub struct Deconv2d {
    name: String,
    weight: Param,
    params: Deconv2dParams,
    cached_input: Option<Tensor>,
}

impl Deconv2d {
    /// He-initialized transposed convolution (weights `[C_in, C_out, k, k]`).
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        params: Deconv2dParams,
        rng: &mut StdRng,
    ) -> Deconv2d {
        let name = name.into();
        let weight = Param::new(
            format!("{name}.weight"),
            he_normal([in_ch, out_ch, kernel, kernel], DType::F32, rng),
        );
        Deconv2d {
            name,
            weight,
            params,
            cached_input: None,
        }
    }
}

impl Layer for Deconv2d {
    fn forward(&mut self, x: &Tensor, _ctx: &mut Ctx) -> Tensor {
        self.cached_input = Some(x.clone());
        let w = self.weight.value().cast(x.dtype());
        ops::deconv2d_forward(x, &w, self.params)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("Deconv2d::backward before forward");
        let w = self.weight.value().cast(x.dtype());
        let grads = ops::deconv2d_backward(&x, &w, grad_out, self.params);
        self.weight.accumulate_grad(&grads.grad_weight);
        grads.grad_input
    }

    fn params(&self) -> ParamSet {
        ParamSet::from_vec(vec![self.weight.clone()])
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Batch normalization layer.
///
/// Running statistics are exposed as *buffers* (non-trainable shared
/// handles): never all-reduced (they stay rank-local, as in Horovod), but
/// captured by checkpoints so eval-mode behaviour restores exactly.
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    momentum: f32,
    eps: f32,
    cache: Option<BatchNormCache>,
    /// Sticky mode flag ([`Layer::set_training`]): when false the layer
    /// normalizes with running statistics even under a training ctx.
    train_mode: bool,
}

impl BatchNorm2d {
    /// γ=1, β=0 batch norm over `channels`.
    pub fn new(name: impl Into<String>, channels: usize) -> BatchNorm2d {
        let name = name.into();
        BatchNorm2d {
            gamma: Param::new(format!("{name}.gamma"), Tensor::full([channels], DType::F32, 1.0)),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([channels], DType::F32)),
            running_mean: Param::new(format!("{name}.running_mean"), Tensor::zeros([channels], DType::F32)),
            running_var: Param::new(format!("{name}.running_var"), Tensor::full([channels], DType::F32, 1.0)),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
            train_mode: true,
            name,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        if ctx.training && self.train_mode {
            let mut rm = self.running_mean.value().into_vec();
            let mut rv = self.running_var.value().into_vec();
            let (y, cache) = ops::batchnorm_forward(
                x,
                &self.gamma.value(),
                &self.beta.value(),
                self.eps,
                Some((&mut rm, &mut rv, self.momentum)),
            );
            let c = rm.len();
            self.running_mean.set_value(Tensor::from_vec([c], DType::F32, rm));
            self.running_var.set_value(Tensor::from_vec([c], DType::F32, rv));
            self.cache = Some(cache);
            y
        } else {
            // Inference: normalize with running stats.
            let (n, c, h, w) = x.shape().nchw();
            let mut y = Tensor::zeros(x.shape().clone(), x.dtype());
            let g = self.gamma.value();
            let b = self.beta.value();
            let rm = self.running_mean.value();
            let rv = self.running_var.value();
            {
                let xs = x.as_slice();
                let ys = y.as_mut_slice();
                for ni in 0..n {
                    for ci in 0..c {
                        let inv = 1.0 / (rv.as_slice()[ci] + self.eps).sqrt();
                        let base = (ni * c + ci) * h * w;
                        let (gc, bc, mu) = (g.as_slice()[ci], b.as_slice()[ci], rm.as_slice()[ci]);
                        for i in base..base + h * w {
                            ys[i] = gc * (xs[i] - mu) * inv + bc;
                        }
                    }
                }
            }
            y.requantize();
            y
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("BatchNorm2d::backward before training forward");
        let grads = ops::batchnorm_backward(grad_out, &self.gamma.value(), &cache);
        self.gamma.accumulate_grad(&grads.grad_gamma);
        self.beta.accumulate_grad(&grads.grad_beta);
        grads.grad_input
    }

    fn params(&self) -> ParamSet {
        ParamSet::from_vec(vec![self.gamma.clone(), self.beta.clone()])
    }

    fn buffers(&self) -> ParamSet {
        ParamSet::from_vec(vec![self.running_mean.clone(), self.running_var.clone()])
    }

    fn set_training(&mut self, training: bool) {
        self.train_mode = training;
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// ReLU activation.
///
/// The backward mask is recomputed from the cached *output* (`y > 0` iff
/// `x > 0` for `y = max(0, x)`), so the layer keeps the tensor it already
/// produced alive instead of a second copy of its input — halving the
/// activation-cache footprint of every conv→ReLU pair.
pub struct ReLU {
    cached_output: Option<Tensor>,
}

impl ReLU {
    /// New ReLU.
    pub fn new() -> ReLU {
        ReLU { cached_output: None }
    }
}

impl Default for ReLU {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, _ctx: &mut Ctx) -> Tensor {
        let y = ops::relu_forward(x);
        self.cached_output = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cached_output.take().expect("ReLU::backward before forward");
        ops::relu_backward_from_output(&y, grad_out)
    }

    fn name(&self) -> String {
        "relu".into()
    }
}

/// Inverted dropout (active only in training mode).
pub struct Dropout {
    prob: f32,
    mask: Option<Vec<f32>>,
    /// Sticky mode flag ([`Layer::set_training`]): when false the layer is
    /// the identity even under a training ctx.
    train_mode: bool,
}

impl Dropout {
    /// Dropout with the given drop probability.
    pub fn new(prob: f32) -> Dropout {
        Dropout { prob, mask: None, train_mode: true }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        if ctx.training && self.train_mode && self.prob > 0.0 {
            let (y, mask) = ops::dropout_forward(x, self.prob, &mut ctx.rng);
            self.mask = Some(mask);
            y
        } else {
            self.mask = None;
            x.clone()
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => {
                let g = ops::dropout_backward(grad_out, &mask);
                exaclim_tensor::pool::recycle(mask);
                g
            }
            None => grad_out.clone(),
        }
    }

    fn set_training(&mut self, training: bool) {
        self.train_mode = training;
    }

    fn name(&self) -> String {
        format!("dropout({})", self.prob)
    }
}

/// Max pooling layer.
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<(Shape, Vec<u32>)>,
    input_dtype: DType,
}

impl MaxPool2d {
    /// `kernel×kernel` max pool.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> MaxPool2d {
        MaxPool2d {
            kernel,
            stride,
            pad,
            cache: None,
            input_dtype: DType::F32,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _ctx: &mut Ctx) -> Tensor {
        let (y, arg) = ops::maxpool2d_forward(x, self.kernel, self.stride, self.pad);
        self.cache = Some((x.shape().clone(), arg));
        self.input_dtype = x.dtype();
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (shape, arg) = self.cache.take().expect("MaxPool2d::backward before forward");
        ops::maxpool2d_backward_shaped(shape, self.input_dtype, grad_out, &arg)
    }

    fn name(&self) -> String {
        format!("maxpool{}x{}/{}", self.kernel, self.kernel, self.stride)
    }
}

/// Bilinear upsampling to a fixed scale — the *standard* DeepLabv3+
/// decoder's upsampler, kept as the ablation baseline for the paper's
/// learned full-resolution decoder.
pub struct BilinearUpsample {
    scale: usize,
    in_shape: Option<Shape>,
}

impl BilinearUpsample {
    /// Upsample by an integer factor.
    pub fn new(scale: usize) -> BilinearUpsample {
        BilinearUpsample { scale, in_shape: None }
    }
}

impl Layer for BilinearUpsample {
    fn forward(&mut self, x: &Tensor, _ctx: &mut Ctx) -> Tensor {
        self.in_shape = Some(x.shape().clone());
        let (_, _, h, w) = x.shape().nchw();
        ops::bilinear_resize_forward(x, h * self.scale, w * self.scale)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.in_shape.take().expect("BilinearUpsample::backward before forward");
        ops::bilinear_resize_backward(&shape, grad_out)
    }

    fn name(&self) -> String {
        format!("bilinear_x{}", self.scale)
    }
}

/// Conv → BatchNorm → ReLU, the ubiquitous composite.
pub fn conv_bn_relu(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    params: Conv2dParams,
    rng: &mut StdRng,
) -> crate::layer::Sequential {
    crate::layer::Sequential::new(name)
        .push(Conv2d::new(format!("{name}.conv"), in_ch, out_ch, kernel, params, false, rng))
        .push(BatchNorm2d::new(format!("{name}.bn"), out_ch))
        .push(ReLU::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use exaclim_tensor::init::{randn, seeded_rng};

    fn finite_diff_input_grad(layer: &mut dyn Layer, x: &Tensor, idx: usize, eps: f32) -> f32 {
        let mut ctx = Ctx::train(0);
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let lp = layer.forward(&xp, &mut ctx).sum();
        let lm = layer.forward(&xm, &mut ctx).sum();
        (lp - lm) / (2.0 * eps)
    }

    #[test]
    fn conv2d_layer_end_to_end_grad() {
        let mut rng = seeded_rng(21);
        let mut layer = Conv2d::new("c", 2, 3, 3, Conv2dParams::padded(1), true, &mut rng);
        let x = randn([1, 2, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = layer.forward(&x, &mut ctx);
        let ones = Tensor::full(y.shape().clone(), DType::F32, 1.0);
        let gx = layer.backward(&ones);
        for idx in [0usize, 9, 31] {
            let num = finite_diff_input_grad(&mut layer, &x, idx, 1e-2);
            assert!((num - gx.as_slice()[idx]).abs() < 2e-2);
        }
        // Bias gradient of sum-loss = number of output pixels per channel.
        let p = layer.params();
        let gb = p.get("c.bias").unwrap().grad();
        for &g in gb.as_slice() {
            assert!((g - 16.0).abs() < 1e-3);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = seeded_rng(22);
        let mut bn = BatchNorm2d::new("bn", 2);
        let mut ctx = Ctx::train(0);
        // Run a few training steps to populate running stats.
        for _ in 0..20 {
            let x = randn([4, 2, 3, 3], DType::F32, 2.0, &mut rng);
            let _ = bn.forward(&x, &mut ctx);
        }
        let mut ectx = Ctx::eval();
        let x = Tensor::zeros([1, 2, 3, 3], DType::F32);
        let y = bn.forward(&x, &mut ectx);
        // With mean≈0 and var≈4, output ≈ -mean/std ≈ 0.
        assert!(y.max_abs() < 0.5, "eval-mode output {}", y.max_abs());
    }

    #[test]
    fn dropout_is_identity_in_eval() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::full([100], DType::F32, 1.0);
        let mut ectx = Ctx::eval();
        let y = d.forward(&x, &mut ectx);
        assert_eq!(y.as_slice(), x.as_slice());
        let g = d.backward(&x);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn set_training_false_pins_eval_under_training_ctx() {
        let mut rng = seeded_rng(40);
        // Dropout pinned to eval is the identity even under Ctx::train.
        let mut d = Dropout::new(0.5);
        d.set_training(false);
        let x = randn([64], DType::F32, 1.0, &mut rng);
        let mut tctx = Ctx::train(3);
        let y = d.forward(&x, &mut tctx);
        assert_eq!(y.as_slice(), x.as_slice());
        // BatchNorm pinned to eval normalizes with running stats — the
        // forward under a training ctx is bit-identical to an eval ctx and
        // the running statistics stay untouched.
        let mut bn = BatchNorm2d::new("bn", 2);
        for _ in 0..5 {
            let xb = randn([4, 2, 3, 3], DType::F32, 2.0, &mut rng);
            let _ = bn.forward(&xb, &mut tctx);
        }
        bn.set_training(false);
        let stats_before = bn.buffers().state_hash();
        let xb = randn([2, 2, 3, 3], DType::F32, 1.0, &mut rng);
        let y_train_ctx = bn.forward(&xb, &mut tctx);
        let y_eval_ctx = bn.forward(&xb, &mut Ctx::eval());
        assert_eq!(y_train_ctx.as_slice(), y_eval_ctx.as_slice());
        assert_eq!(bn.buffers().state_hash(), stats_before, "running stats frozen in eval");
        // Flipping back restores training behaviour (batch statistics).
        bn.set_training(true);
        let y_train = bn.forward(&xb, &mut tctx);
        assert_ne!(y_train.as_slice(), y_eval_ctx.as_slice(), "train vs eval forward must diverge");
    }

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut mp = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec([1, 1, 2, 2], DType::F32, vec![1.0, 4.0, 2.0, 3.0]);
        let mut ctx = Ctx::eval();
        let y = mp.forward(&x, &mut ctx);
        assert_eq!(y.as_slice(), &[4.0]);
        let gx = mp.backward(&Tensor::full([1, 1, 1, 1], DType::F32, 3.0));
        assert_eq!(gx.as_slice(), &[0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn deconv_layer_doubles() {
        let mut rng = seeded_rng(30);
        let mut d = Deconv2d::new("d", 3, 2, 3, Deconv2dParams::double(), &mut rng);
        let x = randn([1, 3, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = d.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 2, 8, 8]);
        let gx = d.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        assert_eq!(gx.shape().dims(), x.shape().dims());
        assert_eq!(d.params().len(), 1);
    }

    #[test]
    fn bilinear_layer_roundtrip() {
        let mut b = BilinearUpsample::new(2);
        let x = Tensor::full([1, 1, 3, 3], DType::F32, 1.0);
        let mut ctx = Ctx::eval();
        let y = b.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 1, 6, 6]);
        let gx = b.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        // Adjoint of an averaging operator conserves total mass.
        assert!((gx.sum() - 36.0).abs() < 1e-3);
    }

    #[test]
    fn conv_bn_relu_builds_and_registers_params() {
        let mut rng = seeded_rng(31);
        let mut blk = conv_bn_relu("b", 2, 4, 3, Conv2dParams::padded(1), &mut rng);
        assert_eq!(blk.params().len(), 3); // weight, gamma, beta
        let x = randn([1, 2, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = blk.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 4, 4, 4]);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0), "post-ReLU nonneg");
    }

    #[test]
    fn fp16_activations_flow_through_conv() {
        let mut rng = seeded_rng(33);
        let mut layer = Conv2d::new("h", 2, 2, 3, Conv2dParams::padded(1), false, &mut rng);
        let x = randn([1, 2, 4, 4], DType::F16, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = layer.forward(&x, &mut ctx);
        assert_eq!(y.dtype(), DType::F16);
        // Weight gradients stay in f32 master precision.
        let g = layer.backward(&Tensor::full(y.shape().clone(), DType::F16, 1.0));
        assert_eq!(g.dtype(), DType::F16);
        assert_eq!(layer.params().get("h.weight").unwrap().grad().dtype(), DType::F32);
    }
}
