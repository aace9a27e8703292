//! Architecture specifications: the symbolic per-layer description that the
//! performance model consumes.
//!
//! The paper computes FLOP rates by *traversing the TensorFlow graph* and
//! counting the work of each node (§VI) rather than by timing kernels. An
//! [`ArchSpec`] is that graph for our networks: one [`OpSpec`] per
//! operation with full shape information, cheap to build at any input
//! resolution — including the paper-scale 1152×768×16, which would be far
//! too large to *execute* on a laptop but costs nothing to *analyze*.

/// Operation kind with the hyper-parameters FLOP counting needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Convolution `kernel×kernel` with stride/dilation.
    Conv {
        /// Kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Dilation.
        dilation: usize,
    },
    /// Transposed convolution.
    Deconv {
        /// Kernel extent.
        kernel: usize,
        /// Upsampling stride.
        stride: usize,
    },
    /// Batch normalization.
    BatchNorm,
    /// ReLU activation.
    ReLU,
    /// Max pooling.
    MaxPool {
        /// Kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Channel concatenation (a copy, not math).
    Concat,
    /// Dropout.
    Dropout,
    /// Bilinear resize.
    Bilinear,
    /// Channel softmax (loss head).
    Softmax,
    /// Elementwise addition (residual connections).
    Add,
}

/// One operation of an architecture, with input/output shapes (C, H, W).
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Layer-path name, e.g. `"encoder.stage2.block0.conv1"`.
    pub name: String,
    /// Operation kind.
    pub kind: OpKind,
    /// Input channels.
    pub in_ch: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Trainable scalar count (weights + biases + γ/β).
    pub weight_params: usize,
}

impl OpSpec {
    /// Forward FLOPs under the paper's §VI conventions (2 per MAC).
    pub fn forward_flops(&self) -> u64 {
        let (oc, oh, ow) = (self.out_ch as u64, self.out_h as u64, self.out_w as u64);
        let ic = self.in_ch as u64;
        match self.kind {
            OpKind::Conv { kernel, .. } => {
                2 * oc * ic * (kernel * kernel) as u64 * oh * ow
            }
            OpKind::Deconv { kernel, .. } => {
                // Every input pixel multiplies the full kernel stencil.
                2 * oc * ic * (kernel * kernel) as u64 * (self.in_h * self.in_w) as u64
            }
            OpKind::BatchNorm => 5 * ic * (self.in_h * self.in_w) as u64,
            OpKind::ReLU | OpKind::Dropout | OpKind::Add => ic * (self.in_h * self.in_w) as u64,
            OpKind::MaxPool { kernel, .. } => {
                oc * oh * ow * (kernel * kernel) as u64
            }
            OpKind::Concat => 0,
            OpKind::Bilinear => 8 * oc * oh * ow,
            OpKind::Softmax => 4 * oc * oh * ow,
        }
    }

    /// Backward FLOPs: convolution-like ops run two passes (data + weight
    /// gradients); pointwise ops roughly mirror their forward cost.
    pub fn backward_flops(&self) -> u64 {
        match self.kind {
            OpKind::Conv { .. } | OpKind::Deconv { .. } => 2 * self.forward_flops(),
            OpKind::BatchNorm => 2 * self.forward_flops(),
            OpKind::Concat => 0,
            _ => self.forward_flops(),
        }
    }

    /// Whether this op is a convolution-category kernel in the paper's
    /// census (Figures 3/8/9 group deconvs with convs).
    fn is_conv_category(&self) -> bool {
        matches!(self.kind, OpKind::Conv { .. } | OpKind::Deconv { .. })
    }
}

/// A full architecture description for one input resolution.
#[derive(Debug, Clone)]
pub struct ArchSpec {
    /// Architecture name (e.g. `"DeepLabv3+"`).
    pub name: String,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Operations in execution order.
    pub ops: Vec<OpSpec>,
}

impl ArchSpec {
    /// Total trainable scalars.
    pub fn total_params(&self) -> usize {
        self.ops.iter().map(|o| o.weight_params).sum()
    }

    /// Total forward FLOPs per sample.
    pub fn forward_flops(&self) -> u64 {
        self.ops.iter().map(|o| o.forward_flops()).sum()
    }

    /// Total forward+backward FLOPs per sample — the paper's
    /// "Operation Count (TF/sample)" column in Figure 2.
    pub fn training_flops(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| o.forward_flops() + o.backward_flops())
            .sum()
    }

    /// Forward+backward FLOPs in convolution-category kernels only.
    pub fn conv_flops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.is_conv_category())
            .map(|o| o.forward_flops() + o.backward_flops())
            .sum()
    }

    /// Renders a Figure-1-style layer table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{} — input {}×{}×{}", self.name, self.input.0, self.input.1, self.input.2);
        let _ = writeln!(
            s,
            "{:<44} {:>22} {:>22} {:>12}",
            "layer", "in (C×H×W)", "out (C×H×W)", "params"
        );
        for o in &self.ops {
            let _ = writeln!(
                s,
                "{:<44} {:>22} {:>22} {:>12}",
                o.name,
                format!("{}×{}×{}", o.in_ch, o.in_h, o.in_w),
                format!("{}×{}×{}", o.out_ch, o.out_h, o.out_w),
                o.weight_params
            );
        }
        let _ = writeln!(
            s,
            "total: {} params, {:.3} GF forward, {:.3} GF training per sample",
            self.total_params(),
            self.forward_flops() as f64 / 1e9,
            self.training_flops() as f64 / 1e9
        );
        s
    }
}

/// A running shape cursor used by the spec builders.
#[derive(Debug, Clone, Copy)]
pub struct ShapeCursor {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

/// Builder that appends [`OpSpec`]s while tracking the activation shape.
#[derive(Debug)]
pub struct SpecBuilder {
    ops: Vec<OpSpec>,
    cursor: ShapeCursor,
}

impl SpecBuilder {
    /// Starts from an input shape.
    pub fn new(c: usize, h: usize, w: usize) -> SpecBuilder {
        SpecBuilder {
            ops: Vec::new(),
            cursor: ShapeCursor { c, h, w },
        }
    }

    /// Current activation shape.
    pub fn cursor(&self) -> ShapeCursor {
        self.cursor
    }

    /// Overrides the cursor (after a skip-connection merge).
    pub fn set_cursor(&mut self, c: usize, h: usize, w: usize) {
        self.cursor = ShapeCursor { c, h, w };
    }

    /// Appends a conv; updates the cursor using the conv output formula.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(&mut self, name: impl Into<String>, out_ch: usize, kernel: usize, stride: usize, pad: usize, dilation: usize, bias: bool) {
        let ShapeCursor { c, h, w } = self.cursor;
        let oh = exaclim_tensor::shape::conv_out_dim(h, kernel, stride, pad, dilation);
        let ow = exaclim_tensor::shape::conv_out_dim(w, kernel, stride, pad, dilation);
        let params = out_ch * c * kernel * kernel + if bias { out_ch } else { 0 };
        self.ops.push(OpSpec {
            name: name.into(),
            kind: OpKind::Conv { kernel, stride, dilation },
            in_ch: c,
            in_h: h,
            in_w: w,
            out_ch,
            out_h: oh,
            out_w: ow,
            weight_params: params,
        });
        self.cursor = ShapeCursor { c: out_ch, h: oh, w: ow };
    }

    /// Appends a ×2 transposed conv.
    pub fn deconv_x2(&mut self, name: impl Into<String>, out_ch: usize, kernel: usize) {
        let ShapeCursor { c, h, w } = self.cursor;
        self.ops.push(OpSpec {
            name: name.into(),
            kind: OpKind::Deconv { kernel, stride: 2 },
            in_ch: c,
            in_h: h,
            in_w: w,
            out_ch,
            out_h: h * 2,
            out_w: w * 2,
            weight_params: c * out_ch * kernel * kernel,
        });
        self.cursor = ShapeCursor { c: out_ch, h: h * 2, w: w * 2 };
    }

    /// Appends a shape-preserving pointwise op.
    pub fn pointwise(&mut self, name: impl Into<String>, kind: OpKind) {
        let ShapeCursor { c, h, w } = self.cursor;
        let params = if kind == OpKind::BatchNorm { 2 * c } else { 0 };
        self.ops.push(OpSpec {
            name: name.into(),
            kind,
            in_ch: c,
            in_h: h,
            in_w: w,
            out_ch: c,
            out_h: h,
            out_w: w,
            weight_params: params,
        });
    }

    /// Appends a max pool.
    pub fn maxpool(&mut self, name: impl Into<String>, kernel: usize, stride: usize, pad: usize) {
        let ShapeCursor { c, h, w } = self.cursor;
        let oh = exaclim_tensor::shape::conv_out_dim(h, kernel, stride, pad, 1);
        let ow = exaclim_tensor::shape::conv_out_dim(w, kernel, stride, pad, 1);
        self.ops.push(OpSpec {
            name: name.into(),
            kind: OpKind::MaxPool { kernel, stride },
            in_ch: c,
            in_h: h,
            in_w: w,
            out_ch: c,
            out_h: oh,
            out_w: ow,
            weight_params: 0,
        });
        self.cursor = ShapeCursor { c, h: oh, w: ow };
    }

    /// Appends a channel concat that sets the cursor to the combined width.
    pub fn concat(&mut self, name: impl Into<String>, extra_ch: usize) {
        let ShapeCursor { c, h, w } = self.cursor;
        self.ops.push(OpSpec {
            name: name.into(),
            kind: OpKind::Concat,
            in_ch: c,
            in_h: h,
            in_w: w,
            out_ch: c + extra_ch,
            out_h: h,
            out_w: w,
            weight_params: 0,
        });
        self.cursor = ShapeCursor { c: c + extra_ch, h, w };
    }

    /// Finalizes into an [`ArchSpec`].
    pub fn build(self, name: impl Into<String>, input: (usize, usize, usize)) -> ArchSpec {
        ArchSpec {
            name: name.into(),
            input,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_spec_flops_match_section_vi_worked_example() {
        // 3×3 conv, 48→32 channels at 1152×768 (same conv): 24.46 GF/sample
        // forward; the paper quotes 48.9 GF for batch 2.
        let mut b = SpecBuilder::new(48, 768, 1152);
        b.conv("c", 32, 3, 1, 1, 1, false);
        let spec = b.build("t", (48, 768, 1152));
        assert_eq!(2 * spec.forward_flops(), 48_922_361_856);
    }

    #[test]
    fn cursor_tracks_strided_convs() {
        let mut b = SpecBuilder::new(16, 768, 1152);
        b.conv("stem", 64, 7, 2, 3, 1, false);
        assert_eq!(b.cursor().h, 384);
        assert_eq!(b.cursor().w, 576);
        b.maxpool("pool", 3, 2, 1);
        assert_eq!((b.cursor().c, b.cursor().h, b.cursor().w), (64, 192, 288));
    }

    #[test]
    fn deconv_doubles_and_counts_params() {
        let mut b = SpecBuilder::new(256, 96, 144);
        b.deconv_x2("up", 256, 3);
        let spec = b.build("d", (256, 96, 144));
        assert_eq!(spec.ops[0].out_h, 192);
        assert_eq!(spec.total_params(), 256 * 256 * 9);
    }

    #[test]
    fn backward_flops_double_conv_cost() {
        let mut b = SpecBuilder::new(8, 32, 32);
        b.conv("c", 8, 3, 1, 1, 1, false);
        let spec = b.build("t", (8, 32, 32));
        assert_eq!(spec.training_flops(), 3 * spec.forward_flops());
    }

    #[test]
    fn concat_accumulates_channels_without_params() {
        let mut b = SpecBuilder::new(32, 16, 16);
        b.concat("skip", 48);
        assert_eq!(b.cursor().c, 80);
        let spec = b.build("t", (32, 16, 16));
        assert_eq!(spec.total_params(), 0);
        assert_eq!(spec.ops[0].forward_flops(), 0);
    }

    #[test]
    fn render_table_mentions_every_layer() {
        let mut b = SpecBuilder::new(4, 8, 8);
        b.conv("first", 8, 3, 1, 1, 1, true);
        b.pointwise("act", OpKind::ReLU);
        let spec = b.build("demo", (4, 8, 8));
        let table = spec.render_table();
        assert!(table.contains("first"));
        assert!(table.contains("act"));
        assert!(table.contains("total:"));
    }
}
