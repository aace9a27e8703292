//! Tensor shapes and row-major index arithmetic.

/// A tensor shape: a small list of dimension extents, row-major.
///
/// Climate network activations are NCHW: `[batch, channels, height, width]`,
/// matching the layout the paper's TensorFlow/cuDNN stack used on GPUs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Shape {
        Shape(dims.to_vec())
    }

    /// The dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Linear row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics in debug builds if `idx` has the wrong rank or is out of range.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.0.len(), "index rank mismatch");
        let mut off = 0;
        for (d, (&i, &extent)) in idx.iter().zip(self.0.iter()).enumerate() {
            debug_assert!(i < extent, "index {i} out of range {extent} in dim {d}");
            off = off * extent + i;
        }
        off
    }

    /// Convenience accessor for 4-D (NCHW) shapes: `(n, c, h, w)`.
    ///
    /// # Panics
    /// Panics if the shape is not rank 4.
    #[inline]
    pub fn nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.0.len(), 4, "expected NCHW shape, got {:?}", self.0);
        (self.0[0], self.0[1], self.0[2], self.0[3])
    }

    /// Extent of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Shape {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Output spatial extent of a (possibly dilated, strided, padded) convolution.
///
/// `out = floor((in + 2*pad - dilation*(kernel-1) - 1) / stride) + 1`
#[inline]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize, dilation: usize) -> usize {
    let eff = dilation * (kernel - 1) + 1;
    (input + 2 * pad - eff) / stride + 1
}

/// Output spatial extent of a transposed convolution.
///
/// `out = (in - 1)*stride - 2*pad + kernel + output_padding`
#[inline]
pub fn deconv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize, output_pad: usize) -> usize {
    (input - 1) * stride + kernel + output_pad - 2 * pad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    fn conv_out_dims_match_paper_network() {
        // Paper Fig 1: 1152×768 input, 7×7 conv stride 2 pad 3 → 576×384,
        // then 3×3 maxpool stride 2 pad 1 → 288×192.
        assert_eq!(conv_out_dim(1152, 7, 2, 3, 1), 576);
        assert_eq!(conv_out_dim(768, 7, 2, 3, 1), 384);
        assert_eq!(conv_out_dim(576, 3, 2, 1, 1), 288);
        assert_eq!(conv_out_dim(384, 3, 2, 1, 1), 192);
        // Atrous 3×3 with dilation d and pad d preserves spatial size.
        for d in [2, 4, 12, 24, 36] {
            assert_eq!(conv_out_dim(144, 3, 1, d, d), 144);
        }
    }

    #[test]
    fn deconv_doubles_with_output_padding() {
        // 3×3 deconv /2 used by the full-resolution decoder: 144 → 288.
        assert_eq!(deconv_out_dim(144, 3, 2, 1, 1), 288);
        assert_eq!(deconv_out_dim(288, 3, 2, 1, 1), 576);
        assert_eq!(deconv_out_dim(576, 3, 2, 1, 1), 1152);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }
}
