//! Tensor kernels: the cuDNN-equivalent substrate.
//!
//! Every public op records a [`crate::profile`] census entry using the
//! paper's FLOP conventions (Section VI): a multiply-add counts as 2 FLOPs,
//! and a convolution (regardless of algorithm — direct or implicit/im2col
//! GEMM) counts `2·N·K·C·R·S·Ho·Wo`.

pub mod conv;
pub mod deconv;
pub mod gemm;
mod interp;
pub mod layout;
pub mod norm;
pub mod pointwise;
pub mod pool;
mod reduce;

pub use conv::{conv2d_backward, conv2d_forward, Conv2dParams, ConvAlgo};
pub use deconv::{deconv2d_backward, deconv2d_forward, Deconv2dParams};
pub use gemm::gemm;
pub use interp::{bilinear_resize_backward, bilinear_resize_forward};
pub use layout::crop_spatial;
pub use norm::{batchnorm_backward, batchnorm_forward, BatchNormCache};
pub use pointwise::{
    add, add_bias_nchw, bias_grad_nchw, concat_channels, dropout_backward, dropout_forward, mul,
    relu_backward, relu_backward_from_output, relu_forward, split_channels,
};
pub use pool::{maxpool2d_backward_shaped, maxpool2d_forward};
pub use reduce::{log_softmax_channels, softmax_channels};
