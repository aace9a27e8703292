//! The dense [`Tensor`] type.

use crate::half::{quantize_f16, quantize_f16_slice};
use crate::pool::{self, PoolBuf};
use crate::profile::{self, KernelKind};
use crate::shape::Shape;
use std::sync::Arc;

/// Storage precision of a tensor.
///
/// `F16` tensors hold values that are exactly representable in IEEE
/// binary16: every write is rounded through [`crate::F16`]. Computation is
/// carried out in `f32` and results are re-quantized, which matches the
/// "FP16 storage, FP32 accumulate" behaviour of Volta tensor cores that the
/// paper's mixed-precision runs relied on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE binary32.
    F32,
    /// IEEE binary16 (software-emulated storage precision).
    F16,
}

impl DType {
    /// Bytes per element in this precision, used for memory-traffic
    /// accounting in the kernel census (Figures 3/8/9).
    #[inline]
    fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "FP32"),
            DType::F16 => write!(f, "FP16"),
        }
    }
}

/// A dense, row-major tensor.
///
/// Values are physically held as `f32`; when `dtype` is [`DType::F16`]
/// every stored value has been rounded through binary16, so the in-memory
/// image is bit-equivalent (up to widening) to a true `u16` half buffer.
///
/// Storage is a pooled, copy-on-write buffer (`Arc<PoolBuf>`): `clone()`
/// shares the buffer at zero cost, the first mutation of a shared tensor
/// copies it (through the pool), and the last owner returns the buffer to
/// the [`crate::pool`] free lists on drop.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    dtype: DType,
    data: Arc<PoolBuf>,
}

impl Tensor {
    /// A tensor of zeros, drawn from the buffer pool.
    pub fn zeros(shape: impl Into<Shape>, dtype: DType) -> Tensor {
        let shape = shape.into();
        let numel = shape.numel();
        Tensor {
            shape,
            dtype,
            data: Arc::new(PoolBuf::from_vec(pool::take_zeroed(numel))),
        }
    }

    /// A tensor filled with `value` (quantized if FP16).
    pub fn full(shape: impl Into<Shape>, dtype: DType, value: f32) -> Tensor {
        let shape = shape.into();
        let v = match dtype {
            DType::F32 => value,
            DType::F16 => quantize_f16(value),
        };
        let numel = shape.numel();
        Tensor {
            shape,
            dtype,
            data: Arc::new(PoolBuf::from_vec(pool::take_filled(numel, v))),
        }
    }

    /// Builds a tensor from existing data. The buffer is adopted into the
    /// pool's custody: it recycles when the last owner drops.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, dtype: DType, mut data: Vec<f32>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        if dtype == DType::F16 {
            quantize_f16_slice(&mut data);
        }
        Tensor {
            shape,
            dtype,
            data: Arc::new(PoolBuf::from_vec(data)),
        }
    }

    /// Builds a tensor around a buffer previously obtained from
    /// [`crate::pool::take_zeroed`]/[`crate::pool::take_with_capacity`] —
    /// the explicit "this storage came from the pool" constructor.
    /// Semantically identical to [`Tensor::from_vec`].
    pub fn from_pool(shape: impl Into<Shape>, dtype: DType, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, dtype, data)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's storage precision.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of the tensor's storage in bytes at its precision.
    #[inline]
    pub fn storage_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// Read-only view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the data. If the buffer is shared (a clone is
    /// alive), it is copied first — copy-on-write keeps
    /// every tensor value-semantic.
    ///
    /// Callers writing to an FP16 tensor must re-quantize afterwards (see
    /// [`Tensor::requantize`]); the op kernels in [`crate::ops`] do this
    /// automatically.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// True if this tensor's buffer is shared with another tensor (a COW
    /// alias created by `clone`, e.g. a layer's activation cache).
    #[inline]
    pub fn storage_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// Consumes the tensor, returning its backing buffer. Copies only if
    /// the buffer is shared.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(buf) => buf.take_data(),
            Err(shared) => pool::take_copy(shared.as_slice()),
        }
    }

    /// Element access by multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.as_slice()[self.shape.offset(idx)]
    }

    /// Element write by multi-dimensional index (quantized if FP16).
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        let v = match self.dtype {
            DType::F32 => value,
            DType::F16 => quantize_f16(value),
        };
        self.as_mut_slice()[off] = v;
    }

    /// Rounds every element through the tensor's storage precision.
    ///
    /// A no-op for FP32 tensors.
    pub fn requantize(&mut self) {
        if self.dtype == DType::F16 {
            quantize_f16_slice(self.as_mut_slice());
        }
    }

    /// Casts to another precision, recording a type-conversion kernel in the
    /// census (these are the "Type Conversions" rows of Figures 3/8/9).
    pub fn cast(&self, dtype: DType) -> Tensor {
        if dtype == self.dtype {
            return self.clone();
        }
        profile::record(
            KernelKind::TypeConversion,
            "cast",
            0,
            self.storage_bytes() as u64,
            (self.numel() * dtype.size_bytes()) as u64,
        );
        Tensor::from_vec(self.shape.clone(), dtype, pool::take_copy(self.as_slice()))
    }

    /// Sum of all elements (f32 accumulation).
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// L2 norm of the flattened tensor, accumulated in the canonical
    /// lane-split order of [`crate::simd::sum_sq_f64`] so serial and
    /// fused/bucketed optimizer paths see identical LARC norm bits.
    pub fn l2_norm(&self) -> f32 {
        crate::simd::sum_sq_f64(self.as_slice()).sqrt() as f32
    }

    /// True if any element is non-finite (the FP16 overflow detector used by
    /// the weighted-loss stability study).
    pub fn has_non_finite(&self) -> bool {
        self.as_slice().iter().any(|x| !x.is_finite())
    }

    /// Fills with zeros in place.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
    }

    /// `self += other` elementwise (quantized if FP16).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice().iter()) {
            *a += *b;
        }
        self.requantize();
    }

    /// `self *= scalar` elementwise (quantized if FP16).
    pub fn scale(&mut self, s: f32) {
        for a in self.as_mut_slice().iter_mut() {
            *a *= s;
        }
        self.requantize();
    }

    /// A 64-bit hash of the raw bits — the one definition behind the
    /// distributed trainer's per-step replica audit
    /// (`ParamSet::state_hash`) and every bit-identity check in the tests.
    ///
    /// **Definition.** Elements are taken in blocks of `2 * HASH_LANES`.
    /// Lane `l` of a block folds the word `bits[2l] | bits[2l + 1] << 32`
    /// with `hash_step`; the lanes never read each other, so the CPU
    /// overlaps their multiply chains instead of waiting out one dependent
    /// chain (the audit runs over every parameter on every step, after the
    /// optimizer, where nothing hides it). After the last full block the
    /// element count, the lanes in index order and the tail elements (fewer
    /// than a block, one per step) are folded the same way into one state,
    /// which a final bijective mix spreads over all 64 bits. Plain `u64`
    /// arithmetic on `f32::to_bits`: the value does not depend on the host,
    /// the SIMD switch or the kernel-pool width.
    ///
    /// **Guarantee.** `hash_step` is a bijection of the state for a fixed
    /// word and of the word for a fixed state, and so is everything
    /// downstream of it. Two tensors of equal length that differ in exactly
    /// one element — any bit, `0.0` vs `-0.0`, two NaN payloads, head, body
    /// or tail — therefore *always* hash differently. Any other difference
    /// (several elements, a permutation, a zero-extension) is missed only
    /// if its parts cancel exactly: about 2⁻⁶⁴ for differences not chosen
    /// against the hash, which is all arithmetic drift can produce.
    pub fn bit_hash(&self) -> u64 {
        let xs = self.as_slice();
        let mut lanes: [u64; HASH_LANES] =
            std::array::from_fn(|l| (l as u64 + 1).wrapping_mul(HASH_MUL));
        let mut blocks = xs.chunks_exact(2 * HASH_LANES);
        for block in &mut blocks {
            for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
                let word = pair[0].to_bits() as u64 | ((pair[1].to_bits() as u64) << 32);
                *lane = hash_step(*lane, word);
            }
        }
        let mut h = lanes.iter().fold(xs.len() as u64, |h, &lane| hash_step(h, lane));
        for x in blocks.remainder() {
            h = hash_step(h, x.to_bits() as u64);
        }
        h ^= h >> 32;
        h = h.wrapping_mul(HASH_MUL);
        h ^ (h >> 29)
    }
}

/// Independent multiply chains in [`Tensor::bit_hash`]: enough to cover the
/// latency of a 64-bit multiply at one issue per cycle.
const HASH_LANES: usize = 8;
/// Odd, so multiplying by it is a bijection of `u64` (2⁶⁴ / golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One fold of [`Tensor::bit_hash`]: xor, odd multiply, rotate — each a
/// bijection of `u64`. The rotate brings the well-mixed high bits down
/// where the next multiply spreads them again.
#[inline(always)]
fn hash_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(HASH_MUL).rotate_left(29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros([2, 3], DType::F32);
        assert_eq!(t.numel(), 6);
        t.set(&[1, 2], 7.5);
        assert_eq!(t.at(&[1, 2]), 7.5);
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn f16_tensor_quantizes_on_write() {
        let mut t = Tensor::zeros([4], DType::F16);
        t.set(&[0], 2049.0); // not representable; spacing is 2 at that magnitude
        assert_eq!(t.at(&[0]), 2048.0);
        t.set(&[1], 1.0e6); // overflows to +inf
        assert!(t.at(&[1]).is_infinite());
        assert!(t.has_non_finite());
    }

    #[test]
    fn from_vec_quantizes_f16() {
        let t = Tensor::from_vec([2], DType::F16, vec![1.0, 1.0 + 2.0f32.powi(-12)]);
        assert_eq!(t.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], DType::F32, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn bit_hash_detects_divergence() {
        let a = Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert_eq!(a.bit_hash(), b.bit_hash());
        b.set(&[2], 3.0000002);
        assert_ne!(a.bit_hash(), b.bit_hash());
    }

    fn hash_of(bits: &[u32]) -> u64 {
        let data = bits.iter().map(|&b| f32::from_bits(b)).collect();
        Tensor::from_vec([bits.len()], DType::F32, data).bit_hash()
    }

    /// Seeded arbitrary bit patterns (NaNs, infinities and subnormals
    /// included — the hash reads bits, not values).
    fn pattern(len: usize, seed: u32) -> Vec<u32> {
        (0..len as u32).map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9).rotate_left(13) ^ seed).collect()
    }

    #[test]
    fn bit_hash_changes_on_any_single_bit_flip() {
        // Below one block, exactly one and two blocks, and one element
        // either side of each boundary: every lane half and tail position.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33] {
            let base = pattern(len, 0xC0FF_EE00 + len as u32);
            let h = hash_of(&base);
            assert_eq!(h, hash_of(&base), "len {len}: not a function of the bits");
            for idx in 0..len {
                for bit in 0..32 {
                    let mut flipped = base.clone();
                    flipped[idx] ^= 1 << bit;
                    assert_ne!(h, hash_of(&flipped), "len {len}: missed bit {bit} of element {idx}");
                }
            }
        }
    }

    #[test]
    fn bit_hash_reads_bits_not_values() {
        // 0.0 == -0.0 and NaN != NaN as values; the audit wants bits.
        let around = |bits: u32| {
            let mut v = pattern(40, 7);
            v[21] = bits;
            hash_of(&v)
        };
        assert_ne!(around(0.0f32.to_bits()), around((-0.0f32).to_bits()));
        assert_ne!(around(0x7FC0_0000), around(0x7FC0_0001), "NaN payloads");
    }

    #[test]
    fn bit_hash_mixes_length_and_position() {
        // Zero-extension, in the tail and across a block boundary.
        let x = 1.5f32.to_bits();
        assert_ne!(hash_of(&[x]), hash_of(&[x, 0]));
        assert_ne!(hash_of(&[]), hash_of(&[0]));
        let mut block = pattern(16, 3);
        let h16 = hash_of(&block);
        block.push(0);
        assert_ne!(h16, hash_of(&block));

        let base = pattern(50, 11);
        let swapped = |i: usize, j: usize| {
            let mut v = base.clone();
            v.swap(i, j);
            hash_of(&v)
        };
        let h = hash_of(&base);
        assert_ne!(h, swapped(2, 9), "different lanes of one block");
        assert_ne!(h, swapped(4, 5), "the two halves of one word");
        assert_ne!(h, swapped(4, 20), "same lane, consecutive blocks");
        assert_ne!(h, swapped(3, 35), "same lane, blocks 0 and 2");
        assert_ne!(h, swapped(48, 49), "inside the tail");
        assert_ne!(h, swapped(0, 49), "body against tail");
    }

    #[test]
    fn storage_bytes_respects_dtype() {
        assert_eq!(Tensor::zeros([10], DType::F32).storage_bytes(), 40);
        assert_eq!(Tensor::zeros([10], DType::F16).storage_bytes(), 20);
    }

    #[test]
    fn cast_roundtrip() {
        let t = Tensor::from_vec([3], DType::F32, vec![1.0, 2.5, -0.125]);
        let h = t.cast(DType::F16);
        assert_eq!(h.dtype(), DType::F16);
        let back = h.cast(DType::F32);
        assert_eq!(back.as_slice(), t.as_slice()); // all values f16-exact
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = Tensor::from_vec([4], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = a.clone();
        assert!(a.storage_shared() && b.storage_shared(), "clone shares storage");
        b.set(&[0], 9.0);
        assert!(!a.storage_shared(), "mutation unshares");
        assert_eq!(a.at(&[0]), 1.0, "original untouched by clone mutation");
        assert_eq!(b.at(&[0]), 9.0);
    }

    #[test]
    fn into_vec_copies_only_when_shared() {
        let a = Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        let v = a.into_vec(); // shared: copies
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        let w = b.into_vec(); // unique: moves
        assert_eq!(w, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropped_tensor_storage_returns_to_pool() {
        crate::pool::set_enabled(true);
        let t = Tensor::zeros([1, 3, 64, 64], DType::F32);
        let before = crate::pool::stats();
        drop(t);
        let after = crate::pool::stats();
        assert!(
            after.recycled > before.recycled || after.dropped > before.dropped,
            "drop must hand the buffer back to the pool"
        );
    }
}
