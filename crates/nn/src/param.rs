//! Trainable parameters.
//!
//! A [`Param`] is a shared handle to a named value/gradient pair. Shared
//! handles let the layer that *uses* a parameter, the optimizer that
//! *updates* it, and the distributed runtime that *all-reduces* its
//! gradient refer to the same storage — the same triangle TensorFlow,
//! the optimizer, and Horovod form in the paper's stack.
//!
//! Values are kept in `f32` master precision regardless of compute
//! precision, matching the paper's mixed-precision training recipe.

use exaclim_tensor::{DType, Tensor};
use parking_lot::RwLock;
use std::sync::Arc;

/// A gradient-ready notification callback (see [`Param::set_ready_hook`]).
pub type ReadyHook = Arc<dyn Fn() + Send + Sync>;

struct ParamInner {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// Fired by [`Param::accumulate_grad`] once this parameter's gradient
    /// for the step is final — the signal the distributed runtime uses to
    /// start all-reducing while backward is still running.
    on_ready: Option<ReadyHook>,
}

/// A shared, named, trainable tensor with its gradient accumulator.
#[derive(Clone)]
pub struct Param(Arc<RwLock<ParamInner>>);

impl Param {
    /// Creates a parameter from an initial value; the gradient starts at
    /// zero with the same shape (in `f32`).
    pub fn new(name: impl Into<String>, value: Tensor) -> Param {
        let grad = Tensor::zeros(value.shape().clone(), DType::F32);
        Param(Arc::new(RwLock::new(ParamInner {
            name: name.into(),
            value,
            grad,
            on_ready: None,
        })))
    }

    /// Installs a gradient-ready hook, replacing any existing one. The hook
    /// fires each time [`accumulate_grad`](Param::accumulate_grad) adds a
    /// gradient (once per backward for every layer-owned parameter).
    pub fn set_ready_hook(&self, hook: ReadyHook) {
        self.0.write().on_ready = Some(hook);
    }

    /// Removes the gradient-ready hook, if any.
    pub fn clear_ready_hook(&self) {
        self.0.write().on_ready = None;
    }

    /// The parameter's unique name (used to order all-reduce operations).
    pub fn name(&self) -> String {
        self.0.read().name.clone()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.0.read().value.numel()
    }

    /// Clones the current value.
    pub fn value(&self) -> Tensor {
        self.0.read().value.clone()
    }

    /// Clones the current gradient.
    pub fn grad(&self) -> Tensor {
        self.0.read().grad.clone()
    }

    /// Replaces the value.
    pub fn set_value(&self, v: Tensor) {
        let mut g = self.0.write();
        assert_eq!(g.value.shape(), v.shape(), "param {} shape change", g.name);
        g.value = v;
    }

    /// Replaces the gradient.
    pub fn set_grad(&self, g: Tensor) {
        let mut inner = self.0.write();
        assert_eq!(inner.grad.shape(), g.shape(), "param {} grad shape change", inner.name);
        inner.grad = g;
    }

    /// Adds `g` into the gradient accumulator, then fires the ready hook,
    /// if one is installed.
    ///
    /// The layer that owns a parameter (`Conv2d`, `Deconv2d`,
    /// `BatchNorm2d`) is the only caller in a backward pass, and it
    /// accumulates each of its parameters exactly once per backward. So the
    /// gradient is final here, and the hook fires once per parameter per
    /// backward, at the earliest point the all-reduce can start. The hook
    /// runs after the write lock is released: it may read the gradient on
    /// another thread.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let hook = {
            let mut inner = self.0.write();
            inner.grad.add_assign(g);
            inner.on_ready.clone()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&self) {
        self.0.write().grad.fill_zero();
    }

    /// Runs `f` with read access to `(value, grad)`.
    pub fn with<T>(&self, f: impl FnOnce(&Tensor, &Tensor) -> T) -> T {
        let g = self.0.read();
        f(&g.value, &g.grad)
    }

    /// Runs `f` with mutable access to `(value, grad)`.
    pub fn with_mut<T>(&self, f: impl FnOnce(&mut Tensor, &mut Tensor) -> T) -> T {
        let mut g = self.0.write();
        let inner = &mut *g;
        f(&mut inner.value, &mut inner.grad)
    }

    /// Applies `update` elementwise: `value[i] += f(grad[i])`-style closures
    /// receive `(value, grad)` slices of equal length.
    pub fn apply_update(&self, f: impl FnOnce(&mut [f32], &[f32])) {
        let mut g = self.0.write();
        // Split the borrow field-wise: value mutably, grad immutably —
        // no gradient copy on the per-step hot path.
        let ParamInner { value, grad, .. } = &mut *g;
        f(value.as_mut_slice(), grad.as_slice());
        value.requantize();
    }

    /// Bitwise hash of the value (replica-consistency checks).
    fn value_hash(&self) -> u64 {
        self.0.read().value.bit_hash()
    }
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.0.read();
        write!(f, "Param({}, {})", g.name, g.value.shape())
    }
}

/// An ordered collection of parameters — the unit optimizers and the
/// distributed runtime operate on.
#[derive(Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> ParamSet {
        ParamSet::default()
    }

    /// Builds from a vector of parameters.
    pub fn from_vec(params: Vec<Param>) -> ParamSet {
        ParamSet { params }
    }

    /// Appends a parameter.
    pub fn push(&mut self, p: Param) {
        self.params.push(p);
    }

    /// Appends all parameters of another set.
    pub fn extend(&mut self, other: ParamSet) {
        self.params.extend(other.params);
    }

    /// Iterates over the parameters in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn total_scalars(&self) -> usize {
        self.params.iter().map(|p| p.numel()).sum()
    }

    /// Looks a parameter up by name.
    pub fn get(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// The parameter at registration index `idx` — the stable tensor id
    /// the fused optimizer plane and the fusion buckets address by.
    pub fn param(&self, idx: usize) -> &Param {
        &self.params[idx]
    }

    /// Zeroes every gradient.
    pub fn zero_grads(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Combined bitwise hash of all values (replica-consistency checks):
    /// an FNV-1a fold over the per-tensor `Param::value_hash`es in set
    /// order — `h = (h ^ value_hash) * 0x100_0000_01b3` from the offset
    /// basis `0xcbf2_9ce4_8422_2325` — so it is sensitive to the order of
    /// the parameters as well as to every bit of every value. The
    /// per-element work is all in [`Tensor::bit_hash`].
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in &self.params {
            h ^= p.value_hash();
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

impl std::fmt::Debug for ParamSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParamSet({} tensors, {} scalars)",
            self.len(),
            self.total_scalars()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shared_handle_sees_updates() {
        let p = Param::new("w", Tensor::from_vec([2], DType::F32, vec![1.0, 2.0]));
        let q = p.clone();
        p.apply_update(|v, _| v[0] = 10.0);
        assert_eq!(q.value().as_slice(), &[10.0, 2.0]);
    }

    #[test]
    fn grad_accumulates_and_zeroes() {
        let p = Param::new("w", Tensor::zeros([3], DType::F32));
        p.accumulate_grad(&Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]));
        p.accumulate_grad(&Tensor::from_vec([3], DType::F32, vec![1.0, 1.0, 1.0]));
        assert_eq!(p.grad().as_slice(), &[2.0, 3.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad().as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn paramset_lookup_and_totals() {
        let mut set = ParamSet::new();
        set.push(Param::new("a", Tensor::zeros([4], DType::F32)));
        set.push(Param::new("b", Tensor::zeros([2, 3], DType::F32)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_scalars(), 10);
        assert!(set.get("b").is_some());
        assert!(set.get("missing").is_none());
    }

    #[test]
    fn state_hash_tracks_any_param() {
        let mut set = ParamSet::new();
        set.push(Param::new("a", Tensor::zeros([4], DType::F32)));
        set.push(Param::new("b", Tensor::zeros([4], DType::F32)));
        let h0 = set.state_hash();
        set.get("b").unwrap().apply_update(|v, _| v[3] = 1.0);
        assert_ne!(h0, set.state_hash());
    }

    #[test]
    fn state_hash_is_the_ordered_fold_of_value_hashes() {
        let a = Param::new("a", Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]));
        let b = Param::new("b", Tensor::from_vec([2], DType::F32, vec![-4.0, 0.5]));
        let set_of = |ps: &[&Param]| {
            let mut set = ParamSet::new();
            ps.iter().for_each(|p| set.push((*p).clone()));
            set
        };
        let fold = |ps: &[&Param]| {
            ps.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
                (h ^ p.value_hash()).wrapping_mul(0x100_0000_01b3)
            })
        };
        assert_eq!(a.value_hash(), a.value().bit_hash());
        assert_eq!(set_of(&[&a, &b]).state_hash(), fold(&[&a, &b]));
        assert_eq!(set_of(&[]).state_hash(), 0xcbf2_9ce4_8422_2325);
        assert_ne!(
            set_of(&[&a, &b]).state_hash(),
            set_of(&[&b, &a]).state_hash(),
            "same tensors, different order"
        );
    }

    /// Installs a hook on `p` that counts its fires.
    fn counting_hook(p: &Param) -> Arc<AtomicUsize> {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        p.set_ready_hook(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        hits
    }

    #[test]
    fn ready_hooks_fire_and_clear() {
        let p = Param::new("w", Tensor::zeros([1], DType::F32));
        let q = p.clone();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s = seen.clone();
        // The hook reads the gradient it was fired for through the shared
        // handle: this would deadlock if it ran under the write lock.
        p.set_ready_hook(Arc::new(move || s.lock().push(q.grad().as_slice()[0])));
        p.accumulate_grad(&Tensor::from_vec([1], DType::F32, vec![2.5]));
        assert_eq!(*seen.lock(), vec![2.5]);
        p.clear_ready_hook();
        p.accumulate_grad(&Tensor::from_vec([1], DType::F32, vec![1.0]));
        assert_eq!(*seen.lock(), vec![2.5], "cleared hook stays silent");
        assert_eq!(p.grad().as_slice(), &[3.5]);
    }

    #[test]
    fn accumulate_grad_fires_once_per_call() {
        let mut set = ParamSet::new();
        set.push(Param::new("a", Tensor::zeros([2], DType::F32)));
        set.push(Param::new("b", Tensor::zeros([2], DType::F32)));
        let g = Tensor::from_vec([2], DType::F32, vec![1.0, 2.0]);
        // No hook installed: accumulating is all that happens.
        set.param(0).accumulate_grad(&g);
        let hits = counting_hook(set.param(0));
        let other = counting_hook(set.param(1));
        set.param(0).clone().accumulate_grad(&g);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        set.param(0).accumulate_grad(&g);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(set.param(0).grad().as_slice(), &[3.0, 6.0]);
        assert_eq!(other.load(Ordering::SeqCst), 0, "each parameter fires its own hook");
        // Zeroing or replacing a gradient is not a ready signal.
        set.zero_grads();
        set.param(1).set_grad(g.clone());
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(other.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn fp16_param_requantizes_after_update() {
        let p = Param::new("h", Tensor::zeros([1], DType::F16));
        p.apply_update(|v, _| v[0] = 2049.0);
        assert_eq!(p.value().as_slice(), &[2048.0]);
    }
}
