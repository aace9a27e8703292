//! Optimizers: SGD, Adam, LARC (§V-B2) and gradient lag (§V-B4).
//!
//! * **LARC** (layer-wise adaptive rate control) gives every parameter
//!   tensor its own learning rate, bounded by the ratio of the weight norm
//!   to the gradient norm. The paper uses it to keep very large global
//!   batches converging without LARS-style warm-up schedules.
//! * **Gradient lag** applies the gradients computed in the *previous* step,
//!   removing the top-layer all-reduce from the critical path ("lag 1" in
//!   Figure 4). It is implemented here as a wrapper over any optimizer so
//!   convergence comparisons (Figure 6: lag 0 ≈ lag 1) run on the real
//!   update rule.
//!
//! All optimizers divide incoming gradients by `grad_scale` (the FP16
//! loss-scaling compensation) before updating `f32` master weights.
//!
//! **The fused optimizer plane.** Every update is a single
//! read-modify-write sweep over the parameter (grad-scale ÷, weight
//! decay, momentum/moments, parameter write fused into one SIMD kernel —
//! [`simd::vsgd_update`] / [`simd::vadam_update`]), and the step is split
//! into [`Optimizer::begin_step`] (bind index-addressed state, advance
//! per-step scalars — runs *before* backward in overlap mode, so it must
//! not read gradients) followed by one [`Optimizer::apply`] per
//! parameter. Because each parameter's update touches only that
//! parameter's tensors and state slot, `apply` calls may run in any
//! order, from any thread, and in parallel — which is what lets the comm
//! engine apply a fusion bucket's updates on the progress thread the
//! moment the bucket's all-reduce lands, and the serial path spread the
//! step over the kernel pool ([`Optimizer::par_step`]). State buffers are
//! pool-backed `Vec<f32>`s addressed by the parameter's registration
//! index; names are captured once at bind time and consulted only by
//! `export_state`/`import_state`, so the hot path performs zero fresh
//! allocations and the serialized state layout is unchanged from the
//! legacy name-keyed representation.

use crate::param::ParamSet;
use exaclim_tensor::simd::{self, AdamCoeffs, SgdCoeffs};
use exaclim_tensor::{pool, profile, Tensor};
use rayon::prelude::*;

/// A serializable snapshot of an optimizer's internal state — momentum
/// velocities, Adam moments, gradient-lag queues — as named `f32`
/// vectors, **sorted by name** so the byte encoding is deterministic
/// regardless of internal storage order.
///
/// The snapshot travels two ways: as an optional section of an EXCK
/// checkpoint (warm restarts instead of cold optimizer state) and as a
/// broadcast payload when an elastic joiner must replicate a survivor's
/// exact state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptState {
    /// `(name, values)` pairs, sorted by name.
    pub entries: Vec<(String, Vec<f32>)>,
}

impl OptState {
    /// True when the snapshot carries no state (a stateless optimizer,
    /// or one that has not stepped yet).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&[f32]> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Adds an entry (callers sort once at the end via [`OptState::sort`]).
    pub fn push(&mut self, name: impl Into<String>, values: Vec<f32>) {
        self.entries.push((name.into(), values));
    }

    /// Sorts entries by name — required before encoding or comparing.
    pub fn sort(&mut self) {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Deterministic little-endian byte encoding:
    /// `count, then per entry: name_len, name, value_count, f32 values`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend((self.entries.len() as u32).to_le_bytes());
        for (name, values) in &self.entries {
            out.extend((name.len() as u32).to_le_bytes());
            out.extend(name.as_bytes());
            out.extend((values.len() as u32).to_le_bytes());
            for v in values {
                out.extend(v.to_le_bytes());
            }
        }
        out
    }

    /// Decodes [`OptState::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<OptState, String> {
        fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], String> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| "optimizer state truncated".to_string())?;
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        }
        fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
            let b = take(bytes, pos, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }
        let mut pos = 0usize;
        let count = take_u32(bytes, &mut pos)? as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let name_len = take_u32(bytes, &mut pos)? as usize;
            let name = String::from_utf8(take(bytes, &mut pos, name_len)?.to_vec())
                .map_err(|_| "optimizer state entry name is not UTF-8".to_string())?;
            let n_values = take_u32(bytes, &mut pos)? as usize;
            let raw = take(bytes, &mut pos, n_values.checked_mul(4).ok_or("entry too large")?)?;
            let values = raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            entries.push((name, values));
        }
        Ok(OptState { entries })
    }
}

/// A parameter-set optimizer, structured as `begin_step` + per-parameter
/// `apply` so updates can run for any subset of parameters, in any
/// order, from any thread — the contract the comm engine's bucket-apply
/// path and the thread-pool `par_step` both rely on.
pub trait Optimizer {
    /// Opens a step over `params`: binds index-addressed state buffers to
    /// the set's registration order and advances per-step scalars (Adam's
    /// bias correction, lag readiness, warm-up ramps). In fused-overlap
    /// mode this runs on the main thread *before* backward produces
    /// gradients, so implementations must not read gradient values here.
    fn begin_step(&mut self, params: &ParamSet);

    /// Applies the update for the parameter at registration index `id`
    /// (using the gradient currently stored in it) and zeroes its
    /// gradient. Must be called exactly once per parameter per begun
    /// step; calls for distinct `id`s are independent, so any order —
    /// and any thread — produces identical bits.
    fn apply(&mut self, params: &ParamSet, id: usize);

    /// Applies every parameter of an already-begun step, spreading the
    /// per-parameter updates over the kernel thread pool where the
    /// implementation supports it. Default: serial loop over [`Optimizer::apply`].
    fn apply_all_par(&mut self, params: &ParamSet) {
        for id in 0..params.len() {
            self.apply(params, id);
        }
    }

    /// Applies one update using the gradients currently stored in `params`
    /// and zeroes them afterwards: `begin_step` plus `apply` for every
    /// parameter in canonical (registration) order.
    fn step(&mut self, params: &ParamSet) {
        self.begin_step(params);
        for id in 0..params.len() {
            self.apply(params, id);
        }
    }

    /// [`Optimizer::step`], with the per-parameter applies spread over the
    /// kernel thread pool. Bit-identical to `step` because per-parameter
    /// updates are independent.
    fn par_step(&mut self, params: &ParamSet) {
        self.begin_step(params);
        self.apply_all_par(params);
    }

    /// Current global learning rate.
    fn lr(&self) -> f32;

    /// Sets the global learning rate (for schedules and batch-size scaling).
    fn set_lr(&mut self, lr: f32);

    /// Snapshots internal state (momenta, moments, lag queues) for
    /// checkpointing or replication. Stateless optimizers return an
    /// empty snapshot.
    fn export_state(&self) -> OptState {
        OptState::default()
    }

    /// Restores a snapshot produced by [`Optimizer::export_state`].
    /// Each implementation consumes the entries it recognizes and
    /// ignores the rest (so wrappers like `Lagged` can layer their
    /// entries over the inner optimizer's); recognized entries whose
    /// parameter is missing or mis-sized are an error. `params` supplies
    /// tensor shapes where state must be rebuilt as tensors.
    fn import_state(&mut self, state: &OptState, params: &ParamSet) -> Result<(), String> {
        let _ = (state, params);
        Ok(())
    }
}

/// Validates that a per-parameter state entry matches the live model.
fn check_entry(params: &ParamSet, pname: &str, values: &[f32], what: &str) -> Result<(), String> {
    let p = params
        .get(pname)
        .ok_or_else(|| format!("{what} names unknown parameter {pname}"))?;
    if p.numel() != values.len() {
        return Err(format!(
            "{what} for {pname} holds {} values but the parameter has {}",
            values.len(),
            p.numel()
        ));
    }
    Ok(())
}

/// Accounts one fused optimizer kernel with its true per-scalar traffic.
/// The category is set explicitly rather than via the global `Phase`:
/// bucket applies run on the comm progress thread concurrently with the
/// main thread's backward phase, and must not be mis-filed under it.
fn record_optim(name: &'static str, scalars: usize, flops: u64, read: u64, written: u64) {
    let n = scalars as u64;
    profile::record_raw(profile::KernelRecord {
        category: profile::Category::Optimizer,
        name,
        flops: flops * n,
        bytes_read: read * n,
        bytes_written: written * n,
    });
}

/// Accounts the LARC/LARS `‖w‖`/`‖g‖` norm pass over one parameter:
/// 2 flops per scalar per tensor (multiply + accumulate), both tensors
/// read, nothing written.
fn record_norms(name: &'static str, scalars: usize) {
    record_optim(name, scalars, 4, 8, 0);
}

/// The LARC gradient rescale for one tensor, expressed exactly as the
/// legacy two-pass code did: no rescale at all for an all-zero gradient,
/// and no rescale when the clipped ratio is within `f32::EPSILON` of 1.
fn larc_grad_mul(trust: f32, eps: f32, lr: f32, wd: f32, w_norm: f32, g_norm: f32) -> Option<f32> {
    if g_norm == 0.0 {
        return None;
    }
    let local = trust * w_norm / (g_norm + wd * w_norm + eps);
    let ratio = local.min(lr) / lr;
    if (ratio - 1.0).abs() > f32::EPSILON {
        Some(ratio)
    } else {
        None
    }
}

/// Stochastic gradient descent with momentum and weight decay.
pub struct Sgd {
    lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// FP16 loss-scale compensation divisor.
    pub grad_scale: f32,
    /// Pool-backed velocity buffers addressed by registration index.
    velocity: Vec<Vec<f32>>,
    /// Parameter names captured at bind time (export/import only).
    names: Vec<String>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Sgd {
        Sgd {
            lr,
            momentum: 0.9,
            weight_decay: 0.0,
            grad_scale: 1.0,
            velocity: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Rebuilds the index-addressed state for `params`, recycling the old
    /// buffers into the pool.
    fn rebind(&mut self, params: &ParamSet) {
        for v in self.velocity.drain(..) {
            pool::recycle(v);
        }
        self.names = params.iter().map(|p| p.name()).collect();
        self.velocity = params.iter().map(|p| pool::take_zeroed(p.numel())).collect();
    }

    fn bind(&mut self, params: &ParamSet) {
        if self.velocity.len() != params.len() {
            self.rebind(params);
        }
    }

    fn coeffs(&self) -> SgdCoeffs {
        SgdCoeffs {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            grad_scale: self.grad_scale,
            grad_mul: None,
        }
    }

    /// One fused update for parameter `id`, with an optional LARC/LARS
    /// gradient rescale folded into the pass.
    fn apply_with_mul(&mut self, params: &ParamSet, id: usize, grad_mul: Option<f32>) {
        let p = params.param(id);
        let k = SgdCoeffs { grad_mul, ..self.coeffs() };
        sgd_apply_one(p, &mut self.velocity[id], k);
    }
}

/// The shared fused-SGD body: one kernel pass, gradient zeroed, honest
/// census (7 flops and 12B read / 8B written per scalar, +1 flop for the
/// folded rescale).
fn sgd_apply_one(p: &crate::param::Param, v: &mut [f32], k: SgdCoeffs) {
    p.apply_update(|w, g| simd::vsgd_update(w, v, g, k));
    p.zero_grad();
    if k.grad_mul.is_some() {
        record_optim("sgd_fused_update_scaled", p.numel(), 8, 12, 8);
    } else {
        record_optim("sgd_fused_update", p.numel(), 7, 12, 8);
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self, params: &ParamSet) {
        self.bind(params);
    }

    fn apply(&mut self, params: &ParamSet, id: usize) {
        self.apply_with_mul(params, id, None);
    }

    fn apply_all_par(&mut self, params: &ParamSet) {
        let k = self.coeffs();
        self.velocity.par_chunks_mut(1).enumerate().for_each(|(id, slot)| {
            sgd_apply_one(params.param(id), &mut slot[0], k);
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptState {
        let mut out = OptState::default();
        for (name, v) in self.names.iter().zip(self.velocity.iter()) {
            out.push(format!("sgd.v:{name}"), v.clone());
        }
        out.sort();
        out
    }

    fn import_state(&mut self, state: &OptState, params: &ParamSet) -> Result<(), String> {
        self.rebind(params);
        for (name, values) in &state.entries {
            if let Some(pname) = name.strip_prefix("sgd.v:") {
                check_entry(params, pname, values, "SGD velocity")?;
                let id = self.names.iter().position(|n| n == pname).expect("bound from params");
                self.velocity[id].copy_from_slice(values);
            }
        }
        Ok(())
    }
}

/// One parameter's Adam state: first and second moment, pool-backed.
struct AdamSlot {
    m: Vec<f32>,
    v: Vec<f32>,
}

/// Adam (Kingma & Ba) — the optimizer the paper trains Tiramisu with.
pub struct Adam {
    lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// FP16 loss-scale compensation divisor.
    pub grad_scale: f32,
    t: u64,
    /// Bias corrections `1 − βᵗ`, advanced by `begin_step`.
    bias1: f32,
    bias2: f32,
    /// Pool-backed moment buffers addressed by registration index.
    moments: Vec<AdamSlot>,
    /// Parameter names captured at bind time (export/import only).
    names: Vec<String>,
}

impl Adam {
    /// Adam with standard betas.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_scale: 1.0,
            t: 0,
            bias1: 1.0,
            bias2: 1.0,
            moments: Vec::new(),
            names: Vec::new(),
        }
    }

    fn rebind(&mut self, params: &ParamSet) {
        for slot in self.moments.drain(..) {
            pool::recycle(slot.m);
            pool::recycle(slot.v);
        }
        self.names = params.iter().map(|p| p.name()).collect();
        self.moments = params
            .iter()
            .map(|p| AdamSlot {
                m: pool::take_zeroed(p.numel()),
                v: pool::take_zeroed(p.numel()),
            })
            .collect();
    }

    fn coeffs(&self) -> AdamCoeffs {
        AdamCoeffs {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            grad_scale: self.grad_scale,
            bias1: self.bias1,
            bias2: self.bias2,
        }
    }
}

/// The shared fused-Adam body: ~15 flops and 16B read / 12B written per
/// scalar, in one pass.
fn adam_apply_one(p: &crate::param::Param, slot: &mut AdamSlot, k: AdamCoeffs) {
    p.apply_update(|w, g| simd::vadam_update(w, &mut slot.m, &mut slot.v, g, k));
    p.zero_grad();
    record_optim("adam_fused_update", p.numel(), 15, 16, 12);
}

impl Optimizer for Adam {
    fn begin_step(&mut self, params: &ParamSet) {
        if self.moments.len() != params.len() {
            self.rebind(params);
        }
        self.t += 1;
        self.bias1 = 1.0 - self.beta1.powi(self.t as i32);
        self.bias2 = 1.0 - self.beta2.powi(self.t as i32);
    }

    fn apply(&mut self, params: &ParamSet, id: usize) {
        let k = self.coeffs();
        adam_apply_one(params.param(id), &mut self.moments[id], k);
    }

    fn apply_all_par(&mut self, params: &ParamSet) {
        let k = self.coeffs();
        self.moments.par_chunks_mut(1).enumerate().for_each(|(id, slot)| {
            adam_apply_one(params.param(id), &mut slot[0], k);
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptState {
        let mut out = OptState::default();
        out.push("adam.t", vec![self.t as f32]);
        for (name, slot) in self.names.iter().zip(self.moments.iter()) {
            out.push(format!("adam.m:{name}"), slot.m.clone());
            out.push(format!("adam.v:{name}"), slot.v.clone());
        }
        out.sort();
        out
    }

    fn import_state(&mut self, state: &OptState, params: &ParamSet) -> Result<(), String> {
        self.rebind(params);
        self.t = 0;
        for (name, values) in &state.entries {
            if name == "adam.t" {
                self.t = values.first().copied().unwrap_or(0.0) as u64;
            } else if let Some(pname) = name.strip_prefix("adam.m:") {
                check_entry(params, pname, values, "Adam first moment")?;
                let id = self.names.iter().position(|n| n == pname).expect("bound from params");
                self.moments[id].m.copy_from_slice(values);
            } else if let Some(pname) = name.strip_prefix("adam.v:") {
                check_entry(params, pname, values, "Adam second moment")?;
                let id = self.names.iter().position(|n| n == pname).expect("bound from params");
                self.moments[id].v.copy_from_slice(values);
            }
        }
        Ok(())
    }
}

/// LARC: SGD-momentum with a per-tensor *local* learning rate
///
/// `local_lr = trust · ‖w‖ / (‖g‖ + wd·‖w‖ + ε)`, clipped at the global
/// rate (`min(local_lr, lr)`). Unlike LARS, no warm-up schedule is needed —
/// the property the paper highlights in §V-B2.
///
/// Fused form: the norms ride the canonical lane-split
/// [`simd::sum_sq_f64`] reduction and the rescale is folded into the
/// single SGD update pass as `(g·ratio)/gs` — bit-identical to the
/// legacy separate `g.scale(ratio)` pass, which performed the same two
/// `f32` operations in the same order.
pub struct LarcSgd {
    inner: Sgd,
    /// Trust coefficient η (typically 1e-3…2e-2).
    pub trust: f32,
    /// Numerical fuzz in the local-rate denominator.
    pub eps: f32,
}

impl LarcSgd {
    /// LARC around SGD-momentum.
    pub fn new(lr: f32, trust: f32) -> LarcSgd {
        LarcSgd {
            inner: Sgd::new(lr),
            trust,
            eps: 1e-9,
        }
    }

    /// Mutable access to the wrapped SGD (momentum / weight-decay knobs).
    pub fn sgd_mut(&mut self) -> &mut Sgd {
        &mut self.inner
    }
}

/// Norms + fused rescaled update for one parameter under LARC.
fn larc_apply_one(
    p: &crate::param::Param,
    v: &mut [f32],
    k: SgdCoeffs,
    trust: f32,
    eps: f32,
) {
    let (w_norm, g_norm) = p.with(|w, g| (w.l2_norm(), g.l2_norm() / k.grad_scale));
    record_norms("larc_norms", p.numel());
    let grad_mul = larc_grad_mul(trust, eps, k.lr, k.weight_decay, w_norm, g_norm);
    sgd_apply_one(p, v, SgdCoeffs { grad_mul, ..k });
}

impl Optimizer for LarcSgd {
    fn begin_step(&mut self, params: &ParamSet) {
        self.inner.begin_step(params);
    }

    fn apply(&mut self, params: &ParamSet, id: usize) {
        let k = self.inner.coeffs();
        larc_apply_one(params.param(id), &mut self.inner.velocity[id], k, self.trust, self.eps);
    }

    fn apply_all_par(&mut self, params: &ParamSet) {
        let k = self.inner.coeffs();
        let (trust, eps) = (self.trust, self.eps);
        self.inner.velocity.par_chunks_mut(1).enumerate().for_each(|(id, slot)| {
            larc_apply_one(params.param(id), &mut slot[0], k, trust, eps);
        });
    }

    fn lr(&self) -> f32 {
        self.inner.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }

    fn export_state(&self) -> OptState {
        // Trust/eps are configuration; the only mutable state is the
        // wrapped SGD's momentum.
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &OptState, params: &ParamSet) -> Result<(), String> {
        self.inner.import_state(state, params)
    }
}

/// Gradient lag (§V-B4, the paper's "lag 1"): stores this step's
/// gradients and applies those computed one step earlier, so the final
/// layer's all-reduce overlaps later compute. The first step performs no
/// update.
pub struct Lagged<O: Optimizer> {
    inner: O,
    /// Per-parameter gradient held back one step, addressed by
    /// registration index.
    stash: Vec<Option<Tensor>>,
    /// Parameter names captured at bind time (export/import only).
    names: Vec<String>,
    seen_steps: usize,
    /// Whether the step opened by the last `begin_step` applies updates
    /// (a lagged gradient is available).
    ready: bool,
}

impl<O: Optimizer> Lagged<O> {
    /// Wraps an optimizer with lag-1 gradient application.
    pub fn new(inner: O) -> Lagged<O> {
        Lagged {
            inner,
            stash: Vec::new(),
            names: Vec::new(),
            seen_steps: 0,
            ready: false,
        }
    }

    /// True once a lagged gradient is available.
    #[cfg(test)]
    fn primed(&self) -> bool {
        self.seen_steps >= 1
    }

    fn bind(&mut self, params: &ParamSet) {
        if self.stash.len() != params.len() {
            self.names = params.iter().map(|p| p.name()).collect();
            self.stash = vec![None; params.len()];
        }
    }

    /// Stashes parameter `id`'s current gradient and, when primed,
    /// installs the one from the previous step for the inner update.
    fn rotate(&mut self, params: &ParamSet, id: usize) {
        let p = params.param(id);
        let old = self.stash[id].replace(p.grad());
        if self.ready {
            p.set_grad(old.expect("a primed lag holds last step's gradient"));
        }
    }
}

impl<O: Optimizer> Optimizer for Lagged<O> {
    fn begin_step(&mut self, params: &ParamSet) {
        self.bind(params);
        self.ready = self.seen_steps >= 1;
        self.seen_steps += 1;
        // The inner optimizer's step counters advance only when an update
        // will actually be applied (Adam's `t` must not tick on the
        // fill-in step).
        if self.ready {
            self.inner.begin_step(params);
        }
    }

    fn apply(&mut self, params: &ParamSet, id: usize) {
        self.rotate(params, id);
        if self.ready {
            self.inner.apply(params, id);
        } else {
            params.param(id).zero_grad();
        }
    }

    fn apply_all_par(&mut self, params: &ParamSet) {
        // Stash rotation is cheap pointer shuffling — serial; the inner
        // updates carry the arithmetic and parallelize.
        for id in 0..params.len() {
            self.rotate(params, id);
        }
        if self.ready {
            self.inner.apply_all_par(params);
        } else {
            params.zero_grads();
        }
    }

    fn lr(&self) -> f32 {
        self.inner.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }

    fn export_state(&self) -> OptState {
        let mut out = self.inner.export_state();
        out.push("lag.seen", vec![self.seen_steps as f32]);
        for (name, slot) in self.names.iter().zip(self.stash.iter()) {
            if let Some(t) = slot {
                out.push(format!("lag.q:{name}#0000"), t.as_slice().to_vec());
            }
        }
        out.sort();
        out
    }

    /// Restores the inner state and the held-back gradients. A parameter
    /// with any queue entry other than `#0000` comes from a deeper lag
    /// and is an error: resuming it here would either drop gradients or
    /// keep applying stale ones. So is a state that has stepped but holds
    /// no gradient for some parameter.
    fn import_state(&mut self, state: &OptState, params: &ParamSet) -> Result<(), String> {
        self.inner.import_state(state, params)?;
        self.names = params.iter().map(|p| p.name()).collect();
        self.stash = vec![None; params.len()];
        self.seen_steps = state
            .get("lag.seen")
            .and_then(|v| v.first().copied())
            .unwrap_or(0.0) as usize;
        for (name, values) in &state.entries {
            if let Some(rest) = name.strip_prefix("lag.q:") {
                let (pname, index) = rest
                    .rsplit_once('#')
                    .ok_or_else(|| format!("malformed lag-queue entry {name}"))?;
                if index != "0000" {
                    return Err(format!(
                        "lag-queue entry {name}: gradient lag is 1, so each parameter holds one \
                         gradient (#0000); this state comes from a deeper lag"
                    ));
                }
                check_entry(params, pname, values, "gradient-lag queue")?;
                let p = params.get(pname).expect("checked above");
                let shape = p.value().shape().clone();
                let dtype = p.with(|_, g| g.dtype());
                let id = self.names.iter().position(|n| n == pname).expect("bound from params");
                self.stash[id] = Some(Tensor::from_vec(shape, dtype, values.clone()));
            }
        }
        // A primed lag applies last step's gradient at the next step; a
        // parameter without one would have nothing to apply.
        if self.seen_steps >= 1 {
            if let Some(id) = self.stash.iter().position(Option::is_none) {
                return Err(format!("gradient-lag state has stepped but queues no gradient for {}", self.names[id]));
            }
        }
        Ok(())
    }
}

/// Linear-scaling rule for the learning rate: the paper scales its base
/// rate with GPU count (Figure 6 legends: LR 0.0001 at 384 GPUs →
/// 0.0064 at 1536 → 0.4096 at 6144, i.e. ∝ batch size beyond a base).
pub fn scale_lr_for_batch(base_lr: f32, base_batch: usize, global_batch: usize) -> f32 {
    base_lr * (global_batch as f32 / base_batch as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use exaclim_tensor::{DType, Tensor};

    /// LARS (You, Gitman & Ginsburg), the predecessor the paper replaced and
    /// the reference the LARC tests measure against (no trainer selects it):
    /// every tensor's update is `γ(t) · λ · (g + wd·w)` with the *unclipped*
    /// local rate `λ = trust·‖w‖ / (‖g‖ + wd·‖w‖)`. Because λ multiplies the
    /// global rate instead of being bounded by it, LARS needs the γ(t)
    /// warm-up ramp that §V-B2 says LARC "removes the need for".
    pub struct Lars {
        inner: Sgd,
        /// Trust coefficient.
        pub trust: f32,
        /// Linear warm-up length in steps (0 = no warm-up).
        pub warmup_steps: u32,
        step: u32,
        eps: f32,
        /// Warm-up factor for the step opened by the last `begin_step`.
        warm: f32,
    }

    impl Lars {
        /// LARS with the given base rate, trust coefficient and warm-up.
        pub fn new(lr: f32, trust: f32, warmup_steps: u32) -> Lars {
            Lars {
                inner: Sgd::new(lr),
                trust,
                warmup_steps,
                step: 0,
                eps: 1e-9,
                warm: 1.0,
            }
        }

        /// Mutable access to the wrapped SGD.
        pub fn sgd_mut(&mut self) -> &mut Sgd {
            &mut self.inner
        }

        fn warmup_factor(&self) -> f32 {
            if self.warmup_steps == 0 {
                1.0
            } else {
                ((self.step + 1) as f32 / self.warmup_steps as f32).min(1.0)
            }
        }
    }

    impl Optimizer for Lars {
        fn begin_step(&mut self, params: &ParamSet) {
            self.warm = self.warmup_factor();
            self.step += 1;
            self.inner.begin_step(params);
        }

        fn apply(&mut self, params: &ParamSet, id: usize) {
            let p = params.param(id);
            let gs = self.inner.grad_scale;
            let wd = self.inner.weight_decay;
            let (w_norm, g_norm) = p.with(|w, g| (w.l2_norm(), g.l2_norm() / gs));
            record_norms("lars_norms", p.numel());
            // Unclipped local rate times the warm-up ramp, folded into the
            // fused pass as a gradient rescale so the inner SGD's lr applies it.
            let grad_mul = if g_norm == 0.0 {
                None
            } else {
                let lambda = self.trust * w_norm / (g_norm + wd * w_norm + self.eps);
                Some(lambda * self.warm)
            };
            self.inner.apply_with_mul(params, id, grad_mul);
        }

        fn lr(&self) -> f32 {
            self.inner.lr()
        }

        fn set_lr(&mut self, lr: f32) {
            self.inner.set_lr(lr);
        }

        fn export_state(&self) -> OptState {
            let mut out = self.inner.export_state();
            out.push("lars.step", vec![self.step as f32]);
            out.sort();
            out
        }

        fn import_state(&mut self, state: &OptState, params: &ParamSet) -> Result<(), String> {
            self.inner.import_state(state, params)?;
            self.step = state
                .get("lars.step")
                .and_then(|v| v.first().copied())
                .unwrap_or(0.0) as u32;
            Ok(())
        }
    }

    fn quadratic_param(x0: f32) -> (ParamSet, Param) {
        let p = Param::new("x", Tensor::from_vec([1], DType::F32, vec![x0]));
        let mut set = ParamSet::new();
        set.push(p.clone());
        (set, p)
    }

    /// Minimize f(x) = x² with analytic grad 2x.
    fn run_steps(opt: &mut dyn Optimizer, set: &ParamSet, p: &Param, steps: usize) -> f32 {
        for _ in 0..steps {
            let x = p.value().as_slice()[0];
            p.set_grad(Tensor::from_vec([1], DType::F32, vec![2.0 * x]));
            opt.step(set);
        }
        p.value().as_slice()[0]
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let (set, p) = quadratic_param(5.0);
        let mut opt = Sgd::new(0.1);
        opt.momentum = 0.0;
        let x = run_steps(&mut opt, &set, &p, 60);
        assert!(x.abs() < 1e-4, "x = {x}");
    }

    #[test]
    fn momentum_accelerates() {
        let (set_a, pa) = quadratic_param(5.0);
        let mut plain = Sgd::new(0.02);
        plain.momentum = 0.0;
        let xa = run_steps(&mut plain, &set_a, &pa, 30).abs();
        let (set_b, pb) = quadratic_param(5.0);
        let mut mom = Sgd::new(0.02);
        mom.momentum = 0.9;
        let xb = run_steps(&mut mom, &set_b, &pb, 30).abs();
        assert!(xb < xa, "momentum should converge faster: {xb} vs {xa}");
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let (set, p) = quadratic_param(3.0);
        let mut opt = Adam::new(0.2);
        let x = run_steps(&mut opt, &set, &p, 200);
        assert!(x.abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn grad_scale_divides_out() {
        let (set_a, pa) = quadratic_param(1.0);
        let mut a = Sgd::new(0.1);
        a.momentum = 0.0;
        pa.set_grad(Tensor::from_vec([1], DType::F32, vec![2.0]));
        a.step(&set_a);

        let (set_b, pb) = quadratic_param(1.0);
        let mut b = Sgd::new(0.1);
        b.momentum = 0.0;
        b.grad_scale = 128.0;
        pb.set_grad(Tensor::from_vec([1], DType::F32, vec![2.0 * 128.0]));
        b.step(&set_b);

        assert_eq!(pa.value().as_slice(), pb.value().as_slice());
    }

    #[test]
    fn larc_caps_runaway_learning_rate() {
        // Gigantic gradient: plain SGD at lr 1.0 diverges immediately; LARC
        // bounds the step by trust·‖w‖/‖g‖.
        let (set, p) = quadratic_param(1.0);
        let mut opt = LarcSgd::new(1.0, 0.01);
        opt.sgd_mut().momentum = 0.0;
        p.set_grad(Tensor::from_vec([1], DType::F32, vec![1.0e6]));
        opt.step(&set);
        let x = p.value().as_slice()[0];
        // LARC step size = trust·‖w‖ = 0.01, independent of grad magnitude.
        assert!((x - 0.99).abs() < 1e-4, "x = {x}");
    }

    #[test]
    fn larc_reduces_to_sgd_for_small_gradients() {
        // When local_lr > lr the clip leaves the gradient untouched.
        let (set, p) = quadratic_param(10.0);
        let mut opt = LarcSgd::new(0.01, 1.0);
        opt.sgd_mut().momentum = 0.0;
        p.set_grad(Tensor::from_vec([1], DType::F32, vec![0.5]));
        opt.step(&set);
        let x = p.value().as_slice()[0];
        assert!((x - (10.0 - 0.01 * 0.5)).abs() < 1e-5, "x = {x}");
    }

    #[test]
    fn lagged_applies_previous_gradient() {
        let (set, p) = quadratic_param(1.0);
        let mut inner = Sgd::new(0.1);
        inner.momentum = 0.0;
        let mut opt = Lagged::new(inner);

        // Step 0: gradient g0 = 7; no update yet.
        p.set_grad(Tensor::from_vec([1], DType::F32, vec![7.0]));
        opt.step(&set);
        assert_eq!(p.value().as_slice(), &[1.0], "step 0 is a no-op");

        // Step 1: gradient g1 = 100; update must use g0 = 7.
        p.set_grad(Tensor::from_vec([1], DType::F32, vec![100.0]));
        opt.step(&set);
        let x = p.value().as_slice()[0];
        assert!((x - (1.0 - 0.1 * 7.0)).abs() < 1e-6, "x = {x}");

        // Step 2: gradient g2 = 0; update must use g1 = 100.
        p.set_grad(Tensor::from_vec([1], DType::F32, vec![0.0]));
        opt.step(&set);
        let x = p.value().as_slice()[0];
        assert!((x - (0.3 - 0.1 * 100.0)).abs() < 1e-4, "x = {x}");
    }

    #[test]
    fn lagged_still_converges_on_quadratic() {
        let (set, p) = quadratic_param(5.0);
        let mut inner = Sgd::new(0.05);
        inner.momentum = 0.0;
        let mut opt = Lagged::new(inner);
        let x = run_steps(&mut opt, &set, &p, 120);
        assert!(x.abs() < 1e-2, "lagged SGD converges: x = {x}");
    }

    #[test]
    fn larc_is_stable_where_unwarmed_lars_diverges() {
        // §V-B2: LARC clips the local rate at the global one; LARS
        // multiplies them. On f(x) = x² with an aggressive global rate,
        // LARS overshoots unboundedly while LARC converges.
        let run = |opt: &mut dyn Optimizer| {
            let (set, p) = quadratic_param(1.0);
            for _ in 0..40 {
                let x = p.value().as_slice()[0];
                if !x.is_finite() || x.abs() > 1e6 {
                    return f32::INFINITY;
                }
                p.set_grad(Tensor::from_vec([1], DType::F32, vec![2.0 * x]));
                opt.step(&set);
            }
            p.value().as_slice()[0].abs()
        };
        let mut lars = Lars::new(10.0, 0.5, 0);
        lars.sgd_mut().momentum = 0.0;
        let lars_x = run(&mut lars);
        let mut larc = LarcSgd::new(10.0, 0.5);
        larc.sgd_mut().momentum = 0.0;
        let larc_x = run(&mut larc);
        assert!(lars_x > 1.0e3 || lars_x.is_infinite(), "LARS at lr=10 diverges: {lars_x}");
        assert!(larc_x < 0.1, "LARC at lr=10 converges: {larc_x}");
    }

    #[test]
    fn lars_warmup_bounds_early_updates() {
        let first_step = |warmup: u32| {
            let (set, p) = quadratic_param(1.0);
            let mut lars = Lars::new(10.0, 0.5, warmup);
            lars.sgd_mut().momentum = 0.0;
            p.set_grad(Tensor::from_vec([1], DType::F32, vec![2.0]));
            lars.step(&set);
            (1.0 - p.value().as_slice()[0]).abs()
        };
        let cold = first_step(0);
        let warm = first_step(100);
        assert!(warm < cold * 0.05, "warm-up shrinks step 0: {warm} vs {cold}");
    }

    #[test]
    fn lr_scaling_matches_figure6_legends() {
        // 384 GPUs at LR 1e-4; 6144 GPUs = 16× more → 16× the rate of 1536.
        let lr_1536 = 0.0064f32;
        let lr_6144 = scale_lr_for_batch(lr_1536, 1536, 6144);
        assert!((lr_6144 - 0.0256).abs() < 1e-6);
        // The paper's own 0.4096 at 6144 reflects additional tuning beyond
        // linear scaling; the rule still reproduces the *direction*.
        assert!(lr_6144 > lr_1536);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let (set, p) = quadratic_param(1.0);
        let mut opt = Sgd::new(0.1);
        opt.momentum = 0.0;
        opt.weight_decay = 0.5;
        p.set_grad(Tensor::from_vec([1], DType::F32, vec![0.0]));
        opt.step(&set);
        assert!((p.value().as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn opt_state_bytes_roundtrip() {
        let mut s = OptState::default();
        s.push("sgd.v:b", vec![1.0, -2.5]);
        s.push("sgd.v:a", vec![0.25]);
        s.sort();
        assert_eq!(s.entries[0].0, "sgd.v:a", "entries sorted by name");
        let decoded = OptState::from_bytes(&s.to_bytes()).expect("decode");
        assert_eq!(decoded, s);
        assert_eq!(decoded.get("sgd.v:b"), Some([1.0f32, -2.5].as_slice()));
        // Truncated input is an error, not a panic.
        let bytes = s.to_bytes();
        assert!(OptState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn sgd_momentum_survives_export_import() {
        // Warm up momentum, snapshot, continue in two replicas — one live,
        // one rebuilt from the snapshot. Updates must match bitwise.
        let (set_a, pa) = quadratic_param(5.0);
        let mut a = Sgd::new(0.1);
        run_steps(&mut a, &set_a, &pa, 3);
        let snapshot = a.export_state();
        assert!(!snapshot.is_empty());

        let (set_b, pb) = quadratic_param(pa.value().as_slice()[0]);
        let mut b = Sgd::new(0.1);
        b.import_state(&snapshot, &set_b).expect("import");
        let xa = run_steps(&mut a, &set_a, &pa, 2);
        let xb = run_steps(&mut b, &set_b, &pb, 2);
        assert_eq!(xa.to_bits(), xb.to_bits(), "warm restore is exact");
    }

    #[test]
    fn adam_moments_survive_export_import() {
        let (set_a, pa) = quadratic_param(3.0);
        let mut a = Adam::new(0.2);
        run_steps(&mut a, &set_a, &pa, 4);
        let snapshot = a.export_state();
        assert!(snapshot.get("adam.t").is_some(), "step count persisted");

        let (set_b, pb) = quadratic_param(pa.value().as_slice()[0]);
        let mut b = Adam::new(0.2);
        b.import_state(&snapshot, &set_b).expect("import");
        let xa = run_steps(&mut a, &set_a, &pa, 3);
        let xb = run_steps(&mut b, &set_b, &pb, 3);
        assert_eq!(xa.to_bits(), xb.to_bits(), "bias correction continues from t");
    }

    #[test]
    fn lagged_queue_survives_export_import() {
        let (set_a, pa) = quadratic_param(1.0);
        let mut inner = Sgd::new(0.1);
        inner.momentum = 0.0;
        let mut a = Lagged::new(inner);
        // Queue a gradient without applying it, then snapshot.
        pa.set_grad(Tensor::from_vec([1], DType::F32, vec![7.0]));
        a.step(&set_a);
        let snapshot = a.export_state();
        assert!(snapshot.get("lag.seen").is_some());

        let (set_b, pb) = quadratic_param(1.0);
        let mut inner_b = Sgd::new(0.1);
        inner_b.momentum = 0.0;
        let mut b = Lagged::new(inner_b);
        b.import_state(&snapshot, &set_b).expect("import");
        assert!(b.primed(), "restored queue makes the optimizer primed");
        // The next step must apply the queued gradient (7.0), not the new one.
        pb.set_grad(Tensor::from_vec([1], DType::F32, vec![100.0]));
        b.step(&set_b);
        let x = pb.value().as_slice()[0];
        assert!((x - (1.0 - 0.1 * 7.0)).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn lagged_import_rejects_a_deeper_queue_and_round_trips_lag_one() {
        let (set_a, pa) = quadratic_param(1.0);
        let mut a = Lagged::new(Sgd::new(0.1));
        for g in [7.0f32, -3.0] {
            pa.set_grad(Tensor::from_vec([1], DType::F32, vec![g]));
            a.step(&set_a);
        }
        let snapshot = a.export_state();
        assert!(snapshot.get("lag.q:x#0000").is_some());

        // A lag-2 state queues two gradients per parameter.
        let mut deeper = snapshot.clone();
        deeper.push("lag.q:x#0001", vec![5.0]);
        deeper.sort();
        let (set_d, _) = quadratic_param(1.0);
        let err = Lagged::new(Sgd::new(0.1)).import_state(&deeper, &set_d).unwrap_err();
        assert!(err.contains("lag.q:x#0001"), "{err}");
        // A stepped state with no queued gradient has nothing to apply.
        let mut empty = snapshot.clone();
        empty.entries.retain(|(n, _)| !n.starts_with("lag.q:"));
        assert!(Lagged::new(Sgd::new(0.1)).import_state(&empty, &set_d).is_err());

        // Lag 1 round-trips: same state, same bits on the following steps.
        let (set_b, pb) = quadratic_param(pa.value().as_slice()[0]);
        let mut b = Lagged::new(Sgd::new(0.1));
        b.import_state(&snapshot, &set_b).expect("lag-1 state imports");
        assert_eq!(b.export_state(), snapshot);
        let xa = run_steps(&mut a, &set_a, &pa, 3);
        let xb = run_steps(&mut b, &set_b, &pb, 3);
        assert_eq!(xa.to_bits(), xb.to_bits());
    }

    #[test]
    fn import_rejects_mismatched_shapes() {
        let (set, _p) = quadratic_param(1.0);
        let mut opt = Sgd::new(0.1);
        let mut bad = OptState::default();
        bad.push("sgd.v:x", vec![0.0, 0.0]); // param "x" has 1 element
        assert!(opt.import_state(&bad, &set).is_err());
        let mut unknown = OptState::default();
        unknown.push("sgd.v:nope", vec![0.0]);
        assert!(opt.import_state(&unknown, &set).is_err());
        // Entries from other optimizers are ignored, not an error.
        let mut foreign = OptState::default();
        foreign.push("adam.t", vec![3.0]);
        assert!(opt.import_state(&foreign, &set).is_ok());
    }

    // ---- fused-plane contract tests -----------------------------------

    /// A small multi-tensor set with odd lengths (SIMD remainder lanes).
    fn toy_set(seed: u32) -> ParamSet {
        let mut set = ParamSet::new();
        for (i, n) in [37usize, 8, 129, 5].into_iter().enumerate() {
            let vals: Vec<f32> = (0..n)
                .map(|j| {
                    let k = (j as u32).wrapping_mul(2654435761).wrapping_add(seed + i as u32);
                    (k % 1000) as f32 * 0.0021 - 1.05
                })
                .collect();
            set.push(Param::new(format!("p{i}"), Tensor::from_vec([n], DType::F32, vals)));
        }
        set
    }

    fn seed_grads(set: &ParamSet, seed: u32) {
        for (i, p) in set.iter().enumerate() {
            let n = p.numel();
            let vals: Vec<f32> = (0..n)
                .map(|j| {
                    let k = (j as u32).wrapping_mul(0x9e3779b9).wrapping_add(seed * 31 + i as u32);
                    (k % 997) as f32 * 0.004 - 2.0
                })
                .collect();
            p.set_grad(Tensor::from_vec([n], DType::F32, vals));
        }
    }

    type Builder = fn() -> Box<dyn Optimizer>;

    fn builders() -> Vec<(&'static str, Builder)> {
        vec![
            ("sgd", || Box::new(Sgd::new(0.05))),
            ("adam", || Box::new(Adam::new(0.01))),
            ("larc", || {
                let mut o = LarcSgd::new(0.05, 0.01);
                o.sgd_mut().weight_decay = 1e-4;
                Box::new(o)
            }),
            ("lagged", || Box::new(Lagged::new(Sgd::new(0.05)))),
            ("lars", || Box::new(Lars::new(0.05, 0.5, 10))),
        ]
    }

    /// `par_step`, out-of-order `apply`, and serial `step` must produce
    /// identical bits — the order-invariance the bucket-apply path rests on.
    #[test]
    fn apply_order_and_parallelism_are_bit_invariant() {
        for (tag, build) in builders() {
            let runs: Vec<u64> = (0..3)
                .map(|mode| {
                    let set = toy_set(7);
                    let mut opt = build();
                    for s in 0..4u32 {
                        seed_grads(&set, s);
                        match mode {
                            0 => opt.step(&set),
                            1 => opt.par_step(&set),
                            _ => {
                                // Reversed apply order: buckets land back-to-front.
                                opt.begin_step(&set);
                                for id in (0..set.len()).rev() {
                                    opt.apply(&set, id);
                                }
                            }
                        }
                    }
                    set.state_hash()
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{tag}: par_step differs from step");
            assert_eq!(runs[0], runs[2], "{tag}: apply order changed the bits");
        }
    }

    /// Export/import round-trips bitwise across the serial and parallel
    /// execution modes — the "fused ↔ legacy layout" checkpoint crossing.
    #[test]
    fn state_crosses_step_modes_bitwise() {
        for (tag, build) in builders() {
            let set_a = toy_set(11);
            let mut a = build();
            for s in 0..3u32 {
                seed_grads(&set_a, s);
                a.step(&set_a);
            }
            let snapshot = a.export_state();

            // Continue serially...
            for s in 3..5u32 {
                seed_grads(&set_a, s);
                a.step(&set_a);
            }
            // ...and in a replica restored from the snapshot that continues
            // with parallel fused steps.
            let set_b = toy_set(11);
            let mut b = build();
            for s in 0..3u32 {
                seed_grads(&set_b, s);
                b.step(&set_b);
            }
            b.import_state(&snapshot, &set_b).expect("import");
            for s in 3..5u32 {
                seed_grads(&set_b, s);
                b.par_step(&set_b);
            }
            assert_eq!(set_a.state_hash(), set_b.state_hash(), "{tag}: mode crossing drifted");
        }
    }

    // The allocation pin (`steady_state_step_is_allocation_free`) lives in
    // `tests/optim_alloc.rs`: the pool counters are process-global, so it
    // needs a test binary to itself.
}
