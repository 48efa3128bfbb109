//! First-order optimizers with sparse-row support.
//!
//! The paper optimises embeddings with Adagrad and the controller with Adam
//! (Section V-A2). Embedding gradients are *row-sparse* — a minibatch
//! touches only the entity/relation rows it contains — so every optimizer
//! here exposes [`Optimizer::step_at`], which updates a contiguous slice of
//! the parameter buffer at a given offset, keeping per-parameter state
//! aligned with the full buffer.

use std::marker::PhantomData;

/// Common interface: stateful update of `params[offset .. offset+grad.len()]`
/// given the gradient of that slice.
pub trait Optimizer {
    /// Apply one update to a slice of the parameter buffer. The optimizer's
    /// internal state buffer must have been sized for the full parameter
    /// buffer (`state_len`).
    fn step_at(&mut self, params: &mut [f32], offset: usize, grad: &[f32]);

    /// Dense step over the whole buffer.
    fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len());
        self.step_at(params, 0, grad);
    }

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    l2: f32,
}

impl Sgd {
    /// Create with learning rate `lr` and decoupled L2 penalty `l2`.
    pub fn new(lr: f32, l2: f32) -> Self {
        Sgd { lr, l2 }
    }
}

impl Optimizer for Sgd {
    fn step_at(&mut self, params: &mut [f32], offset: usize, grad: &[f32]) {
        let p = &mut params[offset..offset + grad.len()];
        for (pi, gi) in p.iter_mut().zip(grad) {
            *pi -= self.lr * (gi + self.l2 * *pi);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adagrad (Duchi et al., 2011) — the paper's embedding optimizer.
#[derive(Debug, Clone)]
pub struct Adagrad {
    lr: f32,
    l2: f32,
    eps: f32,
    accum: Vec<f32>,
}

impl Adagrad {
    /// Create for a parameter buffer of `state_len` values.
    pub fn new(state_len: usize, lr: f32, l2: f32) -> Self {
        Adagrad {
            lr,
            l2,
            eps: 1e-10,
            accum: vec![0.0; state_len],
        }
    }

    /// The per-parameter squared-gradient accumulator, for
    /// checkpointing.
    pub fn accumulator(&self) -> &[f32] {
        &self.accum
    }

    /// Rebuild an optimizer from a checkpointed accumulator. Together
    /// with the learning rate this is the optimizer's entire state, so
    /// a restored Adagrad continues bit-identically.
    pub fn from_accumulator(lr: f32, l2: f32, accum: Vec<f32>) -> Self {
        Adagrad {
            lr,
            l2,
            eps: 1e-10,
            accum,
        }
    }

    /// Split `params` and this optimizer's state into disjoint ranges
    /// of `span` values each (range `k` covers `k·span ..`), so that
    /// rows in different ranges can be updated from different threads
    /// at once. Each range updates exactly as [`Optimizer::step_at`]
    /// would, with the same checks.
    pub fn ranges<'a>(&'a mut self, params: &'a mut [f32], span: usize) -> AdagradRanges<'a> {
        AdagradRanges {
            lr: self.lr,
            l2: self.l2,
            eps: self.eps,
            params: params.as_mut_ptr(),
            params_len: params.len(),
            accum: self.accum.as_mut_ptr(),
            accum_len: self.accum.len(),
            span: span.max(1),
            _borrow: PhantomData,
        }
    }
}

/// One Adagrad update of `p` (with its state `a`) by `grad`; the single
/// definition every entry point shares, so they agree bit for bit.
fn adagrad_update(lr: f32, l2: f32, eps: f32, p: &mut [f32], a: &mut [f32], grad: &[f32]) {
    for i in 0..grad.len() {
        let g = grad[i] + l2 * p[i];
        a[i] += g * g;
        p[i] -= lr * g / (a[i].sqrt() + eps);
    }
}

impl Optimizer for Adagrad {
    fn step_at(&mut self, params: &mut [f32], offset: usize, grad: &[f32]) {
        assert!(
            offset + grad.len() <= self.accum.len(),
            "optimizer state too small"
        );
        let p = &mut params[offset..offset + grad.len()];
        let a = &mut self.accum[offset..offset + grad.len()];
        adagrad_update(self.lr, self.l2, self.eps, p, a, grad);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// A parameter table and its [`Adagrad`] state, split into disjoint
/// ranges of `span` values (see [`Adagrad::ranges`]). Shared between
/// threads; each thread takes the ranges it owns with
/// [`AdagradRanges::range`].
pub struct AdagradRanges<'a> {
    lr: f32,
    l2: f32,
    eps: f32,
    params: *mut f32,
    params_len: usize,
    accum: *mut f32,
    accum_len: usize,
    span: usize,
    /// Both buffers stay mutably borrowed for `'a`.
    _borrow: PhantomData<&'a mut [f32]>,
}

// SAFETY: the handle only hands out `&mut` views through the unsafe
// `range`, whose contract makes views of one range exclusive; views of
// distinct ranges cover disjoint values of buffers borrowed for `'a`.
// audit:allow(W406): disjoint per-range views, exclusivity is `range`'s contract
unsafe impl Sync for AdagradRanges<'_> {}

impl AdagradRanges<'_> {
    /// The update view of range `k`: values `k·span .. (k+1)·span` of
    /// the table, clamped to the buffers.
    ///
    /// # Safety
    ///
    /// At most one view of a given `k` may be live at a time.
    // SAFETY: sound under that contract — views of distinct `k` cover
    // disjoint values of the borrowed buffers.
    pub unsafe fn range(&self, k: usize) -> AdagradRange<'_> {
        let base = k.saturating_mul(self.span);
        let end = base.saturating_add(self.span);
        let (p_lo, p_hi) = (base.min(self.params_len), end.min(self.params_len));
        let (a_lo, a_hi) = (base.min(self.accum_len), end.min(self.accum_len));
        // SAFETY: both ranges lie inside their buffers, which `ranges`
        // borrowed mutably for the handle's lifetime; views of distinct
        // `k` are disjoint, and the caller keeps views of one `k`
        // exclusive.
        let (params, accum) = unsafe {
            (
                std::slice::from_raw_parts_mut(self.params.add(p_lo), p_hi - p_lo),
                std::slice::from_raw_parts_mut(self.accum.add(a_lo), a_hi - a_lo),
            )
        };
        AdagradRange {
            lr: self.lr,
            l2: self.l2,
            eps: self.eps,
            base,
            accum_len: self.accum_len,
            params,
            accum,
        }
    }
}

/// One range of an [`AdagradRanges`] split.
pub struct AdagradRange<'a> {
    lr: f32,
    l2: f32,
    eps: f32,
    /// Table offset of `params[0]`.
    base: usize,
    /// Length of the whole optimizer state.
    accum_len: usize,
    params: &'a mut [f32],
    accum: &'a mut [f32],
}

impl AdagradRange<'_> {
    /// [`Optimizer::step_at`] for a slice inside this range: `offset`
    /// indexes the whole table. Panics like `step_at` when the state is
    /// too small, and when the slice leaves the range.
    pub fn step_at(&mut self, offset: usize, grad: &[f32]) {
        assert!(
            offset + grad.len() <= self.accum_len,
            "optimizer state too small"
        );
        assert!(
            offset >= self.base && offset + grad.len() <= self.base + self.params.len(),
            "row outside this optimizer range"
        );
        let at = offset - self.base;
        let p = &mut self.params[at..at + grad.len()];
        let a = &mut self.accum[at..at + grad.len()];
        adagrad_update(self.lr, self.l2, self.eps, p, a, grad);
    }
}

/// Adam (Kingma & Ba, 2014) — the paper's controller optimizer.
///
/// Bias correction uses a *per-slot* step count so sparse updates stay
/// correctly corrected: a row updated for the first time at epoch 100 is
/// treated as being at its own step 1.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    l2: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: Vec<u32>,
}

impl Adam {
    /// Create for a parameter buffer of `state_len` values with default
    /// betas (0.9, 0.999).
    pub fn new(state_len: usize, lr: f32, l2: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            l2,
            m: vec![0.0; state_len],
            v: vec![0.0; state_len],
            t: vec![0; state_len],
        }
    }
}

impl Optimizer for Adam {
    fn step_at(&mut self, params: &mut [f32], offset: usize, grad: &[f32]) {
        assert!(
            offset + grad.len() <= self.m.len(),
            "optimizer state too small"
        );
        let p = &mut params[offset..offset + grad.len()];
        for i in 0..grad.len() {
            let gi = grad[i] + self.l2 * p[i];
            let j = offset + i;
            self.t[j] += 1;
            let t = self.t[j] as f32;
            self.m[j] = self.beta1 * self.m[j] + (1.0 - self.beta1) * gi;
            self.v[j] = self.beta2 * self.v[j] + (1.0 - self.beta2) * gi * gi;
            let m_hat = self.m[j] / (1.0 - self.beta1.powf(t));
            let v_hat = self.v[j] / (1.0 - self.beta2.powf(t));
            p[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All three optimizers must drive a convex quadratic to its minimum.
    fn converges<O: Optimizer>(mut opt: O, tol: f32) -> f32 {
        // f(x) = 0.5 * Σ (x_i - target_i)^2
        let target = [3.0f32, -2.0, 0.5, 1.5];
        let mut x = [0.0f32; 4];
        for _ in 0..2000 {
            let grad: Vec<f32> = x.iter().zip(&target).map(|(xi, ti)| xi - ti).collect();
            opt.step(&mut x, &grad);
        }
        let err: f32 = x
            .iter()
            .zip(&target)
            .map(|(xi, ti)| (xi - ti).abs())
            .fold(0.0, f32::max);
        assert!(err < tol, "max err {err}");
        err
    }

    #[test]
    fn sgd_converges() {
        converges(Sgd::new(0.1, 0.0), 1e-3);
    }

    #[test]
    fn adagrad_converges() {
        converges(Adagrad::new(4, 0.5, 0.0), 1e-2);
    }

    #[test]
    fn adam_converges() {
        converges(Adam::new(4, 0.05, 0.0), 1e-2);
    }

    #[test]
    fn l2_shrinks_weights() {
        let mut opt = Sgd::new(0.1, 0.5);
        let mut x = [1.0f32];
        for _ in 0..100 {
            opt.step(&mut x, &[0.0]); // zero gradient: only decay acts
        }
        assert!(x[0].abs() < 0.01, "weight decay failed: {}", x[0]);
    }

    #[test]
    fn sparse_updates_do_not_touch_other_slots() {
        let mut opt = Adagrad::new(6, 0.1, 0.0);
        let mut params = vec![1.0f32; 6];
        opt.step_at(&mut params, 2, &[1.0, 1.0]);
        assert_eq!(params[0], 1.0);
        assert_eq!(params[1], 1.0);
        assert!(params[2] < 1.0);
        assert!(params[3] < 1.0);
        assert_eq!(params[4], 1.0);
        assert_eq!(params[5], 1.0);
    }

    #[test]
    fn adam_sparse_bias_correction_is_per_slot() {
        let mut opt = Adam::new(2, 0.1, 0.0);
        let mut params = vec![0.0f32; 2];
        // Update slot 0 many times.
        for _ in 0..50 {
            opt.step_at(&mut params, 0, &[1.0]);
        }
        let p0_after_50 = params[0];
        // First update of slot 1 should have the same magnitude as slot 0's
        // first update did (fresh bias correction), i.e. ≈ lr.
        opt.step_at(&mut params, 1, &[1.0]);
        assert!(
            (params[1] + 0.1).abs() < 1e-3,
            "first Adam step ≈ -lr, got {}",
            params[1]
        );
        assert!(p0_after_50 < params[1]);
    }

    #[test]
    fn ranges_update_like_step_at() {
        let grads: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut whole = Adagrad::new(10, 0.1, 1e-3);
        let mut split = whole.clone();
        let mut p_whole: Vec<f32> = (0..10).map(|i| i as f32 * 0.1 - 0.4).collect();
        let mut p_split = p_whole.clone();
        for _ in 0..3 {
            for row in 0..5 {
                whole.step_at(&mut p_whole, row * 2, &grads[row * 2..row * 2 + 2]);
            }
            let ranges = split.ranges(&mut p_split, 4);
            for k in 0..3 {
                // SAFETY: one view per range at a time.
                let mut view = unsafe { ranges.range(k) };
                for row in (2 * k..2 * k + 2).filter(|&r| r < 5) {
                    view.step_at(row * 2, &grads[row * 2..row * 2 + 2]);
                }
            }
        }
        assert_eq!(p_whole, p_split);
        assert_eq!(whole.accumulator(), split.accumulator());
    }

    #[test]
    #[should_panic(expected = "row outside this optimizer range")]
    fn range_rejects_rows_of_another_range() {
        let mut opt = Adagrad::new(8, 0.1, 0.0);
        let mut params = vec![0.0f32; 8];
        let ranges = opt.ranges(&mut params, 4);
        // SAFETY: the only view.
        let mut view = unsafe { ranges.range(0) };
        view.step_at(3, &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "optimizer state too small")]
    fn range_keeps_the_state_size_check() {
        let mut opt = Adagrad::new(4, 0.1, 0.0);
        let mut params = vec![0.0f32; 8];
        let ranges = opt.ranges(&mut params, 8);
        // SAFETY: the only view.
        let mut view = unsafe { ranges.range(0) };
        view.step_at(4, &[1.0, 1.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = Adagrad::new(1, 0.3, 0.0);
        assert_eq!(o.learning_rate(), 0.3);
        o.set_learning_rate(0.1);
        assert_eq!(o.learning_rate(), 0.1);
    }
}
