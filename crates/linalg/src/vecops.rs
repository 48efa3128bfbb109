//! Fused vector kernels used by every scoring function and gradient.
//!
//! All slices are `f32`; callers guarantee equal lengths (checked with
//! `debug_assert!` so release builds stay branch-free in the hot loops).
//!
//! ## Vectorization policy
//!
//! Every kernel is written as explicit [`LANES`]-wide chunks over
//! `chunks_exact` with a scalar remainder — the shape the
//! autovectoriser reliably turns into packed mul/add under
//! `-C target-cpu=native` (no nightly `std::simd`, no intrinsics, no
//! `unsafe`). Two classes of kernel follow from that:
//!
//! - **Elementwise** kernels (`axpy`, `scaled_copy`, `scale`,
//!   `hadamard`, `hadamard_axpy`): chunking never reassociates any
//!   float op, so their results are bit-identical to the scalar loop
//!   by construction.
//! - **Reduction** kernels (`dot`, `dot4`, `triple_dot`, `dist_sq`,
//!   `dist_l1`): the [`LANES`] independent accumulators reassociate the
//!   sum, so the result differs from the scalar reference by rounding.
//!   The accumulation order is a pure function of the slice length and
//!   the fixed lane-combine tree, so for a given `LANES` the bits are
//!   pinned — `crates/linalg/tests/kernel_equivalence.rs` asserts the
//!   golden bit patterns and the max-ulp distance to the reference.
//!
//! The [`mod@reference`] module holds the scalar forms. Building with the
//! `scalar-kernels` feature routes every public kernel through them,
//! which keeps the whole workspace runnable (and its agreement tests
//! meaningful) on the pure-scalar path.

/// Number of `f32` lanes per chunk in the vectorized kernels.
///
/// Eight lanes is one AVX2 register (half an AVX-512 register); the
/// reduction kernels' bit patterns are pinned to this width by the
/// lane-combine tree, so changing it is a numeric change that must
/// re-pin the golden tests in `kernel_equivalence.rs`.
pub const LANES: usize = 8;

/// Whether the public kernels run the scalar [`mod@reference`] forms
/// (the `scalar-kernels` feature). Reductions round differently on the
/// two paths, so a result pinned bit for bit downstream pins one value
/// per path.
pub const SCALAR_KERNELS: bool = cfg!(feature = "scalar-kernels");

/// The fixed lane-combine tree shared by every reduction kernel:
/// `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`. Deterministic for a given
/// [`LANES`]; all laned reductions fold through this exact shape so
/// their results depend only on input length, never on the caller.
// audit:allow(E701): indices 0..8 into a fixed [f32; LANES] array with
// LANES = 8; every access is a compile-time constant below the length
#[cfg(not(feature = "scalar-kernels"))]
#[inline]
fn lane_combine(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Scalar reference kernels: the one-accumulator, one-element-at-a-time
/// forms. Always compiled (the equivalence tests and the kernel
/// microbenchmark compare against them); with the `scalar-kernels`
/// feature the public kernels below delegate here.
pub mod reference {
    /// Scalar dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    /// Scalar triple dot product.
    pub fn triple_dot(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), c.len());
        let mut acc = 0.0f32;
        for i in 0..a.len() {
            acc += a[i] * b[i] * c[i];
        }
        acc
    }

    /// Scalar `y += alpha * x`.
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Scalar `out = alpha * x`.
    pub fn scaled_copy(alpha: f32, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        for (o, xi) in out.iter_mut().zip(x) {
            *o = alpha * xi;
        }
    }

    /// Scalar `out += alpha * (a ⊙ b)`.
    // audit:allow(E701): i < a.len() from the loop bound; equal lengths
    // are the kernel contract, debug-asserted above the loop
    pub fn hadamard_axpy(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), out.len());
        for i in 0..a.len() {
            out[i] += alpha * a[i] * b[i];
        }
    }

    /// Scalar `out = a ⊙ b`.
    pub fn hadamard(a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), out.len());
        for i in 0..a.len() {
            out[i] = a[i] * b[i];
        }
    }

    /// Scalar `x *= alpha`.
    pub fn scale(alpha: f32, x: &mut [f32]) {
        for xi in x {
            *xi *= alpha;
        }
    }

    /// Scalar squared Euclidean distance.
    pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for i in 0..a.len() {
            let d = a[i] - b[i];
            acc += d * d;
        }
        acc
    }

    /// Scalar L1 distance.
    pub fn dist_l1(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }
}

/// Dot product `Σ aᵢ bᵢ`.
///
/// Eight independent accumulator lanes: a single-accumulator loop
/// serialises on the add dependency chain and cannot vectorise, which
/// made this the slowest kernel per flop in the training hot path
/// (`Matrix::matvec` is a row of dots). The lane shape matches what the
/// autovectoriser turns into packed mul/add; the fixed lane-combine
/// tree keeps the result deterministic for a given slice length.
// audit:allow(E701): lane index k < LANES over chunks_exact(LANES)
// chunks and a LANES-wide accumulator — every index is statically in
// bounds
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::dot(a, b)
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut acc = [0.0f32; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (x, y) in (&mut ca).zip(&mut cb) {
            for k in 0..LANES {
                acc[k] += x[k] * y[k];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += x * y;
        }
        lane_combine(acc) + tail
    }
}

/// Four dot products against one shared left operand, in a single pass:
/// `[⟨x, y0⟩, ⟨x, y1⟩, ⟨x, y2⟩, ⟨x, y3⟩]`.
///
/// The register tile behind the blocked [`crate::Matrix::matvec`]:
/// each chunk of `x` is loaded once and reused across four accumulator
/// sets, quartering the dominant memory traffic of a table sweep. Per
/// output, the multiply/accumulate sequence and lane-combine tree are
/// exactly those of [`dot`], so `dot4(x, a, b, c, d)[i]` is
/// bit-identical to `dot(x, yᵢ)` — the invariant the serve/eval
/// agreement tests lean on. (The fused entity-table scan,
/// [`crate::scan`], keeps the same per-output order in a transposed
/// eight-query tile instead.)
// audit:allow(E701): all indexing is lane index k < LANES over
// chunks_exact(LANES) chunks of equal-length slices (debug-asserted),
// statically in bounds
#[inline]
pub fn dot4(x: &[f32], y0: &[f32], y1: &[f32], y2: &[f32], y3: &[f32]) -> [f32; 4] {
    debug_assert_eq!(x.len(), y0.len());
    debug_assert_eq!(x.len(), y1.len());
    debug_assert_eq!(x.len(), y2.len());
    debug_assert_eq!(x.len(), y3.len());
    #[cfg(feature = "scalar-kernels")]
    {
        [
            reference::dot(x, y0),
            reference::dot(x, y1),
            reference::dot(x, y2),
            reference::dot(x, y3),
        ]
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut a0 = [0.0f32; LANES];
        let mut a1 = [0.0f32; LANES];
        let mut a2 = [0.0f32; LANES];
        let mut a3 = [0.0f32; LANES];
        let n = x.len();
        let whole = n - n % LANES;
        let mut base = 0;
        while base < whole {
            let xv = &x[base..base + LANES];
            let v0 = &y0[base..base + LANES];
            let v1 = &y1[base..base + LANES];
            let v2 = &y2[base..base + LANES];
            let v3 = &y3[base..base + LANES];
            for k in 0..LANES {
                a0[k] += xv[k] * v0[k];
                a1[k] += xv[k] * v1[k];
                a2[k] += xv[k] * v2[k];
                a3[k] += xv[k] * v3[k];
            }
            base += LANES;
        }
        let mut t = [0.0f32; 4];
        for i in whole..n {
            t[0] += x[i] * y0[i];
            t[1] += x[i] * y1[i];
            t[2] += x[i] * y2[i];
            t[3] += x[i] * y3[i];
        }
        [
            lane_combine(a0) + t[0],
            lane_combine(a1) + t[1],
            lane_combine(a2) + t[2],
            lane_combine(a3) + t[3],
        ]
    }
}

/// Triple dot product `⟨a, b, c⟩ = Σ aᵢ bᵢ cᵢ` — the *multiplicative item* of
/// the AutoSF/ERAS search space (Table II of the paper).
// audit:allow(E701): lane index k < LANES over chunks_exact(LANES)
// chunks; remainder indices i in whole..n are within every slice
#[inline]
pub fn triple_dot(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::triple_dot(a, b, c)
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut acc = [0.0f32; LANES];
        let n = a.len();
        let whole = n - n % LANES;
        let mut base = 0;
        while base < whole {
            let (x, y, z) = (
                &a[base..base + LANES],
                &b[base..base + LANES],
                &c[base..base + LANES],
            );
            for k in 0..LANES {
                acc[k] += x[k] * y[k] * z[k];
            }
            base += LANES;
        }
        let mut tail = 0.0f32;
        for i in whole..n {
            tail += a[i] * b[i] * c[i];
        }
        lane_combine(acc) + tail
    }
}

/// `y += alpha * x`. Elementwise — chunking is a pure unroll, so the
/// result is bit-identical to the scalar reference for every input.
// audit:allow(E701): lane index k < LANES over paired
// chunks_exact(LANES) chunks — statically in bounds
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::axpy(alpha, x, y);
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut cy = y.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (yv, xv) in (&mut cy).zip(&mut cx) {
            for k in 0..LANES {
                yv[k] += alpha * xv[k];
            }
        }
        for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
            *yi += alpha * xi;
        }
    }
}

/// `out = alpha * x` — the dense per-row gradient fill
/// (`row_grad = resid · q`) of the 1-vs-all update, hoisted into a
/// kernel. Elementwise, bit-identical to the scalar form.
// audit:allow(E701): lane index k < LANES over paired
// chunks_exact(LANES) chunks — statically in bounds
#[inline]
pub fn scaled_copy(alpha: f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::scaled_copy(alpha, x, out);
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut co = out.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (ov, xv) in (&mut co).zip(&mut cx) {
            for k in 0..LANES {
                ov[k] = alpha * xv[k];
            }
        }
        for (o, xi) in co.into_remainder().iter_mut().zip(cx.remainder()) {
            *o = alpha * xi;
        }
    }
}

/// `out += alpha * (a ⊙ b)` — fused Hadamard-accumulate; the core of the
/// 1-vs-all query-vector construction (`q_j += sign · h_i ⊙ r_blk`) and
/// of the rank-1 outer-product accumulation the trainers defer
/// (`G[c, :] += resid_c · q` row by row). Elementwise, bit-identical to
/// the scalar form.
// audit:allow(E701): equal-length slices are the documented contract
// (debug-asserted); lane index k < LANES over chunks_exact chunks
#[inline]
pub fn hadamard_axpy(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::hadamard_axpy(alpha, a, b, out);
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut co = out.chunks_exact_mut(LANES);
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for ((ov, av), bv) in (&mut co).zip(&mut ca).zip(&mut cb) {
            for k in 0..LANES {
                ov[k] += alpha * av[k] * bv[k];
            }
        }
        for ((o, x), y) in co
            .into_remainder()
            .iter_mut()
            .zip(ca.remainder())
            .zip(cb.remainder())
        {
            *o += alpha * x * y;
        }
    }
}

/// Element-wise product `out = a ⊙ b`. Elementwise, bit-identical to
/// the scalar form.
// audit:allow(E701): lane index k < LANES over paired
// chunks_exact(LANES) chunks — statically in bounds
#[inline]
pub fn hadamard(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::hadamard(a, b, out);
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut co = out.chunks_exact_mut(LANES);
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for ((ov, av), bv) in (&mut co).zip(&mut ca).zip(&mut cb) {
            for k in 0..LANES {
                ov[k] = av[k] * bv[k];
            }
        }
        for ((o, x), y) in co
            .into_remainder()
            .iter_mut()
            .zip(ca.remainder())
            .zip(cb.remainder())
        {
            *o = x * y;
        }
    }
}

/// `x *= alpha`. Elementwise, bit-identical to the scalar form.
// audit:allow(E701): lane index k < LANES over chunks_exact_mut(LANES)
// chunks — statically in bounds
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    #[cfg(feature = "scalar-kernels")]
    {
        reference::scale(alpha, x);
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut cx = x.chunks_exact_mut(LANES);
        for xv in &mut cx {
            for k in 0..LANES {
                xv[k] *= alpha;
            }
        }
        for xi in cx.into_remainder() {
            *xi *= alpha;
        }
    }
}

/// Squared Euclidean norm.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// Euclidean norm.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    norm_sq(x).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²` (EM clustering objective, Eq. 5).
// audit:allow(E701): lane index k < LANES over chunks_exact(LANES)
// chunks; remainder indices i in whole..n are within both slices
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::dist_sq(a, b)
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut acc = [0.0f32; LANES];
        let n = a.len();
        let whole = n - n % LANES;
        let mut base = 0;
        while base < whole {
            let (x, y) = (&a[base..base + LANES], &b[base..base + LANES]);
            for k in 0..LANES {
                let d = x[k] - y[k];
                acc[k] += d * d;
            }
            base += LANES;
        }
        let mut tail = 0.0f32;
        for i in whole..n {
            let d = a[i] - b[i];
            tail += d * d;
        }
        lane_combine(acc) + tail
    }
}

/// L1 distance `Σ |aᵢ − bᵢ|` (TransE with L1 norm).
// audit:allow(E701): lane index k < LANES over chunks_exact(LANES)
// chunks; remainder indices i in whole..n are within both slices
#[inline]
pub fn dist_l1(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(feature = "scalar-kernels")]
    {
        reference::dist_l1(a, b)
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        let mut acc = [0.0f32; LANES];
        let n = a.len();
        let whole = n - n % LANES;
        let mut base = 0;
        while base < whole {
            let (x, y) = (&a[base..base + LANES], &b[base..base + LANES]);
            for k in 0..LANES {
                acc[k] += (x[k] - y[k]).abs();
            }
            base += LANES;
        }
        let mut tail = 0.0f32;
        for i in whole..n {
            tail += (a[i] - b[i]).abs();
        }
        lane_combine(acc) + tail
    }
}

/// Index of the maximum element; ties resolve to the first occurrence.
/// Panics on empty input.
#[inline]
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for i in 1..x.len() {
        if x[i] > x[best] {
            best = i;
        }
    }
    best
}

/// Fill with zeros.
#[inline]
pub fn zero(x: &mut [f32]) {
    for xi in x {
        *xi = 0.0;
    }
}

/// Renormalise `x` to unit L2 norm if its norm exceeds 1 (TransE/TransH
/// entity constraint). No-op on the zero vector.
#[inline]
pub fn project_unit_ball(x: &mut [f32]) {
    let n = norm(x);
    if n > 1.0 {
        scale(1.0 / n, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_triple_dot() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let c = [1.0, 0.5, 2.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(triple_dot(&a, &b, &c), 4.0 + 5.0 + 36.0);
    }

    #[test]
    fn triple_dot_is_symmetric_in_all_arguments() {
        let a = [0.3, -1.2, 2.0, 0.7];
        let b = [1.5, 0.2, -0.4, 1.0];
        let c = [-2.0, 0.9, 0.1, 0.6];
        let abc = triple_dot(&a, &b, &c);
        assert!((abc - triple_dot(&b, &a, &c)).abs() < 1e-6);
        assert!((abc - triple_dot(&c, &b, &a)).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scaled_copy_overwrites() {
        let x = [1.0, -2.0, 0.5];
        let mut out = [9.0, 9.0, 9.0];
        scaled_copy(2.0, &x, &mut out);
        assert_eq!(out, [2.0, -4.0, 1.0]);
    }

    #[test]
    fn dot4_matches_four_dots_bitwise() {
        // Lengths straddling the lane width, including a zero-length.
        for n in [0usize, 1, 7, 8, 9, 16, 31, 64] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let ys: Vec<Vec<f32>> = (0..4)
                .map(|j| (0..n).map(|i| ((i + j) as f32 * 0.11).cos()).collect())
                .collect();
            let fused = dot4(&x, &ys[0], &ys[1], &ys[2], &ys[3]);
            for j in 0..4 {
                assert_eq!(fused[j].to_bits(), dot(&x, &ys[j]).to_bits(), "n={n} j={j}");
            }
        }
    }

    #[test]
    fn hadamard_axpy_matches_manual() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 0.5, -1.0];
        let mut out = [1.0, 1.0, 1.0];
        hadamard_axpy(-1.0, &a, &b, &mut out);
        assert_eq!(out, [1.0 - 2.0, 1.0 - 1.0, 1.0 + 3.0]);
    }

    #[test]
    fn distances() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(dist_sq(&a, &b), 25.0);
        assert_eq!(dist_l1(&a, &b), 7.0);
    }

    #[test]
    fn argmax_first_tie() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn unit_ball_projection() {
        let mut x = [3.0, 4.0];
        project_unit_ball(&mut x);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        let mut small = [0.1, 0.1];
        let before = small;
        project_unit_ball(&mut small);
        assert_eq!(small, before);
        let mut zero_v = [0.0, 0.0];
        project_unit_ball(&mut zero_v);
        assert_eq!(zero_v, [0.0, 0.0]);
    }
}
