//! Non-bilinear comparators from Table VI, implemented from scratch.
//!
//! - [`TransE`], [`TransH`]: translational models with margin ranking loss
//!   and filtered negative sampling;
//! - [`RotatE`]: rotation in the complex plane, margin loss;
//! - [`TuckEr`]: full three-way core tensor trained with the multiclass
//!   log-loss.
//!
//! All gradients are closed-form; the test suite checks each against
//! finite differences. The remaining Table VI rows (ConvE, HypER, NTN,
//! HolEX, QuatE, AnyBURL) are reported from the literature only — see
//! DESIGN.md §2 for the substitution rationale.

use crate::embeddings::Embeddings;
use crate::eval::ScoreModel;
use crate::grads::{TransHGrads, TripleGrads, TuckErGrads};
use crate::negative::corrupt;
use eras_data::{FilterIndex, Triple};
use eras_linalg::optim::{Adagrad, Optimizer};
use eras_linalg::vecops;
use eras_linalg::Rng;

/// Shared hyperparameters for the margin-based translational trainers.
#[derive(Debug, Clone)]
pub struct MarginConfig {
    /// Learning rate.
    pub lr: f32,
    /// Ranking margin γ.
    pub margin: f32,
    /// Negatives sampled per positive.
    pub negatives: usize,
}

impl Default for MarginConfig {
    fn default() -> Self {
        MarginConfig {
            lr: 0.05,
            margin: 2.0,
            negatives: 2,
        }
    }
}

// ---------------------------------------------------------------------------
// TransE
// ---------------------------------------------------------------------------

/// TransE (Bordes et al., 2013): `score = −‖h + r − t‖²`.
#[derive(Debug, Clone)]
pub struct TransE {
    cfg: MarginConfig,
    opt_entity: Adagrad,
    opt_relation: Adagrad,
}

impl TransE {
    /// Create a trainer for the given embedding shapes.
    pub fn new(emb: &Embeddings, cfg: MarginConfig) -> Self {
        TransE {
            opt_entity: Adagrad::new(emb.entity.as_slice().len(), cfg.lr, 0.0),
            opt_relation: Adagrad::new(emb.relation.as_slice().len(), cfg.lr, 0.0),
            cfg,
        }
    }

    fn score_raw(emb: &Embeddings, t: Triple) -> f32 {
        let h = emb.entity.row(t.head as usize);
        let r = emb.relation.row(t.rel as usize);
        let tl = emb.entity.row(t.tail as usize);
        let mut acc = 0.0;
        for k in 0..h.len() {
            let d = h[k] + r[k] - tl[k];
            acc += d * d;
        }
        -acc
    }

    /// Gradient of the squared translational distance `‖h + r − t‖²`
    /// (= −score) with respect to the triple's three rows. Pure: reads
    /// `emb`, writes only `g`.
    pub fn distance_grads(emb: &Embeddings, t: Triple, g: &mut TripleGrads) {
        let dim = emb.dim();
        let h = emb.entity.row(t.head as usize);
        let r = emb.relation.row(t.rel as usize);
        let tl = emb.entity.row(t.tail as usize);
        for k in 0..dim {
            let d = h[k] + r[k] - tl[k];
            g.head[k] = 2.0 * d;
            g.rel[k] = 2.0 * d;
            g.tail[k] = -2.0 * d;
        }
    }

    /// One pass over `train` with margin loss `max(0, γ − s⁺ + s⁻)`.
    /// Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        emb: &mut Embeddings,
        train: &[Triple],
        filter: &FilterIndex,
        rng: &mut Rng,
    ) -> f32 {
        let dim = emb.dim();
        let num_entities = emb.num_entities();
        let mut total = 0.0f32;
        let mut count = 0usize;
        let mut g = TripleGrads::new(dim);
        let mut grad = vec![0.0f32; dim];
        for &pos in train {
            for _ in 0..self.cfg.negatives {
                let neg = corrupt(pos, num_entities, filter, rng);
                let s_pos = Self::score_raw(emb, pos);
                let s_neg = Self::score_raw(emb, neg);
                let loss = (self.cfg.margin - s_pos + s_neg).max(0.0);
                total += loss;
                count += 1;
                if loss <= 0.0 {
                    continue;
                }
                // ∂loss/∂(h,r,t) for positive: −∂s⁺ = +∂dist⁺; for the
                // negative: +∂s⁻ = −∂dist⁻.
                for (triple, sign) in [(pos, 1.0f32), (neg, -1.0f32)] {
                    let (h, r, t) = (triple.head, triple.rel, triple.tail);
                    Self::distance_grads(emb, triple, &mut g);
                    for k in 0..dim {
                        grad[k] = sign * g.head[k];
                    }
                    self.opt_entity
                        .step_at(emb.entity.as_mut_slice(), h as usize * dim, &grad);
                    for k in 0..dim {
                        grad[k] = sign * g.rel[k];
                    }
                    self.opt_relation
                        .step_at(emb.relation.as_mut_slice(), r as usize * dim, &grad);
                    for k in 0..dim {
                        grad[k] = sign * g.tail[k];
                    }
                    self.opt_entity
                        .step_at(emb.entity.as_mut_slice(), t as usize * dim, &grad);
                }
                // Entity norm constraint from the TransE paper.
                for e in [pos.head, pos.tail, neg.head, neg.tail] {
                    vecops::project_unit_ball(emb.entity.row_mut(e as usize));
                }
            }
        }
        if count > 0 {
            total / count as f32
        } else {
            0.0
        }
    }
}

impl ScoreModel for TransE {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        let hr: Vec<f32> = emb
            .entity
            .row(h as usize)
            .iter()
            .zip(emb.relation.row(r as usize))
            .map(|(a, b)| a + b)
            .collect();
        for (e, o) in out.iter_mut().enumerate() {
            *o = -vecops::dist_sq(&hr, emb.entity.row(e));
        }
    }

    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        let tr: Vec<f32> = emb
            .entity
            .row(t as usize)
            .iter()
            .zip(emb.relation.row(r as usize))
            .map(|(a, b)| a - b)
            .collect();
        for (e, o) in out.iter_mut().enumerate() {
            *o = -vecops::dist_sq(emb.entity.row(e), &tr);
        }
    }

    fn score_triple(&self, emb: &Embeddings, t: Triple) -> f32 {
        Self::score_raw(emb, t)
    }
}

// ---------------------------------------------------------------------------
// TransH
// ---------------------------------------------------------------------------

/// TransH (Wang et al., 2014): translation on a relation-specific
/// hyperplane, `score = −‖h⊥ + r − t⊥‖²` with `x⊥ = x − (wᵀx)w`.
///
/// The hyperplane normals `w_r` are extra per-relation parameters owned by
/// this struct (kept approximately unit-norm by projection).
#[derive(Debug, Clone)]
pub struct TransH {
    cfg: MarginConfig,
    /// Hyperplane normals, `N_r × d`.
    pub normals: eras_linalg::Matrix,
    opt_entity: Adagrad,
    opt_relation: Adagrad,
    opt_normals: Adagrad,
}

impl TransH {
    /// Create a trainer; normals start as random unit-ish vectors.
    pub fn new(emb: &Embeddings, cfg: MarginConfig, rng: &mut Rng) -> Self {
        let mut normals =
            eras_linalg::Matrix::uniform_init(emb.num_relations(), emb.dim(), 0.5, rng);
        for r in 0..normals.rows() {
            let row = normals.row_mut(r);
            let n = vecops::norm(row);
            if n > 0.0 {
                vecops::scale(1.0 / n, row);
            }
        }
        TransH {
            opt_entity: Adagrad::new(emb.entity.as_slice().len(), cfg.lr, 0.0),
            opt_relation: Adagrad::new(emb.relation.as_slice().len(), cfg.lr, 0.0),
            opt_normals: Adagrad::new(normals.as_slice().len(), cfg.lr * 0.5, 0.0),
            normals,
            cfg,
        }
    }

    fn project(x: &[f32], w: &[f32], out: &mut [f32]) {
        let wx = vecops::dot(w, x);
        for k in 0..x.len() {
            out[k] = x[k] - wx * w[k];
        }
    }

    fn score_raw(&self, emb: &Embeddings, t: Triple) -> f32 {
        let dim = emb.dim();
        let w = self.normals.row(t.rel as usize);
        let mut hp = vec![0.0; dim];
        let mut tp = vec![0.0; dim];
        Self::project(emb.entity.row(t.head as usize), w, &mut hp);
        Self::project(emb.entity.row(t.tail as usize), w, &mut tp);
        let r = emb.relation.row(t.rel as usize);
        let mut acc = 0.0;
        for k in 0..dim {
            let d = hp[k] + r[k] - tp[k];
            acc += d * d;
        }
        -acc
    }

    /// Gradient of the hyperplane distance `‖h⊥ + r − t⊥‖²` (= −score)
    /// with respect to the triple's rows and the normal `w_r`. Pure:
    /// reads `emb` and `self.normals`, writes only `g`.
    pub fn distance_grads(&self, emb: &Embeddings, t: Triple, g: &mut TransHGrads) {
        let dim = emb.dim();
        let (hid, rid, tid) = (t.head as usize, t.rel as usize, t.tail as usize);
        let w = self.normals.row(rid);
        let h_row = emb.entity.row(hid);
        let t_row = emb.entity.row(tid);
        let mut hp = vec![0.0f32; dim];
        let mut tp = vec![0.0f32; dim];
        let mut d_vec = vec![0.0f32; dim];
        Self::project(h_row, w, &mut hp);
        Self::project(t_row, w, &mut tp);
        for k in 0..dim {
            d_vec[k] = hp[k] + emb.relation.get(rid, k) - tp[k];
        }
        // ∂dist/∂h = 2 P d where P = I − wwᵀ (P is symmetric); ∂/∂t = −∂/∂h.
        let wd = vecops::dot(w, &d_vec);
        for k in 0..dim {
            g.head[k] = 2.0 * (d_vec[k] - wd * w[k]);
            g.tail[k] = -g.head[k];
            // ∂dist/∂r = 2 d.
            g.rel[k] = 2.0 * d_vec[k];
        }
        // With x = h − t: d = x + r − (wᵀx)w, so
        // ∂dist/∂w = −2[(wᵀd)·x + (wᵀx)·d].
        let wh = vecops::dot(w, h_row);
        let wt = vecops::dot(w, t_row);
        for k in 0..dim {
            g.normal[k] = -2.0 * (wd * (h_row[k] - t_row[k]) + (wh - wt) * d_vec[k]);
        }
    }

    /// One margin-loss epoch. Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        emb: &mut Embeddings,
        train: &[Triple],
        filter: &FilterIndex,
        rng: &mut Rng,
    ) -> f32 {
        let dim = emb.dim();
        let num_entities = emb.num_entities();
        let mut total = 0.0f32;
        let mut count = 0usize;
        let mut g = TransHGrads::new(dim);
        let mut grad = vec![0.0f32; dim];
        for &pos in train {
            for _ in 0..self.cfg.negatives {
                let neg = corrupt(pos, num_entities, filter, rng);
                let s_pos = self.score_raw(emb, pos);
                let s_neg = self.score_raw(emb, neg);
                let loss = (self.cfg.margin - s_pos + s_neg).max(0.0);
                total += loss;
                count += 1;
                if loss <= 0.0 {
                    continue;
                }
                for (triple, sign) in [(pos, 1.0f32), (neg, -1.0f32)] {
                    let (hid, rid, tid) = (
                        triple.head as usize,
                        triple.rel as usize,
                        triple.tail as usize,
                    );
                    self.distance_grads(emb, triple, &mut g);
                    for k in 0..dim {
                        grad[k] = sign * g.head[k];
                    }
                    self.opt_entity
                        .step_at(emb.entity.as_mut_slice(), hid * dim, &grad);
                    for k in 0..dim {
                        grad[k] = sign * g.tail[k];
                    }
                    self.opt_entity
                        .step_at(emb.entity.as_mut_slice(), tid * dim, &grad);
                    for k in 0..dim {
                        grad[k] = sign * g.rel[k];
                    }
                    self.opt_relation
                        .step_at(emb.relation.as_mut_slice(), rid * dim, &grad);
                    for k in 0..dim {
                        grad[k] = sign * g.normal[k];
                    }
                    self.opt_normals
                        .step_at(self.normals.as_mut_slice(), rid * dim, &grad);
                    // Re-normalise the hyperplane normal.
                    let row = self.normals.row_mut(rid);
                    let n = vecops::norm(row);
                    if n > 0.0 {
                        vecops::scale(1.0 / n, row);
                    }
                }
                for e in [pos.head, pos.tail, neg.head, neg.tail] {
                    vecops::project_unit_ball(emb.entity.row_mut(e as usize));
                }
            }
        }
        if count > 0 {
            total / count as f32
        } else {
            0.0
        }
    }
}

impl ScoreModel for TransH {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        let dim = emb.dim();
        let w = self.normals.row(r as usize);
        let mut hp = vec![0.0; dim];
        Self::project(emb.entity.row(h as usize), w, &mut hp);
        let rel = emb.relation.row(r as usize);
        let base: Vec<f32> = hp.iter().zip(rel).map(|(a, b)| a + b).collect();
        let mut tp = vec![0.0; dim];
        for (e, o) in out.iter_mut().enumerate() {
            Self::project(emb.entity.row(e), w, &mut tp);
            *o = -vecops::dist_sq(&base, &tp);
        }
    }

    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        let dim = emb.dim();
        let w = self.normals.row(r as usize);
        let mut tp = vec![0.0; dim];
        Self::project(emb.entity.row(t as usize), w, &mut tp);
        let rel = emb.relation.row(r as usize);
        let target: Vec<f32> = tp.iter().zip(rel).map(|(a, b)| a - b).collect();
        let mut hp = vec![0.0; dim];
        for (e, o) in out.iter_mut().enumerate() {
            Self::project(emb.entity.row(e), w, &mut hp);
            *o = -vecops::dist_sq(&hp, &target);
        }
    }

    fn score_triple(&self, emb: &Embeddings, t: Triple) -> f32 {
        self.score_raw(emb, t)
    }
}

// ---------------------------------------------------------------------------
// RotatE
// ---------------------------------------------------------------------------

/// RotatE (Sun et al., 2019): entities are complex vectors (`d/2` pairs,
/// interleaved re/im in the embedding row), relations are rotations
/// parameterised by `d/2` phases stored in the first half of the relation
/// row. `score = −Σ_k |h_k · e^{iθ_k} − t_k|`.
#[derive(Debug, Clone)]
pub struct RotatE {
    cfg: MarginConfig,
    opt_entity: Adagrad,
    opt_relation: Adagrad,
}

impl RotatE {
    /// Create a trainer. Requires an even embedding dimension.
    pub fn new(emb: &Embeddings, cfg: MarginConfig) -> Self {
        assert_eq!(emb.dim() % 2, 0, "RotatE needs an even dimension");
        RotatE {
            opt_entity: Adagrad::new(emb.entity.as_slice().len(), cfg.lr, 0.0),
            opt_relation: Adagrad::new(emb.relation.as_slice().len(), cfg.lr, 0.0),
            cfg,
        }
    }

    fn score_raw(emb: &Embeddings, t: Triple) -> f32 {
        let dim = emb.dim();
        let pairs = dim / 2;
        let h = emb.entity.row(t.head as usize);
        let r = emb.relation.row(t.rel as usize);
        let tl = emb.entity.row(t.tail as usize);
        let mut acc = 0.0f32;
        for k in 0..pairs {
            let (hr, hi) = (h[2 * k], h[2 * k + 1]);
            let (c, s) = (r[k].cos(), r[k].sin());
            let dr = hr * c - hi * s - tl[2 * k];
            let di = hr * s + hi * c - tl[2 * k + 1];
            acc += (dr * dr + di * di).sqrt();
        }
        -acc
    }

    /// Gradient of the rotation distance `Σ_k |h_k e^{iθ_k} − t_k|`
    /// (= −score) with respect to the triple's three rows. The relation
    /// gradient lives in the first `d/2` slots (the phases); the rest
    /// stays zero. Pure: reads `emb`, writes only `g`.
    pub fn distance_grads(emb: &Embeddings, t: Triple, g: &mut TripleGrads) {
        let dim = emb.dim();
        let pairs = dim / 2;
        let h = emb.entity.row(t.head as usize);
        let r = emb.relation.row(t.rel as usize);
        let tl = emb.entity.row(t.tail as usize);
        vecops::zero(&mut g.head);
        vecops::zero(&mut g.tail);
        vecops::zero(&mut g.rel);
        for k in 0..pairs {
            let (hr, hi) = (h[2 * k], h[2 * k + 1]);
            let (c, s) = (r[k].cos(), r[k].sin());
            let dr = hr * c - hi * s - tl[2 * k];
            let di = hr * s + hi * c - tl[2 * k + 1];
            let norm = (dr * dr + di * di).sqrt().max(1e-8);
            // Unit residual u = d/‖d‖.
            let (ur, ui) = (dr / norm, di / norm);
            // ∂d/∂hr = (c, s); ∂d/∂hi = (−s, c).
            g.head[2 * k] = ur * c + ui * s;
            g.head[2 * k + 1] = -ur * s + ui * c;
            // ∂d/∂t = −I.
            g.tail[2 * k] = -ur;
            g.tail[2 * k + 1] = -ui;
            // ∂d/∂θ = h · i e^{iθ} = (−hr s − hi c, hr c − hi s).
            g.rel[k] = ur * (-hr * s - hi * c) + ui * (hr * c - hi * s);
        }
    }

    /// Scale `g` by `weight` and hand the three rows to the optimizers.
    fn apply_weighted(
        &mut self,
        emb: &mut Embeddings,
        triple: Triple,
        weight: f32,
        g: &TripleGrads,
        grad: &mut [f32],
    ) {
        let dim = emb.dim();
        let (hid, rid, tid) = (
            triple.head as usize,
            triple.rel as usize,
            triple.tail as usize,
        );
        for k in 0..dim {
            grad[k] = weight * g.head[k];
        }
        self.opt_entity
            .step_at(emb.entity.as_mut_slice(), hid * dim, grad);
        for k in 0..dim {
            grad[k] = weight * g.tail[k];
        }
        self.opt_entity
            .step_at(emb.entity.as_mut_slice(), tid * dim, grad);
        for k in 0..dim {
            grad[k] = weight * g.rel[k];
        }
        self.opt_relation
            .step_at(emb.relation.as_mut_slice(), rid * dim, grad);
    }

    /// One margin-loss epoch. Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        emb: &mut Embeddings,
        train: &[Triple],
        filter: &FilterIndex,
        rng: &mut Rng,
    ) -> f32 {
        let dim = emb.dim();
        let num_entities = emb.num_entities();
        let mut total = 0.0f32;
        let mut count = 0usize;
        let mut g = TripleGrads::new(dim);
        let mut grad = vec![0.0f32; dim];
        for &pos in train {
            for _ in 0..self.cfg.negatives {
                let neg = corrupt(pos, num_entities, filter, rng);
                let s_pos = Self::score_raw(emb, pos);
                let s_neg = Self::score_raw(emb, neg);
                let loss = (self.cfg.margin - s_pos + s_neg).max(0.0);
                total += loss;
                count += 1;
                if loss <= 0.0 {
                    continue;
                }
                for (triple, sign) in [(pos, 1.0f32), (neg, -1.0f32)] {
                    Self::distance_grads(emb, triple, &mut g);
                    self.apply_weighted(emb, triple, sign, &g, &mut grad);
                }
            }
        }
        if count > 0 {
            total / count as f32
        } else {
            0.0
        }
    }
}

impl ScoreModel for RotatE {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        let dim = emb.dim();
        let pairs = dim / 2;
        let hrow = emb.entity.row(h as usize);
        let rrow = emb.relation.row(r as usize);
        // Rotated head, computed once.
        let mut rot = vec![0.0f32; dim];
        for k in 0..pairs {
            let (hr, hi) = (hrow[2 * k], hrow[2 * k + 1]);
            let (c, s) = (rrow[k].cos(), rrow[k].sin());
            rot[2 * k] = hr * c - hi * s;
            rot[2 * k + 1] = hr * s + hi * c;
        }
        for (e, o) in out.iter_mut().enumerate() {
            let t = emb.entity.row(e);
            let mut acc = 0.0f32;
            for k in 0..pairs {
                let dr = rot[2 * k] - t[2 * k];
                let di = rot[2 * k + 1] - t[2 * k + 1];
                acc += (dr * dr + di * di).sqrt();
            }
            *o = -acc;
        }
    }

    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        let dim = emb.dim();
        let pairs = dim / 2;
        let trow = emb.entity.row(t as usize);
        let rrow = emb.relation.row(r as usize);
        // Inverse-rotated tail: h must equal t · e^{−iθ}.
        let mut rot = vec![0.0f32; dim];
        for k in 0..pairs {
            let (tr, ti) = (trow[2 * k], trow[2 * k + 1]);
            let (c, s) = (rrow[k].cos(), rrow[k].sin());
            rot[2 * k] = tr * c + ti * s;
            rot[2 * k + 1] = -tr * s + ti * c;
        }
        for (e, o) in out.iter_mut().enumerate() {
            let h = emb.entity.row(e);
            let mut acc = 0.0f32;
            for k in 0..pairs {
                let dr = h[2 * k] - rot[2 * k];
                let di = h[2 * k + 1] - rot[2 * k + 1];
                acc += (dr * dr + di * di).sqrt();
            }
            *o = -acc;
        }
    }

    fn score_triple(&self, emb: &Embeddings, t: Triple) -> f32 {
        Self::score_raw(emb, t)
    }
}

// ---------------------------------------------------------------------------
// TuckER
// ---------------------------------------------------------------------------

/// TuckER (Balazevic et al., 2019): `score = W ×₁ h ×₂ r ×₃ t` with a
/// trained core tensor `W ∈ R^{d × d × d}` (we tie `d_r = d_e = d`).
/// Trained with the multiclass log-loss like the bilinear models.
#[derive(Debug, Clone)]
pub struct TuckEr {
    dim: usize,
    /// Core tensor, index `[(i_h · d) + k_r] · d + j_t`.
    core: Vec<f32>,
    opt_core: Adagrad,
    opt_entity: Adagrad,
    opt_relation: Adagrad,
    lr: f32,
}

impl TuckEr {
    /// Create with a random core.
    pub fn new(emb: &Embeddings, lr: f32, rng: &mut Rng) -> Self {
        let d = emb.dim();
        let scale = (6.0 / (3 * d) as f32).sqrt();
        let core: Vec<f32> = (0..d * d * d).map(|_| rng.uniform(-scale, scale)).collect();
        TuckEr {
            dim: d,
            opt_core: Adagrad::new(core.len(), lr, 1e-5),
            opt_entity: Adagrad::new(emb.entity.as_slice().len(), lr, 1e-5),
            opt_relation: Adagrad::new(emb.relation.as_slice().len(), lr, 1e-5),
            core,
            lr,
        }
    }

    /// Learning rate in use (exposed for experiment logging).
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// `v_j = Σ_{i,k} h_i r_k W[i][k][j]` — the tail-side query vector.
    fn tail_vec(&self, h: &[f32], r: &[f32], v: &mut [f32]) {
        let d = self.dim;
        vecops::zero(v);
        for i in 0..d {
            let hi = h[i];
            if hi == 0.0 {
                continue;
            }
            for k in 0..d {
                let w = hi * r[k];
                if w == 0.0 {
                    continue;
                }
                let base = (i * d + k) * d;
                vecops::axpy(w, &self.core[base..base + d], v);
            }
        }
    }

    /// `u_i = Σ_{k,j} r_k t_j W[i][k][j]` — the head-side query vector.
    fn head_vec(&self, t: &[f32], r: &[f32], u: &mut [f32]) {
        let d = self.dim;
        vecops::zero(u);
        for i in 0..d {
            let mut acc = 0.0f32;
            for k in 0..d {
                let rk = r[k];
                if rk == 0.0 {
                    continue;
                }
                let base = (i * d + k) * d;
                acc += rk * vecops::dot(&self.core[base..base + d], t);
            }
            u[i] = acc;
        }
    }

    /// The trained core tensor (read access for checkpointing and the
    /// gradient contract checker).
    pub fn core(&self) -> &[f32] {
        &self.core
    }

    /// Mutable core access (used by the gradient contract checker to
    /// finite-difference through the core).
    pub fn core_mut(&mut self) -> &mut [f32] {
        &mut self.core
    }

    /// Gradients of the full-softmax tail step at the current
    /// parameters. Pure: reads `emb` and `self.core`, writes only `g`.
    ///
    /// The per-entity row gradient is `g.resid[c] · g.v`; head, relation
    /// and core gradients are dense in `g`.
    pub fn step_grads(&self, emb: &Embeddings, t: Triple, g: &mut TuckErGrads) {
        let d = self.dim;
        let h = emb.entity.row(t.head as usize);
        let r = emb.relation.row(t.rel as usize);
        self.tail_vec(h, r, &mut g.v);
        emb.entity.matvec(&g.v, &mut g.resid);
        g.loss = eras_linalg::softmax::log_loss_and_residual(&mut g.resid, t.tail as usize);
        // g_v = Eᵀ resid.
        let mut g_v = vec![0.0f32; d];
        emb.entity.matvec_transpose(&g.resid, &mut g_v);
        // ∂L/∂h_i = Σ_k r_k ⟨W[i][k][:], g_v⟩ ; ∂L/∂r_k symmetric;
        // ∂L/∂W[i][k][j] = h_i r_k g_v[j].
        vecops::zero(&mut g.head);
        vecops::zero(&mut g.rel);
        for i in 0..d {
            for k in 0..d {
                let base = (i * d + k) * d;
                let wg = vecops::dot(&self.core[base..base + d], &g_v);
                g.head[i] += r[k] * wg;
                g.rel[k] += h[i] * wg;
                let scale = h[i] * r[k];
                for j in 0..d {
                    g.core[base + j] = scale * g_v[j];
                }
            }
        }
    }

    /// One pass over `train` (tail-prediction side with full softmax).
    /// Returns the mean loss.
    pub fn train_epoch(&mut self, emb: &mut Embeddings, train: &[Triple]) -> f32 {
        let d = self.dim;
        let ne = emb.num_entities();
        let mut g = TuckErGrads::new(d, ne);
        let mut grad = vec![0.0f32; d];
        let mut total = 0.0f32;
        for &t in train {
            let h: Vec<f32> = emb.entity.row(t.head as usize).to_vec();
            let r: Vec<f32> = emb.relation.row(t.rel as usize).to_vec();
            self.step_grads(emb, t, &mut g);
            total += g.loss;
            // Entity rows += resid · v.
            for c in 0..ne {
                let resid = g.resid[c];
                if resid == 0.0 {
                    continue;
                }
                for (gr, &vv) in grad.iter_mut().zip(&g.v) {
                    *gr = resid * vv;
                }
                self.opt_entity
                    .step_at(emb.entity.as_mut_slice(), c * d, &grad);
            }
            for i in 0..d {
                for k in 0..d {
                    if h[i] * r[k] != 0.0 {
                        let base = (i * d + k) * d;
                        self.opt_core
                            .step_at(&mut self.core, base, &g.core[base..base + d]);
                    }
                }
            }
            self.opt_entity
                .step_at(emb.entity.as_mut_slice(), t.head as usize * d, &g.head);
            self.opt_relation
                .step_at(emb.relation.as_mut_slice(), t.rel as usize * d, &g.rel);
        }
        if train.is_empty() {
            0.0
        } else {
            total / train.len() as f32
        }
    }
}

impl ScoreModel for TuckEr {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        let mut v = vec![0.0f32; self.dim];
        self.tail_vec(
            emb.entity.row(h as usize),
            emb.relation.row(r as usize),
            &mut v,
        );
        emb.entity.matvec(&v, out);
    }

    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        let mut u = vec![0.0f32; self.dim];
        self.head_vec(
            emb.entity.row(t as usize),
            emb.relation.row(r as usize),
            &mut u,
        );
        emb.entity.matvec(&u, out);
    }

    fn score_triple(&self, emb: &Embeddings, t: Triple) -> f32 {
        let mut v = vec![0.0f32; self.dim];
        self.tail_vec(
            emb.entity.row(t.head as usize),
            emb.relation.row(t.rel as usize),
            &mut v,
        );
        vecops::dot(&v, emb.entity.row(t.tail as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(dim: usize) -> (Embeddings, FilterIndex, Vec<Triple>, Rng) {
        let mut rng = Rng::seed_from_u64(7);
        let emb = Embeddings::init(10, 2, dim, &mut rng);
        let train: Vec<Triple> = (0..8u32).map(|i| Triple::new(i, 0, (i + 1) % 10)).collect();
        let filter = FilterIndex::from_triples(train.iter().copied());
        (emb, filter, train, rng)
    }

    #[test]
    fn transe_score_consistency() {
        let (emb, _, _, _) = setup(8);
        let model = TransE::new(&emb, MarginConfig::default());
        let mut out = vec![0.0; 10];
        model.score_all_tails(&emb, 2, 1, &mut out);
        for t in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(2, 1, t));
            assert!((out[t as usize] - s).abs() < 1e-4);
        }
        model.score_all_heads(&emb, 3, 0, &mut out);
        for h in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(h, 0, 3));
            assert!((out[h as usize] - s).abs() < 1e-4);
        }
    }

    #[test]
    fn transe_training_separates_positives_from_negatives() {
        let (mut emb, filter, train, mut rng) = setup(8);
        let mut model = TransE::new(&emb, MarginConfig::default());
        for _ in 0..60 {
            model.train_epoch(&mut emb, &train, &filter, &mut rng);
        }
        // Positives should now score better than random corruptions.
        let mut wins = 0;
        let trials = 100;
        for i in 0..trials {
            let pos = train[i % train.len()];
            let neg = corrupt(pos, 10, &filter, &mut rng);
            if model.score_triple(&emb, pos) > model.score_triple(&emb, neg) {
                wins += 1;
            }
        }
        assert!(wins > 75, "only {wins}/{trials} positives beat negatives");
    }

    #[test]
    fn transh_score_consistency() {
        let (emb, _, _, mut rng) = setup(8);
        let model = TransH::new(&emb, MarginConfig::default(), &mut rng);
        let mut out = vec![0.0; 10];
        model.score_all_tails(&emb, 1, 0, &mut out);
        for t in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(1, 0, t));
            assert!((out[t as usize] - s).abs() < 1e-4);
        }
        model.score_all_heads(&emb, 4, 1, &mut out);
        for h in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(h, 1, 4));
            assert!((out[h as usize] - s).abs() < 1e-4);
        }
    }

    #[test]
    fn transh_training_learns() {
        let (mut emb, filter, train, mut rng) = setup(8);
        let mut model = TransH::new(&emb, MarginConfig::default(), &mut rng);
        let mut early = 0.0;
        let mut late = 0.0;
        for epoch in 0..60 {
            let loss = model.train_epoch(&mut emb, &train, &filter, &mut rng);
            if epoch < 5 {
                early += loss;
            }
            if epoch >= 55 {
                late += loss;
            }
        }
        assert!(late < early, "margin loss should shrink: {early} -> {late}");
    }

    #[test]
    fn rotate_score_consistency() {
        let (emb, _, _, _) = setup(8);
        let model = RotatE::new(&emb, MarginConfig::default());
        let mut out = vec![0.0; 10];
        model.score_all_tails(&emb, 0, 0, &mut out);
        for t in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(0, 0, t));
            assert!((out[t as usize] - s).abs() < 1e-4);
        }
        model.score_all_heads(&emb, 2, 1, &mut out);
        for h in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(h, 1, 2));
            assert!(
                (out[h as usize] - s).abs() < 1e-3,
                "head {h}: {} vs {s}",
                out[h as usize]
            );
        }
    }

    #[test]
    fn rotate_gradient_matches_finite_difference() {
        let (emb, _, _, _) = setup(4);
        let t = Triple::new(1, 0, 2);
        // Numeric check of ∂(−score)/∂θ_0.
        let eps = 1e-3f32;
        let base = RotatE::score_raw(&emb, t);
        let mut emb_p = emb.clone();
        emb_p.relation.as_mut_slice()[0] += eps;
        let plus = RotatE::score_raw(&emb_p, t);
        let fd = (plus - base) / eps;
        // Analytic: reuse the epoch internals on a single triple by
        // running one positive-only step with SGD-like extraction. Here we
        // recompute the formula directly.
        let dim = 4usize;
        let _pairs = dim / 2;
        let h = emb.entity.row(1);
        let r = emb.relation.row(0);
        let tl = emb.entity.row(2);
        let analytic;
        {
            let k = 0;
            let (hr, hi) = (h[2 * k], h[2 * k + 1]);
            let (c, s) = (r[k].cos(), r[k].sin());
            let dr = hr * c - hi * s - tl[2 * k];
            let di = hr * s + hi * c - tl[2 * k + 1];
            let norm = (dr * dr + di * di).sqrt().max(1e-8);
            let (ur, ui) = (dr / norm, di / norm);
            analytic = ur * (-hr * s - hi * c) + ui * (hr * c - hi * s);
        }
        let _ = dim;
        // fd approximates ∂score/∂θ = −∂‖d‖/∂θ = −analytic.
        assert!(
            (fd + analytic).abs() < 1e-2,
            "fd {fd} vs -analytic {}",
            -analytic
        );
    }

    #[test]
    fn rotate_training_learns() {
        let (mut emb, filter, train, mut rng) = setup(8);
        let mut model = RotatE::new(&emb, MarginConfig::default());
        let first = model.train_epoch(&mut emb, &train, &filter, &mut rng);
        let mut last = first;
        for _ in 0..50 {
            last = model.train_epoch(&mut emb, &train, &filter, &mut rng);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn tucker_score_consistency() {
        let (emb, _, _, mut rng) = setup(6);
        let model = TuckEr::new(&emb, 0.05, &mut rng);
        let mut out = vec![0.0; 10];
        model.score_all_tails(&emb, 3, 1, &mut out);
        for t in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(3, 1, t));
            assert!((out[t as usize] - s).abs() < 1e-4);
        }
        // Head-side agreement: score_all_heads[h] must equal the triple
        // score with that head.
        model.score_all_heads(&emb, 5, 0, &mut out);
        for h in 0..10u32 {
            let s = model.score_triple(&emb, Triple::new(h, 0, 5));
            assert!(
                (out[h as usize] - s).abs() < 1e-3,
                "head {h}: {} vs {s}",
                out[h as usize]
            );
        }
    }

    #[test]
    fn tucker_training_reduces_loss() {
        let (mut emb, _, train, mut rng) = setup(6);
        let mut model = TuckEr::new(&emb, 0.1, &mut rng);
        let first = model.train_epoch(&mut emb, &train);
        let mut last = first;
        for _ in 0..25 {
            last = model.train_epoch(&mut emb, &train);
        }
        assert!(last < first * 0.9, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic]
    fn rotate_requires_even_dim() {
        let mut rng = Rng::seed_from_u64(0);
        let emb = Embeddings::init(4, 1, 5, &mut rng);
        let _ = RotatE::new(&emb, MarginConfig::default());
    }
}
