//! The (relation-aware) block bilinear model — the workhorse of the paper.
//!
//! A [`BlockModel`] carries one [`BlockSf`] structure per relation group
//! and an assignment of relations to groups (the paper's `B`). With one
//! group it is AutoSF's universal model (and subsumes DistMult, ComplEx,
//! SimplE, Analogy via `eras_sf::zoo`); with `N > 1` groups it is ERAS's
//! relation-aware model.
//!
//! ## Scoring
//!
//! Because `f(h,r,t) = Σ_{ij} sign·⟨h_i, r_b, t_j⟩` is linear in the tail,
//! a tail query `(h, r, ?)` reduces to one *query vector* `q ∈ R^d` with
//! `q_j += sign · (h_i ⊙ r_b)`, after which the scores of all entities are
//! the single mat-vec `E·q` — the same `O(N_e d)` cost profile as the
//! paper's GPU implementation, and the reason the inference column of
//! Table I reads `O(d)` per candidate. Head queries use the transposed
//! grid.
//!
//! ## Training
//!
//! One training example contributes two 1-vs-all classification problems
//! (predict the tail, predict the head) under the multiclass log-loss.
//! Gradients are exact and flow through three places: the candidate
//! entity rows (`resid[c] · q`), the head/tail entity row and the relation
//! row (chain rule through `q`). [`LossMode::Sampled`] replaces the full
//! candidate set with `k` uniform negatives plus the target, which
//! preserves the estimator's direction while cutting the per-example cost
//! from `O(N_e d)` to `O(k d)` — used inside search loops.
//! [`LossMode::NegSampling`] keeps the same `O(k d)` sampled-block shape
//! but swaps the softmax for the gamma-margin logsigmoid objective with
//! *filtered* negatives (rejected against the known-true index via
//! [`NegCtx`]) and optional self-adversarial weighting — the objective
//! that trains million-entity graphs, because no step ever touches more
//! than the positive + sampled rows.

use crate::embeddings::Embeddings;
use crate::eval::{CandidateSet, ScoreModel};
use crate::loss::{Corruption, LossMode};
use crate::negative::{sample_neg_block, NegCtx};
use eras_data::Triple;
use eras_linalg::optim::Optimizer;
use eras_linalg::scan::{scan_rows, RankTally};
use eras_linalg::softmax::{log_loss_and_residual, neg_sampling_loss_and_residual};
use eras_linalg::vecops;
use eras_linalg::Rng;
use eras_sf::BlockSf;

/// Relation-aware block bilinear model: `{f_n}` plus the assignment `B`.
#[derive(Debug, Clone)]
pub struct BlockModel {
    m: usize,
    sfs: Vec<BlockSf>,
    transposed: Vec<BlockSf>,
    assignment: Vec<u8>,
}

impl BlockModel {
    /// Universal (task-aware only) model: one structure for all relations.
    pub fn universal(sf: BlockSf, num_relations: usize) -> Self {
        let m = sf.m();
        BlockModel {
            m,
            transposed: vec![sf.transposed()],
            sfs: vec![sf],
            assignment: vec![0; num_relations],
        }
    }

    /// Relation-aware model: one structure per group plus the relation →
    /// group assignment. Panics if an assignment references a missing
    /// group or the structures disagree on `M`.
    // audit:allow(E701): snapshot/model validation at construction;
    // inconsistent groups fail at load time, never inside a request
    pub fn relation_aware(sfs: Vec<BlockSf>, assignment: Vec<u8>) -> Self {
        assert!(!sfs.is_empty(), "need at least one group");
        let m = sfs[0].m();
        assert!(sfs.iter().all(|sf| sf.m() == m), "inconsistent M");
        let n = sfs.len() as u8;
        assert!(
            assignment.iter().all(|&g| g < n),
            "assignment references group >= {n}"
        );
        BlockModel {
            m,
            transposed: sfs.iter().map(BlockSf::transposed).collect(),
            sfs,
            assignment,
        }
    }

    /// Number of blocks `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of relation groups `N`.
    pub fn num_groups(&self) -> usize {
        self.sfs.len()
    }

    /// The group structures `{f_n}`.
    pub fn sfs(&self) -> &[BlockSf] {
        &self.sfs
    }

    /// The relation → group assignment `B`.
    pub fn assignment(&self) -> &[u8] {
        &self.assignment
    }

    /// Replace the group structures (ERAS samples new ones every step).
    pub fn set_sfs(&mut self, sfs: Vec<BlockSf>) {
        assert_eq!(sfs.len(), self.sfs.len(), "group count is fixed");
        assert!(sfs.iter().all(|sf| sf.m() == self.m), "inconsistent M");
        self.transposed = sfs.iter().map(BlockSf::transposed).collect();
        self.sfs = sfs;
    }

    /// Replace the relation assignment (EM step of ERAS).
    pub fn set_assignment(&mut self, assignment: Vec<u8>) {
        assert_eq!(assignment.len(), self.assignment.len());
        let n = self.sfs.len() as u8;
        assert!(assignment.iter().all(|&g| g < n));
        self.assignment = assignment;
    }

    /// Structure used for relation `rel`.
    // audit:allow(E701): rel < num_relations is validated when queries
    // are checked, and assignment entries are < sfs.len() at build
    #[inline]
    pub fn sf_for(&self, rel: u32) -> &BlockSf {
        &self.sfs[self.assignment[rel as usize] as usize]
    }

    /// Transposed structure for relation `rel` (head-side queries).
    /// `pub(crate)` so the data-parallel trainer can share the kernels.
    // audit:allow(E701): same bounds argument as sf_for; transposed is
    // built in lockstep with sfs
    #[inline]
    pub(crate) fn sf_for_transposed(&self, rel: u32) -> &BlockSf {
        &self.transposed[self.assignment[rel as usize] as usize]
    }

    /// Block size `d / M`. Panics unless `d` is divisible by `M`.
    // audit:allow(E701): dim % M == 0 is validated when the snapshot is
    // loaded; a violation is a load-time bug, not request data
    #[inline]
    fn block_size(&self, dim: usize) -> usize {
        assert_eq!(dim % self.m, 0, "dim {dim} not divisible by M={}", self.m);
        dim / self.m
    }

    /// Build the tail-query vector: `score(t') = ⟨q, E[t']⟩`.
    pub fn tail_query(&self, emb: &Embeddings, h: u32, r: u32, q: &mut [f32]) {
        self.query_with(
            self.sf_for(r),
            emb.entity.row(h as usize),
            emb.relation.row(r as usize),
            q,
        );
    }

    /// Build the head-query vector: `score(h') = ⟨q, E[h']⟩`.
    pub fn head_query(&self, emb: &Embeddings, t: u32, r: u32, q: &mut [f32]) {
        self.query_with(
            self.sf_for_transposed(r),
            emb.entity.row(t as usize),
            emb.relation.row(r as usize),
            q,
        );
    }

    /// `q_j += sign · (x_i ⊙ r_b)` over the non-zero cells of `sf`.
    // audit:allow(E701): nonzero_cells yields i, j < M with block ops
    // (expect cannot fire), and b < M by BlockSf's grid invariant, so
    // every i*bs..(i+1)*bs slice lies inside the M*bs vectors
    pub(crate) fn query_with(&self, sf: &BlockSf, x: &[f32], rel: &[f32], q: &mut [f32]) {
        let bs = self.block_size(x.len());
        vecops::zero(q);
        for (i, j, op) in sf.nonzero_cells() {
            let b = op.block().expect("nonzero") as usize;
            vecops::hadamard_axpy(
                op.sign(),
                &x[i * bs..(i + 1) * bs],
                &rel[b * bs..(b + 1) * bs],
                &mut q[j * bs..(j + 1) * bs],
            );
        }
    }

    /// Back-propagate from `g_q = ∂L/∂q` to the head/tail row (`grad_x`)
    /// and the relation row (`grad_r`), for the grid used forward.
    pub(crate) fn backprop_query(
        &self,
        sf: &BlockSf,
        x: &[f32],
        rel: &[f32],
        g_q: &[f32],
        grad_x: &mut [f32],
        grad_r: &mut [f32],
    ) {
        let bs = self.block_size(x.len());
        for (i, j, op) in sf.nonzero_cells() {
            let b = op.block().expect("nonzero") as usize;
            let s = op.sign();
            let gq_j = &g_q[j * bs..(j + 1) * bs];
            vecops::hadamard_axpy(
                s,
                gq_j,
                &rel[b * bs..(b + 1) * bs],
                &mut grad_x[i * bs..(i + 1) * bs],
            );
            vecops::hadamard_axpy(
                s,
                gq_j,
                &x[i * bs..(i + 1) * bs],
                &mut grad_r[b * bs..(b + 1) * bs],
            );
        }
    }
}

/// Rank `target` against the query vector `q` via the fused scan over
/// the entity table (`cand = None`) or over the gathered candidate rows:
/// the target's score is one dot product, every other candidate's score
/// streams through a [`RankTally`] without materializing a score vector.
/// Each streamed score is bit-identical to the matvec the dense default
/// would rank over, so this returns exactly what the
/// [`ScoreModel::tail_rank`] default does.
///
/// In the sampled case global ids map to candidate slots (both sorted,
/// so the filtered remap preserves order); a target outside the sample
/// maps to the `u32::MAX` sentinel no slot can match — its score still
/// anchors the tally, so the true answer always competes and is never
/// filtered.
fn rank_with_query(
    emb: &Embeddings,
    q: &[f32],
    target: u32,
    filtered: &[u32],
    cand: Option<&CandidateSet>,
) -> f64 {
    let target_score = vecops::dot(emb.entity.row(target as usize), q);
    let local_filt: Vec<u32>;
    let (rows, mut tally) = match cand {
        None => (&emb.entity, RankTally::new(target, target_score, filtered)),
        Some(cand) => {
            let local_target = cand.local_of(target).unwrap_or(u32::MAX);
            local_filt = filtered.iter().filter_map(|&f| cand.local_of(f)).collect();
            let tally = RankTally::new(local_target, target_score, &local_filt);
            (cand.rows(), tally)
        }
    };
    scan_rows(rows, q, std::slice::from_mut(&mut tally));
    tally.rank()
}

impl ScoreModel for BlockModel {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        let mut q = vec![0.0; emb.dim()];
        self.tail_query(emb, h, r, &mut q);
        emb.entity.matvec(&q, out);
    }

    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        let mut q = vec![0.0; emb.dim()];
        self.head_query(emb, t, r, &mut q);
        emb.entity.matvec(&q, out);
    }

    fn score_triple(&self, emb: &Embeddings, triple: Triple) -> f32 {
        let mut q = vec![0.0; emb.dim()];
        self.tail_query(emb, triple.head, triple.rel, &mut q);
        vecops::dot(&q, emb.entity.row(triple.tail as usize))
    }

    fn tail_rank(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: Option<&CandidateSet>,
        _scores: &mut Vec<f32>,
    ) -> f64 {
        let mut q = vec![0.0; emb.dim()];
        self.tail_query(emb, h, r, &mut q);
        rank_with_query(emb, &q, target, filtered, cand)
    }

    fn head_rank(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: Option<&CandidateSet>,
        _scores: &mut Vec<f32>,
    ) -> f64 {
        let mut q = vec![0.0; emb.dim()];
        self.head_query(emb, t, r, &mut q);
        rank_with_query(emb, &q, target, filtered, cand)
    }
}

/// Reusable scratch buffers for [`train_minibatch`] — keeps the hot loop
/// allocation-free (one set per trainer).
#[derive(Debug, Default)]
pub struct BlockScratch {
    q: Vec<f32>,
    g_q: Vec<f32>,
    grad_x: Vec<f32>,
    grad_r: Vec<f32>,
    x_copy: Vec<f32>,
    r_copy: Vec<f32>,
    scores: Vec<f32>,
    candidates: Vec<u32>,
}

impl BlockScratch {
    /// Fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, dim: usize) {
        self.q.resize(dim, 0.0);
        self.g_q.resize(dim, 0.0);
        self.grad_x.resize(dim, 0.0);
        self.grad_r.resize(dim, 0.0);
        self.x_copy.resize(dim, 0.0);
        self.r_copy.resize(dim, 0.0);
    }
}

/// One direction of the 1-vs-all step. `anchor` is the known entity
/// (head for tail-prediction), `target` the entity to predict.
/// `pub(crate)` so the gradient contract checker can isolate one side.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_side(
    model: &BlockModel,
    sf_is_transposed: bool,
    emb: &mut Embeddings,
    opt_entity: &mut dyn Optimizer,
    opt_relation: &mut dyn Optimizer,
    anchor: u32,
    rel: u32,
    target: u32,
    mode: LossMode,
    neg: Option<&NegCtx>,
    rng: &mut Rng,
    scratch: &mut BlockScratch,
) -> f32 {
    let dim = emb.dim();
    scratch.resize(dim);
    let sf = if sf_is_transposed {
        model.sf_for_transposed(rel)
    } else {
        model.sf_for(rel)
    };
    // Copy the rows we read: the optimizer may update them below.
    scratch
        .x_copy
        .copy_from_slice(emb.entity.row(anchor as usize));
    scratch
        .r_copy
        .copy_from_slice(emb.relation.row(rel as usize));
    model.query_with(sf, &scratch.x_copy, &scratch.r_copy, &mut scratch.q);

    // Candidate set: all entities, or target + k uniform negatives.
    let num_entities = emb.num_entities();
    scratch.candidates.clear();
    let target_slot;
    match mode {
        LossMode::Full => {
            scratch.scores.resize(num_entities, 0.0);
            emb.entity.matvec(&scratch.q, &mut scratch.scores);
            target_slot = target as usize;
            // Candidates are implicit (all); leave `candidates` empty.
        }
        LossMode::Sampled { negatives } => {
            scratch.candidates.push(target);
            for _ in 0..negatives {
                let mut c = rng.next_below(num_entities) as u32;
                if c == target {
                    c = (c + 1) % num_entities as u32;
                }
                scratch.candidates.push(c);
            }
            scratch.scores.resize(scratch.candidates.len(), 0.0);
            for (slot, &c) in scratch.candidates.iter().enumerate() {
                scratch.scores[slot] = vecops::dot(&scratch.q, emb.entity.row(c as usize));
            }
            target_slot = 0;
        }
        LossMode::NegSampling { negatives, .. } => {
            // Slot 0 is the positive; the block of filtered negatives
            // corrupts the side being predicted (tail unless this is
            // the transposed/head-prediction direction).
            scratch.candidates.push(target);
            scratch.candidates.resize(1 + negatives, 0);
            sample_neg_block(
                anchor,
                rel,
                target,
                !sf_is_transposed,
                num_entities,
                neg.map(|n| n.filter),
                rng,
                &mut scratch.candidates[1..],
            );
            scratch.scores.resize(scratch.candidates.len(), 0.0);
            for (slot, &c) in scratch.candidates.iter().enumerate() {
                scratch.scores[slot] = vecops::dot(&scratch.q, emb.entity.row(c as usize));
            }
            target_slot = 0;
        }
    }

    let loss = match mode {
        LossMode::NegSampling {
            gamma,
            adversarial_temp,
            ..
        } => neg_sampling_loss_and_residual(&mut scratch.scores, gamma, adversarial_temp),
        _ => log_loss_and_residual(&mut scratch.scores, target_slot),
    };
    // scratch.scores now holds the per-candidate residual ∂L/∂s.

    // g_q = Σ_c resid[c] · E[c]; entity rows get resid[c] · q.
    vecops::zero(&mut scratch.g_q);
    match mode {
        LossMode::Full => {
            emb.entity
                .matvec_transpose(&scratch.scores, &mut scratch.g_q);
            // Dense candidate update: every entity row moves. Apply in one
            // sweep to keep optimizer state contiguous.
            let dim = emb.dim();
            let mut row_grad = vec![0.0f32; dim];
            for c in 0..num_entities {
                let resid = scratch.scores[c];
                if resid == 0.0 {
                    continue;
                }
                vecops::scaled_copy(resid, &scratch.q, &mut row_grad);
                opt_entity.step_at(emb.entity.as_mut_slice(), c * dim, &row_grad);
            }
        }
        LossMode::Sampled { .. } => {
            let dim = emb.dim();
            let mut row_grad = vec![0.0f32; dim];
            for (slot, &c) in scratch.candidates.iter().enumerate() {
                let resid = scratch.scores[slot];
                vecops::axpy(resid, emb.entity.row(c as usize), &mut scratch.g_q);
                vecops::scaled_copy(resid, &scratch.q, &mut row_grad);
                opt_entity.step_at(emb.entity.as_mut_slice(), c as usize * dim, &row_grad);
            }
        }
        LossMode::NegSampling { .. } => {
            // Two passes: accumulate g_q from the *pre-update* rows,
            // then scatter the entity steps. Negatives are drawn with
            // replacement, and a duplicate read after its first step
            // would make the applied update not the gradient of any
            // single point — the finite-difference contract
            // (`block-neg-sampling`) pins this down. Also matches the
            // data-parallel path, which always accumulates shard-side
            // before applying.
            let dim = emb.dim();
            let mut row_grad = vec![0.0f32; dim];
            for (slot, &c) in scratch.candidates.iter().enumerate() {
                vecops::axpy(
                    scratch.scores[slot],
                    emb.entity.row(c as usize),
                    &mut scratch.g_q,
                );
            }
            for (slot, &c) in scratch.candidates.iter().enumerate() {
                vecops::scaled_copy(scratch.scores[slot], &scratch.q, &mut row_grad);
                opt_entity.step_at(emb.entity.as_mut_slice(), c as usize * dim, &row_grad);
            }
        }
    }

    // Chain rule through q into the anchor row and the relation row.
    vecops::zero(&mut scratch.grad_x);
    vecops::zero(&mut scratch.grad_r);
    model.backprop_query(
        sf,
        &scratch.x_copy,
        &scratch.r_copy,
        &scratch.g_q,
        &mut scratch.grad_x,
        &mut scratch.grad_r,
    );
    opt_entity.step_at(
        emb.entity.as_mut_slice(),
        anchor as usize * dim,
        &scratch.grad_x,
    );
    opt_relation.step_at(
        emb.relation.as_mut_slice(),
        rel as usize * dim,
        &scratch.grad_r,
    );
    loss
}

/// Whether `mode` corrupts the tail side of `triple` this step: both
/// sides under every mode except Bernoulli negative sampling, which
/// draws one side per triple from the relation's fitted tail
/// probability. Returns `(tail_side, head_side)`.
#[inline]
pub(crate) fn sides_for(
    mode: LossMode,
    neg: Option<&NegCtx>,
    t: Triple,
    rng: &mut Rng,
) -> (bool, bool) {
    match mode {
        LossMode::NegSampling {
            corruption: Corruption::Bernoulli,
            ..
        } => {
            let p = neg
                .and_then(|n| n.bernoulli.as_ref())
                .map(|b| b.tail_prob(t.rel))
                .unwrap_or(0.5);
            let tail = rng.bernoulli(p);
            (tail, !tail)
        }
        _ => (true, true),
    }
}

/// One pass over a minibatch: for every triple, a tail-prediction and a
/// head-prediction step (or the Bernoulli-chosen single side under
/// [`LossMode::NegSampling`]). `neg` supplies the filtered-negative
/// context for the neg-sampling objective; `None` falls back to
/// target-excluded uniform sampling. Returns the mean per-side loss.
#[allow(clippy::too_many_arguments)]
pub fn train_minibatch(
    model: &BlockModel,
    emb: &mut Embeddings,
    opt_entity: &mut dyn Optimizer,
    opt_relation: &mut dyn Optimizer,
    batch: &[Triple],
    mode: LossMode,
    neg: Option<&NegCtx>,
    rng: &mut Rng,
    scratch: &mut BlockScratch,
) -> f32 {
    if batch.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    let mut sides = 0u32;
    for &t in batch {
        let (tail_side, head_side) = sides_for(mode, neg, t, rng);
        if tail_side {
            total += train_side(
                model,
                false,
                emb,
                opt_entity,
                opt_relation,
                t.head,
                t.rel,
                t.tail,
                mode,
                neg,
                rng,
                scratch,
            );
            sides += 1;
        }
        if head_side {
            total += train_side(
                model,
                true,
                emb,
                opt_entity,
                opt_relation,
                t.tail,
                t.rel,
                t.head,
                mode,
                neg,
                rng,
                scratch,
            );
            sides += 1;
        }
    }
    total / sides.max(1) as f32
}

/// Apply the N3 (nuclear 3-norm) regularisation gradient of Lacroix et
/// al. (2018) to the factor rows of each triple in `batch`:
/// `∂(λ‖x‖₃³)/∂x = 3λ · sign(x) · x²`. The paper's training protocol
/// follows this regulariser family; it is what keeps the 1-vs-all
/// objective from inflating embedding norms.
pub fn apply_n3(
    emb: &mut Embeddings,
    opt_entity: &mut dyn Optimizer,
    opt_relation: &mut dyn Optimizer,
    batch: &[Triple],
    lambda: f32,
) {
    let dim = emb.dim();
    let mut grad = vec![0.0f32; dim];
    let fill = |row: &[f32], grad: &mut [f32]| {
        for (g, &x) in grad.iter_mut().zip(row) {
            *g = 3.0 * lambda * x * x * x.signum();
        }
    };
    for t in batch {
        for &e in &[t.head, t.tail] {
            fill(emb.entity.row(e as usize), &mut grad);
            opt_entity.step_at(emb.entity.as_mut_slice(), e as usize * dim, &grad);
        }
        fill(emb.relation.row(t.rel as usize), &mut grad);
        opt_relation.step_at(emb.relation.as_mut_slice(), t.rel as usize * dim, &grad);
    }
}

/// Mean multiclass log-loss of a triple set without updating anything
/// (used by the `ERAS^los` / `ERAS^dif` ablations as `M_val`).
pub fn evaluate_loss(model: &BlockModel, emb: &Embeddings, triples: &[Triple]) -> f32 {
    if triples.is_empty() {
        return 0.0;
    }
    let mut q = vec![0.0; emb.dim()];
    let mut scores = vec![0.0; emb.num_entities()];
    let mut total = 0.0f32;
    for &t in triples {
        model.tail_query(emb, t.head, t.rel, &mut q);
        emb.entity.matvec(&q, &mut scores);
        total += log_loss_and_residual(&mut scores, t.tail as usize);
        model.head_query(emb, t.tail, t.rel, &mut q);
        emb.entity.matvec(&q, &mut scores);
        total += log_loss_and_residual(&mut scores, t.head as usize);
    }
    total / (2.0 * triples.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_linalg::optim::{Adagrad, Sgd};
    use eras_sf::zoo;

    fn setup(dim: usize) -> (Embeddings, Rng) {
        let mut rng = Rng::seed_from_u64(42);
        let emb = Embeddings::init(12, 3, dim, &mut rng);
        (emb, rng)
    }

    #[test]
    fn score_matches_explicit_triple_dot_sum() {
        let (emb, _) = setup(8);
        let model = BlockModel::universal(zoo::complex(), 3);
        let t = Triple::new(1, 0, 2);
        let s = model.score_triple(&emb, t);
        // Manual: sum over nonzero cells of sign * <h_i, r_b, t_j>.
        let bs = 2;
        let h = emb.entity.row(1);
        let r = emb.relation.row(0);
        let tl = emb.entity.row(2);
        let mut manual = 0.0;
        for (i, j, op) in zoo::complex().nonzero_cells() {
            let b = op.block().unwrap() as usize;
            manual += op.sign()
                * vecops::triple_dot(
                    &h[i * bs..(i + 1) * bs],
                    &r[b * bs..(b + 1) * bs],
                    &tl[j * bs..(j + 1) * bs],
                );
        }
        assert!((s - manual).abs() < 1e-5, "{s} vs {manual}");
    }

    #[test]
    fn tail_scores_agree_with_per_triple_scores() {
        let (emb, _) = setup(8);
        let model = BlockModel::universal(zoo::simple(), 3);
        let mut out = vec![0.0; emb.num_entities()];
        model.score_all_tails(&emb, 3, 1, &mut out);
        for t in 0..emb.num_entities() as u32 {
            let s = model.score_triple(&emb, Triple::new(3, 1, t));
            assert!((out[t as usize] - s).abs() < 1e-5);
        }
    }

    #[test]
    fn head_scores_agree_with_per_triple_scores() {
        let (emb, _) = setup(8);
        let model = BlockModel::universal(zoo::analogy(), 3);
        let mut out = vec![0.0; emb.num_entities()];
        model.score_all_heads(&emb, 5, 2, &mut out);
        for h in 0..emb.num_entities() as u32 {
            let s = model.score_triple(&emb, Triple::new(h, 2, 5));
            assert!((out[h as usize] - s).abs() < 1e-5);
        }
    }

    #[test]
    fn distmult_scores_are_symmetric() {
        let (emb, _) = setup(8);
        let model = BlockModel::universal(zoo::distmult(4), 3);
        for (h, t) in [(0u32, 1u32), (2, 7), (4, 4)] {
            let fwd = model.score_triple(&emb, Triple::new(h, 0, t));
            let bwd = model.score_triple(&emb, Triple::new(t, 0, h));
            assert!((fwd - bwd).abs() < 1e-5);
        }
    }

    #[test]
    fn relation_aware_dispatch() {
        let (emb, _) = setup(8);
        let model =
            BlockModel::relation_aware(vec![zoo::distmult(4), zoo::simple()], vec![0, 1, 0]);
        let t = Triple::new(1, 1, 2);
        let s_aware = model.score_triple(&emb, t);
        let s_simple = BlockModel::universal(zoo::simple(), 3).score_triple(&emb, t);
        assert!((s_aware - s_simple).abs() < 1e-6);
        let t0 = Triple::new(1, 0, 2);
        let s0 = model.score_triple(&emb, t0);
        let s_dm = BlockModel::universal(zoo::distmult(4), 3).score_triple(&emb, t0);
        assert!((s0 - s_dm).abs() < 1e-6);
    }

    /// The load-bearing test: analytic gradients == finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        let dim = 8;
        let (emb, mut rng) = setup(dim);
        let model = BlockModel::universal(zoo::complex(), 3);
        let t = Triple::new(1, 0, 2);

        // Loss as a pure function of embeddings (tail side, full softmax).
        let loss_of = |emb: &Embeddings| -> f32 {
            let mut q = vec![0.0; dim];
            model.tail_query(emb, t.head, t.rel, &mut q);
            let mut scores = vec![0.0; emb.num_entities()];
            emb.entity.matvec(&q, &mut scores);
            log_loss_and_residual(&mut scores, t.tail as usize)
        };

        // Analytic gradient via an SGD step with lr = 1: params_new =
        // params_old − grad, so grad = old − new.
        let mut emb_step = emb.clone();
        let mut opt_e = Sgd::new(1.0, 0.0);
        let mut opt_r = Sgd::new(1.0, 0.0);
        let mut scratch = BlockScratch::new();
        train_side(
            &model,
            false,
            &mut emb_step,
            &mut opt_e,
            &mut opt_r,
            t.head,
            t.rel,
            t.tail,
            LossMode::Full,
            None,
            &mut rng,
            &mut scratch,
        );
        let grad_entity: Vec<f32> = emb
            .entity
            .as_slice()
            .iter()
            .zip(emb_step.entity.as_slice())
            .map(|(o, n)| o - n)
            .collect();
        let grad_relation: Vec<f32> = emb
            .relation
            .as_slice()
            .iter()
            .zip(emb_step.relation.as_slice())
            .map(|(o, n)| o - n)
            .collect();

        let eps = 2e-3f32;
        // Check a sample of entity coordinates (rows 1, 2, 5) and all
        // relation-0 coordinates.
        for &(row, col) in &[(1usize, 0usize), (1, 5), (2, 3), (5, 7), (2, 0)] {
            let idx = row * dim + col;
            let mut plus = emb.clone();
            plus.entity.as_mut_slice()[idx] += eps;
            let mut minus = emb.clone();
            minus.entity.as_mut_slice()[idx] -= eps;
            let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (fd - grad_entity[idx]).abs() < 2e-2,
                "entity[{row},{col}]: fd {fd} vs analytic {}",
                grad_entity[idx]
            );
        }
        for col in 0..dim {
            let mut plus = emb.clone();
            plus.relation.as_mut_slice()[col] += eps;
            let mut minus = emb.clone();
            minus.relation.as_mut_slice()[col] -= eps;
            let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (fd - grad_relation[col]).abs() < 2e-2,
                "relation[0,{col}]: fd {fd} vs analytic {}",
                grad_relation[col]
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (mut emb, mut rng) = setup(8);
        let model = BlockModel::universal(zoo::complex(), 3);
        let data: Vec<Triple> = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(2, 1, 3),
            Triple::new(3, 1, 4),
            Triple::new(4, 2, 5),
        ];
        let before = evaluate_loss(&model, &emb, &data);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 1e-4);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 1e-4);
        let mut scratch = BlockScratch::new();
        for _ in 0..30 {
            train_minibatch(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                LossMode::Full,
                None,
                &mut rng,
                &mut scratch,
            );
        }
        let after = evaluate_loss(&model, &emb, &data);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn sampled_mode_also_learns() {
        let (mut emb, mut rng) = setup(8);
        let model = BlockModel::universal(zoo::simple(), 3);
        let data: Vec<Triple> = (0..8u32).map(|i| Triple::new(i, 0, (i + 1) % 12)).collect();
        let before = evaluate_loss(&model, &emb, &data);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 0.0);
        let mut scratch = BlockScratch::new();
        for _ in 0..40 {
            train_minibatch(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                LossMode::Sampled { negatives: 6 },
                None,
                &mut rng,
                &mut scratch,
            );
        }
        let after = evaluate_loss(&model, &emb, &data);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    #[should_panic]
    fn dim_must_be_divisible_by_m() {
        let mut rng = Rng::seed_from_u64(0);
        let emb = Embeddings::init(4, 1, 6, &mut rng); // 6 % 4 != 0
        let model = BlockModel::universal(zoo::distmult(4), 1);
        let _ = model.score_triple(&emb, Triple::new(0, 0, 1));
    }

    #[test]
    #[should_panic]
    fn relation_aware_rejects_bad_assignment() {
        let _ = BlockModel::relation_aware(vec![zoo::distmult(4)], vec![0, 1]);
    }
}
