//! The gradient contract: every analytic gradient in this crate checked
//! against central finite differences.
//!
//! Each [`GradCase`] packages one small, deterministic instance of a
//! model (fixed seed, fixed triple, fixed candidate list) and exposes
//! its parameters as one flat `f32` vector. `loss(params)` re-evaluates
//! the *production* forward code at the given parameters; `grad(params)`
//! assembles a dense gradient from the *production* gradient kernels
//! (`distance_grads` / `side_grads` / `step_grads`, or the sharded
//! step's shard gradient for the block model). [`check_case`] then
//! compares the analytic gradient against `(L(x+ε) − L(x−ε)) / 2ε`
//! coordinate by coordinate and reports the worst relative error per
//! tensor.
//!
//! The `eras audit` gradient pass runs [`run_all_contracts`] and fails
//! on any report whose error exceeds [`DEFAULT_TOLERANCE`].

use crate::baselines::{MarginConfig, RotatE, TransE, TransH, TuckEr};
use crate::block::BlockModel;
use crate::embeddings::Embeddings;
use crate::eval::ScoreModel;
use crate::grads::{MlpSideGrads, SideGrads, TransHGrads, TripleGrads, TuckErGrads};
use crate::hole::HolE;
use crate::loss::LossMode;
use crate::mlpe::MlpE;
use crate::negative::sample_neg_block;
use crate::parallel::shard_gradient;
use crate::quate::QuatE;
use eras_data::Triple;
use eras_linalg::softmax::{
    log_loss_and_residual, log_sum_exp, neg_sampling_loss_and_residual, sigmoid, softmax_inplace,
    softplus,
};
use eras_linalg::Rng;
use eras_sf::zoo;

/// Maximum allowed relative error between analytic and finite-difference
/// gradients, at f32 precision.
pub const DEFAULT_TOLERANCE: f64 = 1e-3;

/// One finite-difference-checkable gradient instance.
pub trait GradCase {
    /// Display name (`"transe"`, `"block-complex"`, ...).
    fn name(&self) -> &str;
    /// `(tensor name, length)` segments; concatenated they lay out
    /// `params()`.
    fn segments(&self) -> Vec<(&'static str, usize)>;
    /// The flat parameter vector at the check point.
    fn params(&self) -> Vec<f32>;
    /// The loss at `params`, via the production forward code.
    fn loss(&self, params: &[f32]) -> f32;
    /// The dense analytic gradient at `params`, via the production
    /// gradient kernels. Same layout as `params`.
    fn grad(&self, params: &[f32]) -> Vec<f32>;
    /// Central-difference step size.
    fn eps(&self) -> f32 {
        1e-2
    }
}

/// Worst finite-difference disagreement within one named tensor.
#[derive(Debug, Clone)]
pub struct TensorCheck {
    /// Tensor name from [`GradCase::segments`].
    pub tensor: &'static str,
    /// Number of coordinates checked.
    pub len: usize,
    /// Worst relative error in this tensor.
    pub max_rel_err: f64,
    /// Finite-difference value at the worst coordinate.
    pub worst_fd: f64,
    /// Analytic value at the worst coordinate.
    pub worst_analytic: f64,
}

/// Result of finite-difference checking one [`GradCase`].
#[derive(Debug, Clone)]
pub struct GradReport {
    /// Case name.
    pub model: String,
    /// Total coordinates checked.
    pub params_checked: usize,
    /// Worst relative error across all tensors.
    pub max_rel_err: f64,
    /// Per-tensor breakdown.
    pub tensors: Vec<TensorCheck>,
}

impl GradReport {
    /// Whether every coordinate agreed within `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_err < tol
    }
}

/// Relative error with a floor on the denominator: near-zero gradient
/// coordinates would otherwise divide finite-difference noise (~1e-5 at
/// f32) by itself. The floor scales with the case's gradient magnitude
/// so a genuinely wrong small gradient is still caught.
fn rel_err(fd: f64, analytic: f64, floor: f64) -> f64 {
    (fd - analytic).abs() / (analytic.abs() + fd.abs()).max(floor)
}

/// Finite-difference check one case over every parameter coordinate.
pub fn check_case(case: &dyn GradCase) -> GradReport {
    let p0 = case.params();
    let analytic = case.grad(&p0);
    assert_eq!(
        analytic.len(),
        p0.len(),
        "{}: gradient / parameter layout mismatch",
        case.name()
    );
    let eps = case.eps();
    let scale = analytic.iter().fold(0.0f32, |m, g| m.max(g.abs())) as f64;
    let floor = (0.05 * scale).max(0.05);

    let mut work = p0.clone();
    let mut tensors = Vec::new();
    let mut offset = 0usize;
    let mut global_max = 0.0f64;
    for (tensor, len) in case.segments() {
        let mut check = TensorCheck {
            tensor,
            len,
            max_rel_err: 0.0,
            worst_fd: 0.0,
            worst_analytic: 0.0,
        };
        for i in offset..offset + len {
            work[i] = p0[i] + eps;
            let lp = case.loss(&work) as f64;
            work[i] = p0[i] - eps;
            let lm = case.loss(&work) as f64;
            work[i] = p0[i];
            let fd = (lp - lm) / (2.0 * eps as f64);
            let a = analytic[i] as f64;
            let rel = rel_err(fd, a, floor);
            if rel > check.max_rel_err {
                check.max_rel_err = rel;
                check.worst_fd = fd;
                check.worst_analytic = a;
            }
        }
        global_max = global_max.max(check.max_rel_err);
        offset += len;
        tensors.push(check);
    }
    assert_eq!(
        offset,
        p0.len(),
        "{}: segments don't cover params",
        case.name()
    );
    GradReport {
        model: case.name().to_string(),
        params_checked: p0.len(),
        max_rel_err: global_max,
        tensors,
    }
}

/// The full contract: one case per model family in this crate plus the
/// shared loss kernels.
pub fn all_cases() -> Vec<Box<dyn GradCase>> {
    vec![
        Box::new(BlockCase::new()),
        Box::new(TransECase::new()),
        Box::new(TransHCase::new()),
        Box::new(RotatECase::new()),
        Box::new(TuckErCase::new()),
        Box::new(QueryModelCase::hole(true)),
        Box::new(QueryModelCase::hole(false)),
        Box::new(QueryModelCase::quate(true)),
        Box::new(QueryModelCase::quate(false)),
        Box::new(MlpECase::new()),
        Box::new(LogLossCase::new()),
        Box::new(SoftplusCase::new()),
        Box::new(LogSumExpCase::new()),
        Box::new(NegSamplingKernelCase::uniform()),
        Box::new(NegSamplingKernelCase::adversarial()),
        Box::new(BlockNegSamplingCase::new()),
    ]
}

/// Check every case; the `eras audit` gradient pass consumes this.
pub fn run_all_contracts() -> Vec<GradReport> {
    all_cases().iter().map(|c| check_case(c.as_ref())).collect()
}

// ---------------------------------------------------------------------------
// Shared embedding gather/scatter
// ---------------------------------------------------------------------------

fn gather_emb(emb: &Embeddings) -> Vec<f32> {
    let mut v = Vec::with_capacity(emb.num_parameters());
    v.extend_from_slice(emb.entity.as_slice());
    v.extend_from_slice(emb.relation.as_slice());
    v
}

fn scatter_emb(template: &Embeddings, params: &[f32]) -> Embeddings {
    let mut emb = template.clone();
    let ne = emb.entity.as_slice().len();
    emb.entity.as_mut_slice().copy_from_slice(&params[..ne]);
    let nr = emb.relation.as_slice().len();
    emb.relation
        .as_mut_slice()
        .copy_from_slice(&params[ne..ne + nr]);
    emb
}

// ---------------------------------------------------------------------------
// Block bilinear model (the paper's workhorse)
// ---------------------------------------------------------------------------

struct BlockCase {
    emb: Embeddings,
    model: BlockModel,
    triple: Triple,
}

impl BlockCase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(11);
        BlockCase {
            emb: Embeddings::init(6, 2, 8, &mut rng),
            model: BlockModel::universal(zoo::complex(), 2),
            triple: Triple::new(1, 0, 2),
        }
    }
}

impl GradCase for BlockCase {
    fn name(&self) -> &str {
        "block-complex"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        gather_emb(&self.emb)
    }

    /// Tail-side plus head-side full multiclass log-loss — exactly what
    /// one `train_minibatch_parallel` call on this triple descends.
    fn loss(&self, params: &[f32]) -> f32 {
        let emb = scatter_emb(&self.emb, params);
        let ne = emb.num_entities();
        let mut scores = vec![0.0f32; ne];
        self.model
            .score_all_tails(&emb, self.triple.head, self.triple.rel, &mut scores);
        let tail_loss = log_loss_and_residual(&mut scores, self.triple.tail as usize);
        self.model
            .score_all_heads(&emb, self.triple.tail, self.triple.rel, &mut scores);
        let head_loss = log_loss_and_residual(&mut scores, self.triple.head as usize);
        tail_loss + head_loss
    }

    /// The full-softmax shard gradient of the triple: both sides at the
    /// same point, summed — what the loss above differentiates to.
    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let emb = scatter_emb(&self.emb, params);
        // Full mode never samples, so the RNG is inert here.
        let mut rng = Rng::seed_from_u64(0);
        let (entity, relation) =
            shard_gradient(&self.model, &emb, &[self.triple], LossMode::Full, &mut rng);
        [entity, relation].concat()
    }
}

// ---------------------------------------------------------------------------
// Translational / rotational margin models
// ---------------------------------------------------------------------------

/// Accumulate a triple's row gradients, scaled by `sign`, into the dense
/// embedding-layout gradient vector.
fn scatter_triple_grads(grad: &mut [f32], emb: &Embeddings, t: Triple, g: &TripleGrads, sign: f32) {
    let dim = emb.dim();
    let ne = emb.entity.as_slice().len();
    for k in 0..dim {
        grad[t.head as usize * dim + k] += sign * g.head[k];
        grad[t.tail as usize * dim + k] += sign * g.tail[k];
        grad[ne + t.rel as usize * dim + k] += sign * g.rel[k];
    }
}

struct TransECase {
    emb: Embeddings,
    pos: Triple,
    neg: Triple,
    margin: f32,
}

impl TransECase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(12);
        TransECase {
            emb: Embeddings::init(6, 2, 6, &mut rng),
            pos: Triple::new(1, 0, 2),
            neg: Triple::new(1, 0, 4),
            // Large enough that the hinge is always active in the FD
            // neighbourhood (distances here are O(1)).
            margin: 10.0,
        }
    }
}

impl GradCase for TransECase {
    fn name(&self) -> &str {
        "transe"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        gather_emb(&self.emb)
    }

    /// The margin ranking loss `max(0, γ − s⁺ + s⁻)` via the production
    /// scoring path.
    fn loss(&self, params: &[f32]) -> f32 {
        let emb = scatter_emb(&self.emb, params);
        let model = TransE::new(&emb, MarginConfig::default());
        (self.margin - model.score_triple(&emb, self.pos) + model.score_triple(&emb, self.neg))
            .max(0.0)
    }

    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let emb = scatter_emb(&self.emb, params);
        let mut grad = vec![0.0f32; params.len()];
        let mut g = TripleGrads::new(emb.dim());
        TransE::distance_grads(&emb, self.pos, &mut g);
        scatter_triple_grads(&mut grad, &emb, self.pos, &g, 1.0);
        TransE::distance_grads(&emb, self.neg, &mut g);
        scatter_triple_grads(&mut grad, &emb, self.neg, &g, -1.0);
        grad
    }
}

struct TransHCase {
    emb: Embeddings,
    model: TransH,
    pos: Triple,
    neg: Triple,
    margin: f32,
}

impl TransHCase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(13);
        let emb = Embeddings::init(6, 2, 6, &mut rng);
        let model = TransH::new(&emb, MarginConfig::default(), &mut rng);
        TransHCase {
            emb,
            model,
            pos: Triple::new(0, 1, 3),
            neg: Triple::new(0, 1, 5),
            margin: 10.0,
        }
    }

    fn rebuild(&self, params: &[f32]) -> (Embeddings, TransH) {
        let emb = scatter_emb(&self.emb, params);
        let mut model = self.model.clone();
        let np = emb.num_parameters();
        let nn = model.normals.as_slice().len();
        model
            .normals
            .as_mut_slice()
            .copy_from_slice(&params[np..np + nn]);
        (emb, model)
    }
}

impl GradCase for TransHCase {
    fn name(&self) -> &str {
        "transh"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
            ("normals", self.model.normals.as_slice().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        let mut v = gather_emb(&self.emb);
        v.extend_from_slice(self.model.normals.as_slice());
        v
    }

    fn loss(&self, params: &[f32]) -> f32 {
        let (emb, model) = self.rebuild(params);
        (self.margin - model.score_triple(&emb, self.pos) + model.score_triple(&emb, self.neg))
            .max(0.0)
    }

    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let (emb, model) = self.rebuild(params);
        let dim = emb.dim();
        let np = emb.num_parameters();
        let ne = emb.entity.as_slice().len();
        let mut grad = vec![0.0f32; params.len()];
        let mut g = TransHGrads::new(dim);
        for (triple, sign) in [(self.pos, 1.0f32), (self.neg, -1.0f32)] {
            model.distance_grads(&emb, triple, &mut g);
            for k in 0..dim {
                grad[triple.head as usize * dim + k] += sign * g.head[k];
                grad[triple.tail as usize * dim + k] += sign * g.tail[k];
                grad[ne + triple.rel as usize * dim + k] += sign * g.rel[k];
                grad[np + triple.rel as usize * dim + k] += sign * g.normal[k];
            }
        }
        grad
    }
}

struct RotatECase {
    emb: Embeddings,
    pos: Triple,
    neg: Triple,
    margin: f32,
}

impl RotatECase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(14);
        RotatECase {
            emb: Embeddings::init(6, 2, 6, &mut rng),
            pos: Triple::new(2, 1, 0),
            neg: Triple::new(2, 1, 5),
            margin: 10.0,
        }
    }
}

impl GradCase for RotatECase {
    fn name(&self) -> &str {
        "rotate"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        gather_emb(&self.emb)
    }

    /// Hinge with the margin constant subtracted back out: same
    /// gradient, but the loss stays O(1) so f32 roundoff in the finite
    /// difference stays an order of magnitude below the tolerance.
    fn loss(&self, params: &[f32]) -> f32 {
        let emb = scatter_emb(&self.emb, params);
        let model = RotatE::new(&emb, MarginConfig::default());
        (self.margin - model.score_triple(&emb, self.pos) + model.score_triple(&emb, self.neg))
            .max(0.0)
            - self.margin
    }

    fn eps(&self) -> f32 {
        // The |z| distance has high curvature near small moduli; a
        // smaller step keeps the O(ε²) truncation term under tolerance.
        4e-3
    }

    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let emb = scatter_emb(&self.emb, params);
        let mut grad = vec![0.0f32; params.len()];
        let mut g = TripleGrads::new(emb.dim());
        RotatE::distance_grads(&emb, self.pos, &mut g);
        scatter_triple_grads(&mut grad, &emb, self.pos, &g, 1.0);
        RotatE::distance_grads(&emb, self.neg, &mut g);
        scatter_triple_grads(&mut grad, &emb, self.neg, &g, -1.0);
        grad
    }
}

// ---------------------------------------------------------------------------
// TuckER
// ---------------------------------------------------------------------------

struct TuckErCase {
    emb: Embeddings,
    model: TuckEr,
    triple: Triple,
}

impl TuckErCase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(15);
        let emb = Embeddings::init(6, 2, 4, &mut rng);
        let model = TuckEr::new(&emb, 0.05, &mut rng);
        TuckErCase {
            emb,
            model,
            triple: Triple::new(3, 0, 1),
        }
    }

    fn rebuild(&self, params: &[f32]) -> (Embeddings, TuckEr) {
        let emb = scatter_emb(&self.emb, params);
        let mut model = self.model.clone();
        let np = emb.num_parameters();
        let core_len = model.core().len();
        model.core_mut().copy_from_slice(&params[np..np + core_len]);
        (emb, model)
    }
}

impl GradCase for TuckErCase {
    fn name(&self) -> &str {
        "tucker"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
            ("core", self.model.core().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        let mut v = gather_emb(&self.emb);
        v.extend_from_slice(self.model.core());
        v
    }

    /// The full-softmax tail-prediction loss via the production query
    /// path (`score_all_tails` = `E · (W ×₁ h ×₂ r)`).
    fn loss(&self, params: &[f32]) -> f32 {
        let (emb, model) = self.rebuild(params);
        let mut scores = vec![0.0f32; emb.num_entities()];
        model.score_all_tails(&emb, self.triple.head, self.triple.rel, &mut scores);
        log_loss_and_residual(&mut scores, self.triple.tail as usize)
    }

    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let (emb, model) = self.rebuild(params);
        let dim = emb.dim();
        let ne_len = emb.entity.as_slice().len();
        let np = emb.num_parameters();
        let mut g = TuckErGrads::new(dim, emb.num_entities());
        model.step_grads(&emb, self.triple, &mut g);
        let mut grad = vec![0.0f32; params.len()];
        for (c, &resid) in g.resid.iter().enumerate() {
            for k in 0..dim {
                grad[c * dim + k] += resid * g.v[k];
            }
        }
        for k in 0..dim {
            grad[self.triple.head as usize * dim + k] += g.head[k];
            grad[ne_len + self.triple.rel as usize * dim + k] += g.rel[k];
        }
        grad[np..].copy_from_slice(&g.core);
        grad
    }
}

// ---------------------------------------------------------------------------
// HolE / QuatE (query-vector models sharing `SideGrads`)
// ---------------------------------------------------------------------------

enum QueryKind {
    HolE,
    QuatE,
}

struct QueryModelCase {
    emb: Embeddings,
    kind: QueryKind,
    tail_side: bool,
    anchor: u32,
    rel: u32,
    candidates: Vec<u32>,
}

impl QueryModelCase {
    fn with_kind(kind: QueryKind, tail_side: bool, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let emb = Embeddings::init(6, 2, 4, &mut rng);
        // Deterministic 1-vs-all: the target first, then every other
        // entity (brute-force "full softmax" through the sampled path).
        let target = 2u32;
        let mut candidates = vec![target];
        candidates.extend((0..6u32).filter(|&c| c != target));
        QueryModelCase {
            emb,
            kind,
            tail_side,
            anchor: 1,
            rel: 0,
            candidates,
        }
    }

    fn hole(tail_side: bool) -> Self {
        Self::with_kind(QueryKind::HolE, tail_side, 16)
    }

    fn quate(tail_side: bool) -> Self {
        Self::with_kind(QueryKind::QuatE, tail_side, 17)
    }

    fn side_grads(&self, emb: &Embeddings, g: &mut SideGrads) {
        match self.kind {
            QueryKind::HolE => HolE::side_grads(
                emb,
                self.anchor,
                self.rel,
                &self.candidates,
                self.tail_side,
                g,
            ),
            QueryKind::QuatE => QuatE::side_grads(
                emb,
                self.anchor,
                self.rel,
                &self.candidates,
                self.tail_side,
                g,
            ),
        }
    }
}

impl GradCase for QueryModelCase {
    fn name(&self) -> &str {
        match (&self.kind, self.tail_side) {
            (QueryKind::HolE, true) => "hole-tail",
            (QueryKind::HolE, false) => "hole-head",
            (QueryKind::QuatE, true) => "quate-tail",
            (QueryKind::QuatE, false) => "quate-head",
        }
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        gather_emb(&self.emb)
    }

    fn loss(&self, params: &[f32]) -> f32 {
        let emb = scatter_emb(&self.emb, params);
        let mut g = SideGrads::new(emb.dim());
        self.side_grads(&emb, &mut g);
        g.loss
    }

    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let emb = scatter_emb(&self.emb, params);
        let dim = emb.dim();
        let ne_len = emb.entity.as_slice().len();
        let mut g = SideGrads::new(dim);
        self.side_grads(&emb, &mut g);
        let mut grad = vec![0.0f32; params.len()];
        for (slot, &c) in self.candidates.iter().enumerate() {
            for k in 0..dim {
                grad[c as usize * dim + k] += g.resid[slot] * g.q[k];
            }
        }
        for k in 0..dim {
            grad[self.anchor as usize * dim + k] += g.anchor[k];
            grad[ne_len + self.rel as usize * dim + k] += g.rel[k];
        }
        grad
    }
}

// ---------------------------------------------------------------------------
// MlpE
// ---------------------------------------------------------------------------

struct MlpECase {
    emb: Embeddings,
    model: MlpE,
    anchor: u32,
    rel: u32,
    candidates: Vec<u32>,
}

impl MlpECase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(18);
        let emb = Embeddings::init(6, 2, 4, &mut rng);
        let mut model = MlpE::new(&emb, 3, 0.05, 3, &mut rng);
        // Push the hidden pre-activations away from the ReLU kink so the
        // finite-difference step cannot cross it.
        let mut net = model.net_param_vec();
        let w1_len = 3 * 2 * 4;
        for b in net[w1_len..w1_len + 3].iter_mut() {
            *b = 0.3;
        }
        model.set_net_params(&net);
        let target = 4u32;
        let mut candidates = vec![target];
        candidates.extend((0..6u32).filter(|&c| c != target));
        MlpECase {
            emb,
            model,
            anchor: 0,
            rel: 1,
            candidates,
        }
    }

    fn rebuild(&self, params: &[f32]) -> (Embeddings, MlpE) {
        let emb = scatter_emb(&self.emb, params);
        let mut model = self.model.clone();
        let np = emb.num_parameters();
        model.set_net_params(&params[np..]);
        (emb, model)
    }
}

impl GradCase for MlpECase {
    fn name(&self) -> &str {
        "mlpe"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        let d = self.emb.dim();
        let h = self.model.hidden();
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
            ("w1", h * 2 * d),
            ("b1", h),
            ("w2", d * h),
            ("b2", d),
        ]
    }

    fn params(&self) -> Vec<f32> {
        let mut v = gather_emb(&self.emb);
        v.extend_from_slice(&self.model.net_param_vec());
        v
    }

    fn loss(&self, params: &[f32]) -> f32 {
        let (emb, model) = self.rebuild(params);
        let mut g = MlpSideGrads::new(emb.dim(), model.hidden());
        model.side_grads(&emb, self.anchor, self.rel, &self.candidates, &mut g);
        g.loss
    }

    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let (emb, model) = self.rebuild(params);
        let d = emb.dim();
        let h = model.hidden();
        let ne_len = emb.entity.as_slice().len();
        let np = emb.num_parameters();
        let mut g = MlpSideGrads::new(d, h);
        model.side_grads(&emb, self.anchor, self.rel, &self.candidates, &mut g);

        let mut grad = vec![0.0f32; params.len()];
        for (slot, &c) in self.candidates.iter().enumerate() {
            for k in 0..d {
                grad[c as usize * d + k] += g.resid[slot] * g.q[k];
            }
        }
        let anchor_row: Vec<f32> = emb.entity.row(self.anchor as usize).to_vec();
        let rel_row: Vec<f32> = emb.relation.row(self.rel as usize).to_vec();
        for k in 0..d {
            grad[self.anchor as usize * d + k] += g.anchor[k];
            grad[ne_len + self.rel as usize * d + k] += g.rel[k];
        }
        // Network layers: W1 rows = d_hid[j]·[h ; r], b1 = d_hid,
        // W2 rows = g_q[i]·hid, b2 = g_q.
        let w1_off = np;
        for j in 0..h {
            let gz = g.d_hid[j];
            for k in 0..d {
                grad[w1_off + j * 2 * d + k] = gz * anchor_row[k];
                grad[w1_off + j * 2 * d + d + k] = gz * rel_row[k];
            }
        }
        let b1_off = w1_off + h * 2 * d;
        grad[b1_off..b1_off + h].copy_from_slice(&g.d_hid);
        let w2_off = b1_off + h;
        for i in 0..d {
            for j in 0..h {
                grad[w2_off + i * h + j] = g.g_q[i] * g.hid[j];
            }
        }
        let b2_off = w2_off + d * h;
        grad[b2_off..b2_off + d].copy_from_slice(&g.g_q);
        grad
    }
}

// ---------------------------------------------------------------------------
// Loss kernels
// ---------------------------------------------------------------------------

struct LogLossCase {
    scores: Vec<f32>,
    target: usize,
}

impl LogLossCase {
    fn new() -> Self {
        LogLossCase {
            scores: vec![0.3, -0.7, 1.2, 0.1, -0.4],
            target: 2,
        }
    }
}

impl GradCase for LogLossCase {
    fn name(&self) -> &str {
        "log-loss-residual"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![("scores", self.scores.len())]
    }

    fn params(&self) -> Vec<f32> {
        self.scores.clone()
    }

    fn loss(&self, params: &[f32]) -> f32 {
        let mut work = params.to_vec();
        log_loss_and_residual(&mut work, self.target)
    }

    /// The residual `softmax − onehot` the kernel leaves in place *is*
    /// the gradient — that identity is the contract under test.
    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let mut work = params.to_vec();
        let _ = log_loss_and_residual(&mut work, self.target);
        work
    }
}

struct SoftplusCase {
    xs: Vec<f32>,
}

impl SoftplusCase {
    fn new() -> Self {
        SoftplusCase {
            xs: vec![-3.0, -0.5, 0.0, 0.8, 4.0],
        }
    }
}

impl GradCase for SoftplusCase {
    fn name(&self) -> &str {
        "softplus-sigmoid"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![("x", self.xs.len())]
    }

    fn params(&self) -> Vec<f32> {
        self.xs.clone()
    }

    fn loss(&self, params: &[f32]) -> f32 {
        params
            .iter()
            .map(|&x| eras_linalg::softmax::softplus(x))
            .sum()
    }

    /// `softplus'(x) = sigmoid(x)` — the identity the RotatE
    /// self-adversarial loss relies on.
    fn grad(&self, params: &[f32]) -> Vec<f32> {
        params.iter().map(|&x| sigmoid(x)).collect()
    }
}

struct LogSumExpCase {
    xs: Vec<f32>,
}

impl LogSumExpCase {
    fn new() -> Self {
        LogSumExpCase {
            xs: vec![0.2, -1.1, 0.9, 2.0],
        }
    }
}

impl GradCase for LogSumExpCase {
    fn name(&self) -> &str {
        "log-sum-exp-softmax"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![("x", self.xs.len())]
    }

    fn params(&self) -> Vec<f32> {
        self.xs.clone()
    }

    fn loss(&self, params: &[f32]) -> f32 {
        log_sum_exp(params)
    }

    /// `∇ log Σ exp = softmax`.
    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let mut work = params.to_vec();
        softmax_inplace(&mut work);
        work
    }
}

/// The negative-sampling loss kernel: `softplus(−(γ+s₀)) + Σᵢ wᵢ ·
/// softplus(γ+sᵢ)`. Segments split the positive slot from the negative
/// block so a wrong sign on either term is pinned to its tensor.
///
/// The adversarial weights `wᵢ = softmax(α·sᵢ)` are *detached* in the
/// production kernel (self-adversarial sampling differentiates through
/// the softplus terms only, never through the weights). The `loss`
/// below therefore freezes the weights at the base point — that frozen
/// surrogate is exactly the function whose gradient the kernel's
/// in-place residual claims to be, and `check_case` only ever asks for
/// the analytic gradient at the base point, where the kernel's weights
/// and the frozen ones coincide.
struct NegSamplingKernelCase {
    name: &'static str,
    scores: Vec<f32>, // slot 0 = positive, rest = negatives
    gamma: f32,
    adv_temp: f32,
    frozen_weights: Vec<f32>, // per negative, at the base point
}

impl NegSamplingKernelCase {
    fn with_temp(name: &'static str, adv_temp: f32) -> Self {
        let scores = vec![0.4f32, -0.3, 0.9, 0.1, -1.2];
        let negs = &scores[1..];
        let frozen_weights: Vec<f32> = if adv_temp > 0.0 {
            let mut w: Vec<f32> = negs.iter().map(|&s| adv_temp * s).collect();
            softmax_inplace(&mut w);
            w
        } else {
            vec![1.0 / negs.len() as f32; negs.len()]
        };
        NegSamplingKernelCase {
            name,
            scores,
            // Mid-range gamma: both sigmoids well away from saturation,
            // so every residual coordinate is O(0.1) and FD-checkable.
            gamma: 0.5,
            adv_temp,
            frozen_weights,
        }
    }

    fn uniform() -> Self {
        Self::with_temp("neg-sampling-uniform", 0.0)
    }

    fn adversarial() -> Self {
        Self::with_temp("neg-sampling-adversarial", 1.5)
    }
}

impl GradCase for NegSamplingKernelCase {
    fn name(&self) -> &str {
        self.name
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![("positive", 1), ("negatives", self.scores.len() - 1)]
    }

    fn params(&self) -> Vec<f32> {
        self.scores.clone()
    }

    fn loss(&self, params: &[f32]) -> f32 {
        let mut l = softplus(-(self.gamma + params[0]));
        for (w, &s) in self.frozen_weights.iter().zip(&params[1..]) {
            l += w * softplus(self.gamma + s);
        }
        l
    }

    /// The in-place residual the production kernel leaves behind *is*
    /// the gradient of the frozen-weight loss — that identity is the
    /// contract under test.
    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let mut work = params.to_vec();
        let _ = neg_sampling_loss_and_residual(&mut work, self.gamma, self.adv_temp);
        work
    }
}

// ---------------------------------------------------------------------------
// Block model under negative sampling (the million-entity training path)
// ---------------------------------------------------------------------------

/// End-to-end contract for the sharded step's `LossMode::NegSampling`
/// kernel: seeded candidate sampling, the fused query/scatter gradient
/// path, and the logsigmoid kernel, differentiated against a loss
/// rebuilt from the production forward scorer over the *same* seeded
/// candidates.
struct BlockNegSamplingCase {
    emb: Embeddings,
    model: BlockModel,
    triple: Triple,
    negatives: usize,
    gamma: f32,
}

impl BlockNegSamplingCase {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(19);
        BlockNegSamplingCase {
            emb: Embeddings::init(6, 2, 8, &mut rng),
            model: BlockModel::universal(zoo::complex(), 2),
            triple: Triple::new(1, 0, 2),
            negatives: 3,
            gamma: 0.5,
        }
    }

    /// The shard's RNG seed: the candidate stream is a pure function of
    /// it.
    const SEED: u64 = 21;

    /// The two prediction sides, in the order the shard draws their
    /// negatives.
    fn sides(&self) -> [(bool, u32, u32); 2] {
        [
            (false, self.triple.head, self.triple.tail),
            (true, self.triple.tail, self.triple.head),
        ]
    }

    fn mode(&self) -> LossMode {
        LossMode::NegSampling {
            negatives: self.negatives,
            gamma: self.gamma,
            // Zero temperature: uniform weights, so the true gradient
            // and the detached-weight gradient coincide and plain FD
            // applies. The adversarial weight path has its own kernel
            // case above.
            adversarial_temp: 0.0,
            corruption: crate::loss::Corruption::Uniform,
        }
    }
}

impl GradCase for BlockNegSamplingCase {
    fn name(&self) -> &str {
        "block-neg-sampling"
    }

    fn segments(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("entity", self.emb.entity.as_slice().len()),
            ("relation", self.emb.relation.as_slice().len()),
        ]
    }

    fn params(&self) -> Vec<f32> {
        gather_emb(&self.emb)
    }

    /// Rebuild the loss from production pieces: the same seeded
    /// negative draws (under uniform corruption, `sample_neg_block` is
    /// all a shard uses its RNG for, tail side first), the production
    /// triple scorer, and the production loss kernel.
    fn loss(&self, params: &[f32]) -> f32 {
        let emb = scatter_emb(&self.emb, params);
        let mut total = 0.0f32;
        let mut rng = Rng::seed_from_u64(Self::SEED);
        for (transposed, anchor, target) in self.sides() {
            let mut candidates = vec![target; 1];
            candidates.resize(1 + self.negatives, 0);
            sample_neg_block(
                anchor,
                self.triple.rel,
                target,
                !transposed,
                emb.num_entities(),
                None,
                &mut rng,
                &mut candidates[1..],
            );
            let mut scores: Vec<f32> = candidates
                .iter()
                .map(|&c| {
                    let t = if transposed {
                        Triple::new(c, self.triple.rel, anchor)
                    } else {
                        Triple::new(anchor, self.triple.rel, c)
                    };
                    self.model.score_triple(&emb, t)
                })
                .collect();
            total += neg_sampling_loss_and_residual(&mut scores, self.gamma, 0.0);
        }
        total
    }

    /// The shard gradient of the triple under the same RNG seed as
    /// `loss`, both sides at the same point.
    fn grad(&self, params: &[f32]) -> Vec<f32> {
        let emb = scatter_emb(&self.emb, params);
        let mut rng = Rng::seed_from_u64(Self::SEED);
        let (entity, relation) =
            shard_gradient(&self.model, &emb, &[self.triple], self.mode(), &mut rng);
        [entity, relation].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: every model in the crate passes the
    /// finite-difference contract at f32 with rel err < 1e-3.
    #[test]
    fn every_contract_holds() {
        for report in run_all_contracts() {
            eprintln!(
                "contract {:<22} {:>5} params  max rel err {:.2e}",
                report.model, report.params_checked, report.max_rel_err
            );
            assert!(
                report.passes(DEFAULT_TOLERANCE),
                "{}: max rel err {:.2e} (worst tensor: {:?})",
                report.model,
                report.max_rel_err,
                report
                    .tensors
                    .iter()
                    .max_by(|a, b| a.max_rel_err.total_cmp(&b.max_rel_err))
            );
        }
    }

    #[test]
    fn contract_covers_every_model_family() {
        let names: Vec<String> = all_cases().iter().map(|c| c.name().to_string()).collect();
        for expected in [
            "block-complex",
            "transe",
            "transh",
            "rotate",
            "tucker",
            "hole-tail",
            "hole-head",
            "quate-tail",
            "quate-head",
            "mlpe",
            "log-loss-residual",
            "softplus-sigmoid",
            "log-sum-exp-softmax",
            "neg-sampling-uniform",
            "neg-sampling-adversarial",
            "block-neg-sampling",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing case {expected}"
            );
        }
    }

    /// A deliberately corrupted gradient must be caught — the seeded
    /// violation of the audit acceptance criteria.
    struct Perturbed(TransECase);

    impl GradCase for Perturbed {
        fn name(&self) -> &str {
            "transe-perturbed"
        }
        fn segments(&self) -> Vec<(&'static str, usize)> {
            self.0.segments()
        }
        fn params(&self) -> Vec<f32> {
            self.0.params()
        }
        fn loss(&self, params: &[f32]) -> f32 {
            self.0.loss(params)
        }
        fn grad(&self, params: &[f32]) -> Vec<f32> {
            let mut g = self.0.grad(params);
            // A sign slip on one coordinate — the classic hand-derived
            // gradient bug.
            g[3] = -g[3] + 0.2;
            g
        }
    }

    #[test]
    fn perturbed_gradient_is_detected() {
        let report = check_case(&Perturbed(TransECase::new()));
        assert!(
            !report.passes(DEFAULT_TOLERANCE),
            "perturbed gradient slipped through: max rel err {:.2e}",
            report.max_rel_err
        );
    }

    /// A corrupted negative-sampling gradient (halved residuals — the
    /// classic missing-weight bug) must fail the contract on both the
    /// kernel case and the end-to-end block case.
    struct ScaledNegGrad<C: GradCase>(C);

    impl<C: GradCase> GradCase for ScaledNegGrad<C> {
        fn name(&self) -> &str {
            "neg-sampling-scaled"
        }
        fn segments(&self) -> Vec<(&'static str, usize)> {
            self.0.segments()
        }
        fn params(&self) -> Vec<f32> {
            self.0.params()
        }
        fn loss(&self, params: &[f32]) -> f32 {
            self.0.loss(params)
        }
        fn grad(&self, params: &[f32]) -> Vec<f32> {
            let mut g = self.0.grad(params);
            for x in &mut g {
                *x *= 0.5;
            }
            g
        }
    }

    #[test]
    fn corrupted_neg_sampling_gradient_is_detected() {
        for report in [
            check_case(&ScaledNegGrad(NegSamplingKernelCase::uniform())),
            check_case(&ScaledNegGrad(NegSamplingKernelCase::adversarial())),
            check_case(&ScaledNegGrad(BlockNegSamplingCase::new())),
        ] {
            assert!(
                !report.passes(DEFAULT_TOLERANCE),
                "halved neg-sampling gradient slipped through: max rel err {:.2e}",
                report.max_rel_err
            );
        }
    }

    #[test]
    fn report_segments_cover_all_params() {
        for case in all_cases() {
            let total: usize = case.segments().iter().map(|(_, l)| l).sum();
            assert_eq!(total, case.params().len(), "{}", case.name());
        }
    }
}
