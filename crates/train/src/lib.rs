//! # eras-train
//!
//! The KG-embedding training and evaluation engine.
//!
//! The paper's experiments sit on a standard KGE stack: embeddings trained
//! with the multiclass log-loss of Lacroix et al. (1-vs-all over entities,
//! Section IV-C2), evaluated with filtered MRR / Hit@k link prediction and
//! triplet classification. This crate implements that stack on the CPU
//! with *exact analytic gradients* — every model in scope is a shallow
//! multilinear form, so no autodiff engine is required, and every gradient
//! is verified against finite differences in the test suite.
//!
//! Contents:
//!
//! - [`embeddings`] — the `ω = {E, R}` parameter tables;
//! - [`block`] — the workhorse: the (relation-aware) block bilinear model
//!   `f_n(h,r,t) = Σ ⟨h_i, o, t_j⟩` with the sequential sampled-softmax
//!   training step of the search loops. AutoSF, ERAS and the bilinear zoo
//!   (DistMult, ComplEx, SimplE, Analogy) are all instances;
//! - [`baselines`] — the non-bilinear comparators of Table VI implemented
//!   from scratch: TransE, TransH, RotatE (margin loss + negative
//!   sampling) and TuckER (multiclass loss, trained core tensor);
//! - [`quate`] — QuatE, quaternion rotations (Table VI's strongest TBM
//!   besides the searched functions);
//! - [`mlpe`] — a learned-projection neural scorer standing in for the
//!   ConvE/HypER family (substitution documented in DESIGN.md §2);
//! - [`hole`] — HolE, circular-correlation embeddings (the HolEX family's
//!   base model);
//! - [`loss`] — loss-mode configuration shared by the trainers;
//! - [`trainer`] — the stand-alone training loop with validation-based
//!   early stopping (the paper's "train to convergence" protocol);
//! - [`eval`] — filtered link-prediction metrics (MRR, Hit@1/3/10), with
//!   per-relation and per-pattern slicing (Tables III, VI, VIII);
//! - [`classify`] — triplet classification with relation-specific
//!   thresholds fitted on validation (Table X);
//! - [`negative`] — filtered negative sampling;
//! - [`parallel`] — deterministic data-parallel minibatch training on
//!   the shared thread pool (bit-identical for every thread count): the
//!   step of the full-softmax and neg-sampling losses;
//! - [`grads`] — the gradient containers the trainers' pure gradient
//!   kernels fill (gradient math separated from optimizer application);
//! - [`contract`] — the gradient contract: every analytic gradient above
//!   checked against central finite differences (`eras audit` runs it).

// Indexed loops are the clearer idiom in the numeric kernels below
// (parallel arrays, strided block views); the iterator forms clippy
// suggests would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod baselines;
pub mod block;
pub mod checkpoint;
pub mod classify;
pub mod contract;
pub mod embeddings;
pub mod eval;
pub mod grads;
pub mod hole;
pub mod io;
pub mod loss;
pub mod mlpe;
pub mod negative;
pub mod parallel;
pub mod quate;
pub mod trainer;

pub use block::BlockModel;
pub use contract::{check_case, run_all_contracts, GradCase, GradReport};
pub use embeddings::Embeddings;
pub use eval::{CandidateSet, LinkPredictionMetrics, RankingMode, ScoreModel};
pub use loss::{Corruption, LossMode};
pub use negative::NegCtx;
