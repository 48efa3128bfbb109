//! # eras-linalg
//!
//! Minimal dense linear-algebra substrate for the ERAS reproduction.
//!
//! The paper's implementation sits on PyTorch + CUDA; every model in scope
//! (block bilinear scoring functions, translational models, TuckER, a small
//! LSTM controller) is a shallow (multi)linear form whose gradients are
//! closed-form, so this crate provides exactly what those need and nothing
//! more:
//!
//! - [`Matrix`]: row-major `f32` matrix with the handful of kernels the
//!   training loops are hot on (`matvec`, `matvec_transpose`, rank-1 row
//!   updates).
//! - [`vecops`]: fused vector kernels (dot, axpy, Hadamard, triple-dot),
//!   hand-vectorized as explicit [`vecops::LANES`]-wide chunks with a
//!   scalar `reference` fallback (the `scalar-kernels` feature).
//! - [`scan`]: the fused, cache-blocked entity-table score→consumer
//!   kernel shared by the serving engine's batched top-k and the
//!   offline filtered evaluator.
//! - [`rng`]: a self-contained, reproducible xoshiro256++ RNG so every
//!   experiment in the repo is deterministic given a seed.
//! - [`optim`]: SGD / Adagrad / Adam with *sparse row* update support —
//!   embedding training touches only the rows in a minibatch.
//! - [`softmax`]: numerically stable softmax / log-softmax / cross-entropy.
//! - [`stats`]: mean/std, Pearson & Spearman correlation (Figure 5 of the
//!   paper), online moving average (REINFORCE baseline).
//! - [`pca`]: power-iteration PCA for 2-D inspection of relation
//!   embeddings (the Figures 3/4 case study).
//! - [`pool`]: the shared chunked thread pool every parallel code path
//!   in the workspace dispatches through (`ERAS_THREADS` sizing).
//! - [`sync`]: the synchronisation shim the pool and the lock-free
//!   caches are built on — forwards to `std::sync` in production and
//!   yields to the `eras audit --pass sched` model checker under the
//!   `sched-hook` feature.
//! - [`faults`]: the deterministic fault-injection plane the
//!   `eras audit --pass chaos` harness drives — every injection site
//!   compiles to nothing without the `fault-hook` feature.

// Indexed loops are the clearer idiom in the numeric kernels below
// (parallel arrays, strided block views); the iterator forms clippy
// suggests would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod cmp;
pub mod faults;
pub mod matrix;
pub mod optim;
pub mod pca;
pub mod pool;
pub mod rng;
pub mod scan;
pub mod softmax;
pub mod stats;
pub mod sync;
pub mod vecops;

pub use matrix::Matrix;
pub use optim::{Adagrad, AdagradRange, AdagradRanges, Adam, Optimizer, Sgd};
pub use pool::{PoolStats, ThreadPool};
pub use rng::Rng;
