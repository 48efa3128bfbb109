//! # eras-core
//!
//! ERAS: Efficient Relation-aware Scoring Function Search — the paper's
//! primary contribution (Algorithm 2).
//!
//! ERAS searches a *set* of scoring functions `{f_n}` plus a relation
//! assignment `B` instead of AutoSF's single universal function, and does
//! so in one shot: candidate functions share one set of KG embeddings
//! through a bipartite supernet rather than each being trained from
//! scratch. Three parameter families are optimised alternately each epoch:
//!
//! 1. **embeddings ω** — stochastic updates on training minibatches, each
//!    scored by a freshly sampled architecture (Eq. 9);
//! 2. **assignment B** — EM clustering of the relation embeddings (Eq. 5);
//! 3. **architectures A** — REINFORCE on the LSTM controller with
//!    one-shot validation MRR as the (non-differentiable) reward (Eq. 7),
//!    with the *exploitative constraint* (every relation block used at
//!    least once across `{f_n}`) enforced by zeroing the reward.
//!
//! Modules:
//!
//! - [`supernet`] — the token-sequence ⇄ `{f_n}` mapping, the exploitative
//!   constraint, and one-shot reward evaluation on shared embeddings;
//! - [`config`] — search hyperparameters;
//! - [`algorithm`] — Algorithm 2: search, derivation (sample K, short-list
//!   the best one-shot rewards) and stand-alone retraining, whose first
//!   epochs screen the short-list;
//! - [`variants`] — the ablation variants of Table XI: `ERAS^los`,
//!   `ERAS^dif` (NASP-style differentiable), `ERAS^sig` (single-level),
//!   `ERAS^pde` (frozen pre-trained grouping), `ERAS^smt` (semantic
//!   grouping);
//! - [`correlation`] — the one-shot vs stand-alone MRR correlation study
//!   (Figure 5).

// Indexed loops are the clearer idiom in the numeric kernels below
// (parallel arrays, strided block views); the iterator forms clippy
// suggests would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod algorithm;
pub mod config;
pub mod correlation;
pub mod supernet;
pub mod variants;

pub use algorithm::{run_eras, ErasOutcome};
pub use config::{train_diagnostics, ConfigDiagnostic, ErasConfig, Severity};
pub use supernet::Supernet;
pub use variants::Variant;
