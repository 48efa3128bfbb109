//! # eras — Efficient Relation-aware Scoring Function Search for KG Embedding
//!
//! A from-scratch Rust reproduction of **ERAS** (Di, Yao, Zhang, Chen —
//! ICDE 2021): automated search for *relation-aware* scoring functions in
//! knowledge-graph embedding, together with the complete substrate it
//! needs (embedding training engine, baseline models, the AutoSF / random
//! / Bayes search baselines, synthetic benchmark generators) and a
//! harness that regenerates every table and figure of the paper's
//! evaluation section.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace and provides a [`prelude`]. See `README.md` for the
//! architecture overview and `DESIGN.md` for the system inventory.
//!
//! ## Quickstart
//!
//! ```
//! use eras::prelude::*;
//!
//! // A small synthetic KG with labelled relation patterns.
//! let dataset = Preset::Tiny.build(7);
//! let filter = FilterIndex::build(&dataset);
//!
//! // Search relation-aware scoring functions with ERAS.
//! let cfg = ErasConfig { n_groups: 2, epochs: 2, ..ErasConfig::fast() };
//! let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
//! assert_eq!(outcome.sfs.len(), 2);
//! println!("test MRR = {:.3}", outcome.test.mrr);
//! ```

pub use eras_audit as audit;
pub use eras_ctrl as ctrl;
pub use eras_data as data;
pub use eras_linalg as linalg;
pub use eras_obs as obs;
pub use eras_rules as rules;
pub use eras_search as search;
pub use eras_serve as serve;
pub use eras_sf as sf;
pub use eras_train as train;

/// The paper's primary contribution: the ERAS algorithm itself.
pub mod eras_algorithm {
    pub use eras_core::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use eras_core::algorithm::{run_eras, ErasOutcome};
    pub use eras_core::config::ErasConfig;
    pub use eras_core::correlation::{one_shot_vs_standalone, OneShotMeasure};
    pub use eras_core::supernet::Supernet;
    pub use eras_core::variants::Variant;
    pub use eras_data::generator::{generate, GeneratorConfig, RelationSpec};
    pub use eras_data::{Dataset, FilterIndex, Preset, RelationPattern, Triple};
    pub use eras_linalg::pool::ThreadPool;
    pub use eras_linalg::Rng;
    pub use eras_rules::{LearnConfig, RuleModel};
    pub use eras_serve::{Answer, Direction, Query, QueryEngine};
    pub use eras_sf::{render, zoo, BlockSf, Op};
    pub use eras_train::classify::classify_dataset;
    pub use eras_train::eval::{
        link_prediction, link_prediction_by_pattern, LinkPredictionMetrics, RankingMode, ScoreModel,
    };
    pub use eras_train::io::Snapshot;
    pub use eras_train::trainer::{train_standalone, TrainConfig};
    pub use eras_train::{BlockModel, Embeddings, LossMode};
}
