//! Stand-alone training loop (the paper's "train to convergence" protocol).
//!
//! AutoSF evaluates candidates by training each one stand-alone; ERAS does
//! the same only for its final derived structure (step 12 of Algorithm 2).
//! [`train_standalone`] packages that protocol: epochs of shuffled
//! minibatches,
//! periodic filtered-MRR validation, and early stopping on a patience
//! window. The loss mode picks the minibatch step: the sequential
//! [`train_minibatch`] under [`LossMode::Sampled`], the sharded
//! [`train_minibatch_parallel`] under [`LossMode::Full`] and
//! [`LossMode::NegSampling`].

use crate::block::{apply_n3, train_minibatch, BlockModel, BlockScratch};
use crate::checkpoint::{config_fingerprint, TrainCheckpoint};
use crate::embeddings::Embeddings;
use crate::eval::{link_prediction, LinkPredictionMetrics, RankingMode};
use crate::io::IoError;
use crate::loss::{Corruption, LossMode};
use crate::negative::NegCtx;
use crate::parallel::{train_minibatch_parallel, GradShards};
use eras_data::{Dataset, FilterIndex, Triple};
use eras_linalg::optim::{Adagrad, Optimizer};
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_sf::numeric::NormBounds;
use std::path::PathBuf;

/// Hyperparameters of a stand-alone training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Embedding dimension `d` (must be divisible by `M`).
    pub dim: usize,
    /// Adagrad learning rate for embeddings (the paper's optimizer).
    pub lr: f32,
    /// Decoupled L2 penalty.
    pub l2: f32,
    /// Weighted nuclear 3-norm (N3) regularisation strength (Lacroix et
    /// al. 2018) applied to the factors of each positive triple; 0
    /// disables it.
    pub n3: f32,
    /// Multiplicative learning-rate decay applied after every epoch
    /// (1.0 = constant; part of the paper's tuned hyperparameter set,
    /// Section V-A2).
    pub decay_rate: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Validate every this many epochs.
    pub eval_every: usize,
    /// Stop when validation MRR has not improved for this many
    /// consecutive validations.
    pub patience: usize,
    /// Loss materialisation.
    pub loss: LossMode,
    /// How validation and test ranking candidates are materialised:
    /// exact filtered ranking, or a seeded candidate sample (the
    /// affordable protocol on million-entity graphs).
    pub ranking: RankingMode,
    /// RNG seed for init, shuffling and negative sampling.
    pub seed: u64,
    /// Declared per-coordinate embedding-magnitude bounds: the numeric
    /// contract the static certifier (`eras_sf::numeric::certify`)
    /// interprets candidate structures under. A declaration, not an
    /// enforced clamp — the default comfortably covers the uniform
    /// init scale `√(6/d)/3` plus regularised drift.
    pub bounds: NormBounds,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            dim: 32,
            lr: 0.1,
            l2: 1e-4,
            n3: 0.0,
            decay_rate: 1.0,
            batch_size: 256,
            max_epochs: 60,
            eval_every: 5,
            patience: 3,
            loss: LossMode::sampled_default(),
            ranking: RankingMode::Full,
            seed: 0,
            bounds: NormBounds::default(),
        }
    }
}

/// Where and how often a training run checkpoints itself.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path (written atomically on every save).
    pub path: PathBuf,
    /// Save after every this many completed epochs (0 disables saves;
    /// resume can still read an existing file).
    pub every: usize,
    /// Attempt to resume from an existing checkpoint at `path`. A
    /// missing, torn, or corrupt file falls back to a fresh start —
    /// which converges to the same bits, just from epoch 1 — while a
    /// checkpoint from a *different* configuration is a hard error.
    pub resume: bool,
}

/// Result of a stand-alone run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Trained embeddings at the best-validation point... (see note):
    /// this implementation returns the *final* embeddings; the metrics
    /// fields record the best validation seen and the final test numbers.
    pub embeddings: Embeddings,
    /// Best validation metrics observed.
    pub best_valid: LinkPredictionMetrics,
    /// Metrics on the test split with the final embeddings.
    pub test: LinkPredictionMetrics,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Mean training loss of the last epoch.
    pub final_loss: f32,
}

/// Train `model` stand-alone on `dataset` and evaluate it, using the
/// process-wide [`ThreadPool::global`] for evaluation and (under
/// [`LossMode::Full`] and [`LossMode::NegSampling`]) for the minibatch
/// gradients.
pub fn train_standalone(
    model: &BlockModel,
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &TrainConfig,
) -> TrainOutcome {
    train_standalone_on(model, dataset, filter, cfg, ThreadPool::global())
}

/// [`train_standalone`] on an explicit pool. The pool size never
/// affects the outcome — minibatch gradients and evaluation metrics
/// are bit-identical for every pool size — so callers pick a pool for
/// resource reasons only.
pub fn train_standalone_on(
    model: &BlockModel,
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &TrainConfig,
    pool: &ThreadPool,
) -> TrainOutcome {
    train_standalone_resumable(model, dataset, filter, cfg, pool, None)
        .expect("training without a checkpoint spec performs no I/O") // audit:allow(W402): statically infallible — the None branch never touches a file
}

/// [`train_standalone_on`] with optional checkpointing: with a
/// [`CheckpointSpec`] the run saves its complete state every
/// `spec.every` epochs and, when `spec.resume` is set, continues a
/// previous run from its last checkpoint **bit-identically** — the
/// outcome equals the uninterrupted run's in every field. The only
/// errors are checkpoint I/O failures and a resume/config mismatch;
/// with `spec == None` this function cannot fail.
pub fn train_standalone_resumable(
    model: &BlockModel,
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &TrainConfig,
    pool: &ThreadPool,
    spec: Option<&CheckpointSpec>,
) -> Result<TrainOutcome, IoError> {
    let _run_span = eras_obs::span!(
        "train.run",
        dim = cfg.dim,
        max_epochs = cfg.max_epochs,
        batch_size = cfg.batch_size,
        triples = dataset.train.len(),
    );
    let registry = eras_obs::metrics::global();
    let epochs_counter = registry.counter("train.epochs");
    let batches_counter = registry.counter("train.batches");
    let evals_counter = registry.counter("train.evals");
    let neg_batches_counter = registry.counter("train.neg_batches");
    let neg_samples_counter = registry.counter("train.neg_samples");

    // Filtered-negative context for the neg-sampling objective: the
    // train-split filter is shared, and Bernoulli corruption fits its
    // per-relation tail probabilities once per run.
    let neg_ctx = match cfg.loss {
        LossMode::NegSampling {
            corruption: Corruption::Bernoulli,
            ..
        } => Some(NegCtx::bernoulli(
            filter,
            &dataset.train,
            dataset.num_relations(),
        )),
        LossMode::NegSampling { .. } => Some(NegCtx::uniform(filter)),
        _ => None,
    };
    let neg = neg_ctx.as_ref();
    // Exact per-batch negative-draw count: Bernoulli corrupts one side
    // per triple, every other corruption both.
    let neg_per_triple = match cfg.loss {
        LossMode::NegSampling {
            negatives,
            corruption,
            ..
        } => match corruption {
            Corruption::Bernoulli => negatives,
            Corruption::Uniform => 2 * negatives,
        },
        _ => 0,
    };

    let fingerprint = config_fingerprint(
        cfg,
        dataset.num_entities(),
        dataset.num_relations(),
        dataset.train.len(),
    );

    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut emb = Embeddings::init(
        dataset.num_entities(),
        dataset.num_relations(),
        cfg.dim,
        &mut rng,
    );
    let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), cfg.lr, cfg.l2);
    let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), cfg.lr, cfg.l2);
    let mut scratch = BlockScratch::new();
    let mut shards = GradShards::new();
    let mut order: Vec<Triple> = dataset.train.clone();

    let mut best_valid = LinkPredictionMetrics::default();
    let mut strikes = 0usize;
    let mut epochs_run = 0usize;
    let mut final_loss = 0.0f32;
    let mut start_epoch = 1usize;

    if let Some(spec) = spec.filter(|s| s.resume) {
        match TrainCheckpoint::load(&spec.path) {
            Ok(ck) if ck.fingerprint == fingerprint => {
                rng = Rng::from_state(ck.rng_state);
                emb = ck.embeddings;
                opt_e = Adagrad::from_accumulator(ck.lr_entity, cfg.l2, ck.ent_accum);
                opt_r = Adagrad::from_accumulator(ck.lr_relation, cfg.l2, ck.rel_accum);
                order = ck.order;
                best_valid = ck.best_valid;
                strikes = ck.strikes;
                final_loss = ck.final_loss;
                epochs_run = ck.epoch;
                start_epoch = ck.epoch + 1;
                eras_obs::event!("train.resumed", epoch = ck.epoch);
            }
            Ok(ck) => {
                return Err(IoError::Format(format!(
                    "checkpoint {} was written by a different run \
                     (fingerprint {:#018x}, this run {:#018x})",
                    spec.path.display(),
                    ck.fingerprint,
                    fingerprint
                )));
            }
            // Missing, torn, or unreadable checkpoint: start fresh.
            // The from-scratch run walks the same deterministic path,
            // so the outcome is still bit-identical, only slower.
            Err(_) => {}
        }
    }

    for epoch in start_epoch..=cfg.max_epochs {
        let _epoch_span = eras_obs::span!("train.epoch", epoch = epoch);
        rng.shuffle(&mut order);
        let mut loss_sum = 0.0f32;
        let mut batches = 0usize;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            match cfg.loss {
                LossMode::Sampled { .. } => {
                    loss_sum += train_minibatch(
                        model,
                        &mut emb,
                        &mut opt_e,
                        &mut opt_r,
                        batch,
                        cfg.loss,
                        neg,
                        &mut rng,
                        &mut scratch,
                    );
                    if cfg.n3 > 0.0 {
                        apply_n3(
                            &mut emb,
                            &mut opt_e,
                            &mut opt_r,
                            batch,
                            cfg.n3,
                            &mut scratch,
                        );
                    }
                }
                LossMode::Full | LossMode::NegSampling { .. } => {
                    // N3 is folded into the batch gradient here rather
                    // than applied as a separate pass.
                    loss_sum += train_minibatch_parallel(
                        model,
                        &mut emb,
                        &mut opt_e,
                        &mut opt_r,
                        batch,
                        cfg.loss,
                        neg,
                        cfg.n3,
                        &mut rng,
                        pool,
                        &mut shards,
                    );
                }
            }
            if neg_per_triple > 0 {
                neg_batches_counter.inc();
                neg_samples_counter.add((neg_per_triple * batch.len()) as u64);
            }
            batches += 1;
        }
        final_loss = loss_sum / batches.max(1) as f32;
        epochs_run = epoch;
        epochs_counter.inc();
        batches_counter.add(batches as u64);
        if cfg.decay_rate != 1.0 {
            opt_e.set_learning_rate(opt_e.learning_rate() * cfg.decay_rate);
            opt_r.set_learning_rate(opt_r.learning_rate() * cfg.decay_rate);
        }

        if epoch % cfg.eval_every.max(1) == 0 && !dataset.valid.is_empty() {
            let metrics = {
                let _eval_span =
                    eras_obs::span!("train.eval", epoch = epoch, triples = dataset.valid.len());
                link_prediction(model, &emb, &dataset.valid, filter, cfg.ranking, pool)
            };
            evals_counter.inc();
            let valid_mrr = metrics.mrr;
            if metrics.mrr > best_valid.mrr {
                best_valid = metrics;
                strikes = 0;
            } else {
                strikes += 1;
                if strikes >= cfg.patience {
                    eras_obs::event!(
                        "train.early_stop",
                        epoch = epoch,
                        best_valid_mrr = best_valid.mrr,
                    );
                    break;
                }
            }
            eras_obs::event!(
                "train.progress",
                epoch = epoch,
                loss = final_loss,
                valid_mrr = valid_mrr,
                best_valid_mrr = best_valid.mrr,
                strikes = strikes,
            );
        }

        // Checkpoint *after* this epoch's eval so the patience state is
        // captured; the early-stop `break` above skips the save, so no
        // checkpoint ever records a run that already decided to stop.
        if let Some(spec) = spec {
            if spec.every > 0 && epoch.is_multiple_of(spec.every) {
                let _ckpt_span = eras_obs::span!("train.checkpoint", epoch = epoch);
                TrainCheckpoint {
                    fingerprint,
                    epoch,
                    rng_state: rng.state(),
                    order: order.clone(),
                    embeddings: emb.clone(),
                    ent_accum: opt_e.accumulator().to_vec(),
                    rel_accum: opt_r.accumulator().to_vec(),
                    lr_entity: opt_e.learning_rate(),
                    lr_relation: opt_r.learning_rate(),
                    best_valid,
                    strikes,
                    final_loss,
                }
                .save(&spec.path)?;
            }
        }
    }

    let test = {
        let _eval_span = eras_obs::span!("train.eval", triples = dataset.test.len());
        link_prediction(model, &emb, &dataset.test, filter, cfg.ranking, pool)
    };
    if dataset.valid.is_empty() {
        best_valid = test;
    }
    Ok(TrainOutcome {
        embeddings: emb,
        best_valid,
        test,
        epochs_run,
        final_loss,
    })
}

/// Convenience: stand-alone validation MRR of a structure (the quantity
/// AutoSF's predictor is trained to predict, and the x-axis of Figure 5).
pub fn standalone_valid_mrr(
    model: &BlockModel,
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &TrainConfig,
) -> f64 {
    let outcome = train_standalone(model, dataset, filter, cfg);
    outcome.best_valid.mrr
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::Preset;
    use eras_sf::zoo;

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            dim: 16,
            max_epochs: 12,
            eval_every: 4,
            patience: 2,
            batch_size: 128,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_on_tiny_preset_beats_chance() {
        let dataset = Preset::Tiny.build(3);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let outcome = train_standalone(&model, &dataset, &filter, &fast_cfg());
        // Chance MRR over 150 entities ≈ ln(150)/150 ≈ 0.03.
        assert!(
            outcome.test.mrr > 0.15,
            "ComplEx should clearly learn the planted structure, got {}",
            outcome.test.mrr
        );
        assert!(outcome.epochs_run >= 4);
        assert!(outcome.final_loss.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = Preset::Tiny.build(4);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::simple(), dataset.num_relations());
        let mut cfg = fast_cfg();
        cfg.max_epochs = 4;
        let a = train_standalone(&model, &dataset, &filter, &cfg);
        let b = train_standalone(&model, &dataset, &filter, &cfg);
        assert_eq!(a.test.mrr, b.test.mrr);
        assert_eq!(
            a.embeddings.entity.as_slice(),
            b.embeddings.entity.as_slice()
        );
    }

    #[test]
    fn training_is_identical_for_every_pool_size() {
        // Property: the *entire* stand-alone protocol — init,
        // shuffling, negative sampling, minibatch gradients, N3,
        // validation-driven early stopping — is a pure function of the
        // seed, for every loss mode (and so both steps) and any pool
        // size.
        let dataset = Preset::Tiny.build(6);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        for loss in [
            LossMode::Full,
            LossMode::Sampled { negatives: 8 },
            LossMode::NegSampling {
                negatives: 4,
                gamma: 6.0,
                adversarial_temp: 1.0,
                corruption: Corruption::Uniform,
            },
            LossMode::NegSampling {
                negatives: 4,
                gamma: 6.0,
                adversarial_temp: 0.0,
                corruption: Corruption::Bernoulli,
            },
        ] {
            let cfg = TrainConfig {
                dim: 16,
                max_epochs: 3,
                eval_every: 2,
                n3: 1e-3,
                loss,
                ..TrainConfig::default()
            };
            let reference = {
                let pool = ThreadPool::new(1);
                train_standalone_on(&model, &dataset, &filter, &cfg, &pool)
            };
            for threads in [2usize, 3, 8] {
                let pool = ThreadPool::new(threads);
                let run = train_standalone_on(&model, &dataset, &filter, &cfg, &pool);
                assert_eq!(
                    reference.embeddings.entity.as_slice(),
                    run.embeddings.entity.as_slice(),
                    "entity table diverged at {threads} threads ({loss:?})"
                );
                assert_eq!(
                    reference.embeddings.relation.as_slice(),
                    run.embeddings.relation.as_slice(),
                    "relation table diverged at {threads} threads ({loss:?})"
                );
                assert_eq!(reference.final_loss, run.final_loss, "{loss:?}");
                assert_eq!(reference.test, run.test, "{loss:?}");
                assert_eq!(reference.best_valid, run.best_valid, "{loss:?}");
                assert_eq!(reference.epochs_run, run.epochs_run, "{loss:?}");
            }
        }
    }

    #[test]
    fn full_loss_training_learns_on_tiny_preset() {
        let dataset = Preset::Tiny.build(3);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let cfg = TrainConfig {
            loss: LossMode::Full,
            ..fast_cfg()
        };
        let outcome = train_standalone(&model, &dataset, &filter, &cfg);
        assert!(
            outcome.test.mrr > 0.15,
            "full-softmax run should learn the planted structure, got {}",
            outcome.test.mrr
        );
    }

    #[test]
    fn n3_gradient_descends_the_cubed_norm() {
        use eras_data::Triple;
        use eras_linalg::optim::Sgd;
        use eras_linalg::Rng;
        let mut rng = Rng::seed_from_u64(9);
        let mut emb = crate::Embeddings::init(4, 2, 8, &mut rng);
        let cubed = |e: &crate::Embeddings, row: usize| -> f32 {
            e.entity.row(row).iter().map(|x| x.abs().powi(3)).sum()
        };
        let batch = [Triple::new(0, 1, 2)];
        let before = cubed(&emb, 0) + cubed(&emb, 2);
        let mut opt_e = Sgd::new(0.05, 0.0);
        let mut opt_r = Sgd::new(0.05, 0.0);
        let mut scratch = BlockScratch::new();
        for _ in 0..300 {
            apply_n3(&mut emb, &mut opt_e, &mut opt_r, &batch, 0.1, &mut scratch);
        }
        let after = cubed(&emb, 0) + cubed(&emb, 2);
        assert!(
            after < 0.5 * before,
            "N3 steps should shrink ‖x‖₃³: {before} -> {after}"
        );
        // Untouched rows are untouched.
        let untouched = emb.entity.row(3);
        assert!(untouched.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn decay_rate_reduces_learning_rate_over_epochs() {
        let dataset = Preset::Tiny.build(7);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::distmult(4), dataset.num_relations());
        // Training still works end-to-end with decay enabled.
        let cfg = TrainConfig {
            dim: 16,
            max_epochs: 6,
            eval_every: 6,
            patience: 1,
            decay_rate: 0.7,
            ..TrainConfig::default()
        };
        let outcome = train_standalone(&model, &dataset, &filter, &cfg);
        assert!(outcome.test.mrr > 0.0);
        assert_eq!(outcome.epochs_run, 6);
    }

    /// Resume-from-checkpoint reproduces the uninterrupted run exactly:
    /// run once with a checkpoint saved mid-run, then "crash" (discard
    /// the in-memory result) and resume from the file — every outcome
    /// field must match the plain run bit-for-bit.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let dataset = Preset::Tiny.build(8);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let cfg = TrainConfig {
            dim: 16,
            max_epochs: 6,
            eval_every: 2,
            patience: 3,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let reference = train_standalone(&model, &dataset, &filter, &cfg);

        let dir = std::env::temp_dir().join(format!("eras_resume_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CheckpointSpec {
            path: dir.join("train.ckpt"),
            every: 4, // last save lands at epoch 4, two epochs short
            resume: false,
        };
        let pool = ThreadPool::new(2);
        let first = train_standalone_resumable(&model, &dataset, &filter, &cfg, &pool, Some(&spec))
            .unwrap();
        assert_eq!(
            first.embeddings.entity.as_slice(),
            reference.embeddings.entity.as_slice(),
            "checkpointing must not perturb the run itself"
        );

        let resume = CheckpointSpec {
            resume: true,
            ..spec.clone()
        };
        let resumed =
            train_standalone_resumable(&model, &dataset, &filter, &cfg, &pool, Some(&resume))
                .unwrap();
        assert_eq!(
            resumed.embeddings.entity.as_slice(),
            reference.embeddings.entity.as_slice()
        );
        assert_eq!(
            resumed.embeddings.relation.as_slice(),
            reference.embeddings.relation.as_slice()
        );
        assert_eq!(resumed.best_valid, reference.best_valid);
        assert_eq!(resumed.test, reference.test);
        assert_eq!(resumed.epochs_run, reference.epochs_run);
        assert_eq!(resumed.final_loss, reference.final_loss);

        // A checkpoint from a different configuration is refused.
        let mut other = cfg.clone();
        other.seed = 99;
        match train_standalone_resumable(&model, &dataset, &filter, &other, &pool, Some(&resume)) {
            Err(crate::io::IoError::Format(m)) => assert!(m.contains("different run"), "{m}"),
            res => panic!("expected a fingerprint mismatch, got {res:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Negative-sampling training survives a crash/resume cycle
    /// bit-for-bit: the corruption sampler's RNG state rides the main
    /// `rng_state` in the checkpoint, so the resumed run draws the
    /// exact same negatives the uninterrupted run would have.
    #[test]
    fn neg_sampling_checkpoint_resume_is_bit_identical() {
        let dataset = Preset::Tiny.build(9);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let cfg = TrainConfig {
            dim: 16,
            max_epochs: 6,
            eval_every: 2,
            patience: 3,
            batch_size: 128,
            loss: LossMode::NegSampling {
                negatives: 8,
                gamma: 6.0,
                adversarial_temp: 1.0,
                corruption: Corruption::Bernoulli,
            },
            ..TrainConfig::default()
        };
        let reference = train_standalone(&model, &dataset, &filter, &cfg);

        let dir = std::env::temp_dir().join(format!("eras_neg_resume_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CheckpointSpec {
            path: dir.join("train.ckpt"),
            every: 4, // last save lands mid-run, two epochs short
            resume: false,
        };
        let pool = ThreadPool::new(2);
        train_standalone_resumable(&model, &dataset, &filter, &cfg, &pool, Some(&spec)).unwrap();
        let resume = CheckpointSpec {
            resume: true,
            ..spec.clone()
        };
        let resumed =
            train_standalone_resumable(&model, &dataset, &filter, &cfg, &pool, Some(&resume))
                .unwrap();
        assert_eq!(
            resumed.embeddings.entity.as_slice(),
            reference.embeddings.entity.as_slice()
        );
        assert_eq!(
            resumed.embeddings.relation.as_slice(),
            reference.embeddings.relation.as_slice()
        );
        assert_eq!(resumed.best_valid, reference.best_valid);
        assert_eq!(resumed.test, reference.test);
        assert_eq!(resumed.final_loss, reference.final_loss);

        // A checkpoint written under a different negative-sampling
        // config (same everything else) is refused: the loss
        // hyper-parameters are part of the fingerprint.
        let mut other = cfg.clone();
        other.loss = LossMode::NegSampling {
            negatives: 8,
            gamma: 9.0,
            adversarial_temp: 1.0,
            corruption: Corruption::Bernoulli,
        };
        match train_standalone_resumable(&model, &dataset, &filter, &other, &pool, Some(&resume)) {
            Err(crate::io::IoError::Format(m)) => assert!(m.contains("different run"), "{m}"),
            res => panic!("expected a fingerprint mismatch, got {res:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A trainer configured with sampled ranking at `candidates ≥
    /// num_entities` reproduces the full-ranking run bit-for-bit: the
    /// candidate draw degenerates to "all entities" and early stopping
    /// sees identical validation metrics at every gate.
    #[test]
    fn sampled_ranking_with_all_candidates_matches_full_trainer_run() {
        let dataset = Preset::Tiny.build(10);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let base = TrainConfig {
            dim: 16,
            max_epochs: 4,
            eval_every: 2,
            patience: 2,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let full = train_standalone(&model, &dataset, &filter, &base);
        let sampled_cfg = TrainConfig {
            ranking: RankingMode::Sampled {
                candidates: dataset.num_entities() * 2,
                seed: 77,
            },
            ..base
        };
        let sampled = train_standalone(&model, &dataset, &filter, &sampled_cfg);
        assert_eq!(sampled.test, full.test);
        assert_eq!(sampled.best_valid, full.best_valid);
        assert_eq!(sampled.epochs_run, full.epochs_run);
        assert_eq!(
            sampled.embeddings.entity.as_slice(),
            full.embeddings.entity.as_slice()
        );
        // A genuinely sub-sampled protocol still drives training and
        // early stopping end-to-end and produces sane metrics.
        let small_cfg = TrainConfig {
            ranking: RankingMode::Sampled {
                candidates: 40,
                seed: 77,
            },
            ..base
        };
        let small = train_standalone(&model, &dataset, &filter, &small_cfg);
        assert_eq!(small.test.count, full.test.count);
        assert!(small.test.mrr > 0.0 && small.test.mrr <= 1.0);
    }

    #[test]
    fn early_stopping_respects_patience() {
        let dataset = Preset::Tiny.build(5);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::distmult(4), dataset.num_relations());
        let cfg = TrainConfig {
            dim: 16,
            max_epochs: 100,
            eval_every: 1,
            patience: 2,
            lr: 0.0, // no learning → no improvement → stop fast
            ..TrainConfig::default()
        };
        let outcome = train_standalone(&model, &dataset, &filter, &cfg);
        assert!(
            outcome.epochs_run <= 6,
            "patience 2 with eval every epoch must stop early, ran {}",
            outcome.epochs_run
        );
    }
}
