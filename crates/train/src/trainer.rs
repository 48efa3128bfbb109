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
//!
//! The epoch loop lives in [`TrainRun`], a run that stops after any
//! epoch and continues later bit-identically; the `train_standalone*`
//! functions start one, advance it to `max_epochs` (saving checkpoints
//! on the way if asked) and evaluate it. ERAS advances its short-listed
//! candidates to a screen budget and continues only the winner.

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
use std::path::{Path, PathBuf};

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
    let _run_span = run_span(cfg, dataset);
    let mut run = TrainRun::start(model, dataset, filter, cfg);
    run.advance(cfg.max_epochs, pool);
    run.into_outcome(pool)
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
    let Some(spec) = spec else {
        return Ok(train_standalone_on(model, dataset, filter, cfg, pool));
    };
    let _run_span = run_span(cfg, dataset);
    let mut run = if spec.resume {
        TrainRun::resume(model, dataset, filter, cfg, &spec.path)?
    } else {
        TrainRun::start(model, dataset, filter, cfg)
    };
    // Advance from save point to save point. A run that stopped early
    // is never saved, so no checkpoint records a run that already
    // decided to stop.
    while !run.stopped && run.epochs_run < cfg.max_epochs {
        if spec.every == 0 {
            run.advance(cfg.max_epochs, pool);
            break;
        }
        run.advance((run.epochs_run / spec.every + 1) * spec.every, pool);
        if !run.stopped && run.epochs_run.is_multiple_of(spec.every) {
            run.save(&spec.path)?;
        }
    }
    Ok(run.into_outcome(pool))
}

/// Opens the `train.run` span: one model trained from its start. A run
/// continued after its first [`TrainRun::advance`] leg keeps its later
/// legs under the caller's span (ERAS's `core.retrain`), so the span
/// count is the number of models trained.
pub fn run_span(cfg: &TrainConfig, dataset: &Dataset) -> eras_obs::trace::SpanGuard {
    eras_obs::span!(
        "train.run",
        dim = cfg.dim,
        max_epochs = cfg.max_epochs,
        batch_size = cfg.batch_size,
        triples = dataset.train.len(),
    )
}

/// One stand-alone training run that can be stopped after any epoch and
/// continued: [`TrainRun::start`] (or [`TrainRun::resume`] from a
/// checkpoint), [`TrainRun::advance`] to an epoch, then
/// [`TrainRun::into_outcome`], which runs the test evaluation. The epoch
/// sequence depends only on the seed and the config, never on where the
/// legs end, so a run advanced in several legs equals one advanced in
/// one leg bit for bit. The run owns all of its mutable state (embeddings,
/// Adagrad accumulators, RNG, training order, step scratch), so several
/// runs can advance concurrently on one pool.
pub struct TrainRun<'a> {
    model: &'a BlockModel,
    dataset: &'a Dataset,
    filter: &'a FilterIndex,
    cfg: &'a TrainConfig,
    /// Filtered-negative context of the neg-sampling objective.
    neg: Option<NegCtx<'a>>,
    /// Exact negative draws per training triple (0 unless neg-sampling).
    neg_per_triple: usize,
    rng: Rng,
    emb: Embeddings,
    opt_e: Adagrad,
    opt_r: Adagrad,
    scratch: BlockScratch,
    shards: GradShards,
    order: Vec<Triple>,
    best_valid: LinkPredictionMetrics,
    strikes: usize,
    epochs_run: usize,
    final_loss: f32,
    /// Patience has stopped the run; later legs are no-ops.
    stopped: bool,
}

impl<'a> TrainRun<'a> {
    /// A fresh run: seeded initial embeddings, zero Adagrad state, epoch 0.
    pub fn start(
        model: &'a BlockModel,
        dataset: &'a Dataset,
        filter: &'a FilterIndex,
        cfg: &'a TrainConfig,
    ) -> Self {
        // Filtered-negative context for the neg-sampling objective: the
        // train-split filter is shared, and Bernoulli corruption fits its
        // per-relation tail probabilities once per run.
        let (neg, neg_per_triple) = match cfg.loss {
            LossMode::NegSampling {
                negatives,
                corruption: Corruption::Bernoulli,
                ..
            } => (
                Some(NegCtx::bernoulli(
                    filter,
                    &dataset.train,
                    dataset.num_relations(),
                )),
                negatives,
            ),
            // Every other corruption draws for both sides.
            LossMode::NegSampling { negatives, .. } => {
                (Some(NegCtx::uniform(filter)), 2 * negatives)
            }
            _ => (None, 0),
        };
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            cfg.dim,
            &mut rng,
        );
        TrainRun {
            model,
            dataset,
            filter,
            cfg,
            neg,
            neg_per_triple,
            opt_e: Adagrad::new(emb.entity.as_slice().len(), cfg.lr, cfg.l2),
            opt_r: Adagrad::new(emb.relation.as_slice().len(), cfg.lr, cfg.l2),
            rng,
            emb,
            scratch: BlockScratch::new(),
            shards: GradShards::new(),
            order: dataset.train.clone(),
            best_valid: LinkPredictionMetrics::default(),
            strikes: 0,
            epochs_run: 0,
            final_loss: 0.0,
            stopped: false,
        }
    }

    /// The run saved at `path` by [`TrainRun::save`]. A missing, torn,
    /// or unreadable file starts fresh — the from-scratch run walks the
    /// same deterministic path, so the outcome is still bit-identical,
    /// only slower — while a checkpoint from a *different*
    /// configuration is an error.
    pub fn resume(
        model: &'a BlockModel,
        dataset: &'a Dataset,
        filter: &'a FilterIndex,
        cfg: &'a TrainConfig,
        path: &Path,
    ) -> Result<Self, IoError> {
        let mut run = TrainRun::start(model, dataset, filter, cfg);
        match TrainCheckpoint::load(path) {
            Ok(ck) if ck.fingerprint == run.fingerprint() => {
                run.rng = Rng::from_state(ck.rng_state);
                run.emb = ck.embeddings;
                run.opt_e = Adagrad::from_accumulator(ck.lr_entity, cfg.l2, ck.ent_accum);
                run.opt_r = Adagrad::from_accumulator(ck.lr_relation, cfg.l2, ck.rel_accum);
                run.order = ck.order;
                run.best_valid = ck.best_valid;
                run.strikes = ck.strikes;
                run.final_loss = ck.final_loss;
                run.epochs_run = ck.epoch;
                eras_obs::event!("train.resumed", epoch = ck.epoch);
                Ok(run)
            }
            Ok(ck) => Err(IoError::Format(format!(
                "checkpoint {} was written by a different run \
                 (fingerprint {:#018x}, this run {:#018x})",
                path.display(),
                ck.fingerprint,
                run.fingerprint()
            ))),
            Err(_) => Ok(run),
        }
    }

    /// Run epochs until `until` (capped at `cfg.max_epochs`) have
    /// completed, validating every `cfg.eval_every` epochs and stopping
    /// for good once `cfg.patience` validations in a row fail to improve.
    /// A no-op on a stopped run or one already past `until`.
    pub fn advance(&mut self, until: usize, pool: &ThreadPool) {
        let cfg = self.cfg;
        let registry = eras_obs::metrics::global();
        let epochs_counter = registry.counter("train.epochs");
        let batches_counter = registry.counter("train.batches");
        let evals_counter = registry.counter("train.evals");
        let neg_batches_counter = registry.counter("train.neg_batches");
        let neg_samples_counter = registry.counter("train.neg_samples");
        let neg = self.neg.as_ref();

        while !self.stopped && self.epochs_run < until.min(cfg.max_epochs) {
            let epoch = self.epochs_run + 1;
            let _epoch_span = eras_obs::span!("train.epoch", epoch = epoch);
            self.rng.shuffle(&mut self.order);
            let mut loss_sum = 0.0f32;
            let mut batches = 0usize;
            for batch in self.order.chunks(cfg.batch_size.max(1)) {
                if cfg.loss.sharded_step() {
                    // N3 is folded into the batch gradient here rather
                    // than applied as a separate pass.
                    loss_sum += train_minibatch_parallel(
                        self.model,
                        &mut self.emb,
                        &mut self.opt_e,
                        &mut self.opt_r,
                        batch,
                        cfg.loss,
                        neg,
                        cfg.n3,
                        &mut self.rng,
                        pool,
                        &mut self.shards,
                    );
                } else {
                    loss_sum += train_minibatch(
                        self.model,
                        &mut self.emb,
                        &mut self.opt_e,
                        &mut self.opt_r,
                        batch,
                        cfg.loss,
                        neg,
                        &mut self.rng,
                        &mut self.scratch,
                    );
                    if cfg.n3 > 0.0 {
                        apply_n3(
                            &mut self.emb,
                            &mut self.opt_e,
                            &mut self.opt_r,
                            batch,
                            cfg.n3,
                            &mut self.scratch,
                        );
                    }
                }
                if self.neg_per_triple > 0 {
                    neg_batches_counter.inc();
                    neg_samples_counter.add((self.neg_per_triple * batch.len()) as u64);
                }
                batches += 1;
            }
            self.final_loss = loss_sum / batches.max(1) as f32;
            self.epochs_run = epoch;
            epochs_counter.inc();
            batches_counter.add(batches as u64);
            if cfg.decay_rate != 1.0 {
                self.opt_e
                    .set_learning_rate(self.opt_e.learning_rate() * cfg.decay_rate);
                self.opt_r
                    .set_learning_rate(self.opt_r.learning_rate() * cfg.decay_rate);
            }

            let valid = &self.dataset.valid;
            if epoch.is_multiple_of(cfg.eval_every.max(1)) && !valid.is_empty() {
                let metrics = {
                    let _eval_span =
                        eras_obs::span!("train.eval", epoch = epoch, triples = valid.len());
                    link_prediction(self.model, &self.emb, valid, self.filter, cfg.ranking, pool)
                };
                evals_counter.inc();
                let valid_mrr = metrics.mrr;
                if metrics.mrr > self.best_valid.mrr {
                    self.best_valid = metrics;
                    self.strikes = 0;
                } else {
                    self.strikes += 1;
                    if self.strikes >= cfg.patience {
                        eras_obs::event!(
                            "train.early_stop",
                            epoch = epoch,
                            best_valid_mrr = self.best_valid.mrr,
                        );
                        self.stopped = true;
                        break;
                    }
                }
                eras_obs::event!(
                    "train.progress",
                    epoch = epoch,
                    loss = self.final_loss,
                    valid_mrr = valid_mrr,
                    best_valid_mrr = self.best_valid.mrr,
                    strikes = self.strikes,
                );
            }
        }
    }

    /// Best validation metrics observed so far.
    pub fn best_valid(&self) -> LinkPredictionMetrics {
        self.best_valid
    }

    /// Free the minibatch step's reusable buffers (under the sharded
    /// step, its shard tables) while the run waits between legs; the
    /// next leg sizes them again. No number of the run changes.
    pub fn release_buffers(&mut self) {
        self.scratch = BlockScratch::new();
        self.shards = GradShards::new();
    }

    /// Save the run's complete state to `path` (atomic write), so that
    /// [`TrainRun::resume`] continues it bit-identically.
    pub fn save(&self, path: &Path) -> Result<(), IoError> {
        let _ckpt_span = eras_obs::span!("train.checkpoint", epoch = self.epochs_run);
        TrainCheckpoint {
            fingerprint: self.fingerprint(),
            epoch: self.epochs_run,
            rng_state: self.rng.state(),
            order: self.order.clone(),
            embeddings: self.emb.clone(),
            ent_accum: self.opt_e.accumulator().to_vec(),
            rel_accum: self.opt_r.accumulator().to_vec(),
            lr_entity: self.opt_e.learning_rate(),
            lr_relation: self.opt_r.learning_rate(),
            best_valid: self.best_valid,
            strikes: self.strikes,
            final_loss: self.final_loss,
        }
        .save(path)
    }

    /// End the run: evaluate the final embeddings on the test split.
    pub fn into_outcome(self, pool: &ThreadPool) -> TrainOutcome {
        let test = {
            let _eval_span = eras_obs::span!("train.eval", triples = self.dataset.test.len());
            link_prediction(
                self.model,
                &self.emb,
                &self.dataset.test,
                self.filter,
                self.cfg.ranking,
                pool,
            )
        };
        TrainOutcome {
            embeddings: self.emb,
            best_valid: if self.dataset.valid.is_empty() {
                test
            } else {
                self.best_valid
            },
            test,
            epochs_run: self.epochs_run,
            final_loss: self.final_loss,
        }
    }

    fn fingerprint(&self) -> u64 {
        config_fingerprint(
            self.cfg,
            self.dataset.num_entities(),
            self.dataset.num_relations(),
            self.dataset.train.len(),
        )
    }
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

    fn assert_same_outcome(a: &TrainOutcome, b: &TrainOutcome, what: &str) {
        assert_eq!(
            a.embeddings.entity.as_slice(),
            b.embeddings.entity.as_slice(),
            "entity table ({what})"
        );
        assert_eq!(
            a.embeddings.relation.as_slice(),
            b.embeddings.relation.as_slice(),
            "relation table ({what})"
        );
        assert_eq!(a.best_valid, b.best_valid, "{what}");
        assert_eq!(a.test, b.test, "{what}");
        assert_eq!(a.epochs_run, b.epochs_run, "{what}");
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits(), "{what}");
    }

    /// A run advanced in two legs — the way ERAS screens a candidate,
    /// frees its step buffers and then continues the winner — equals the
    /// one-leg run in every outcome field, for each step and when
    /// patience stops the run in the first leg (the second leg is then a
    /// no-op).
    #[test]
    fn a_run_advanced_in_two_legs_equals_one_leg() {
        let dataset = Preset::Tiny.build(16);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let base = TrainConfig {
            dim: 16,
            max_epochs: 6,
            eval_every: 2,
            patience: 2,
            batch_size: 128,
            n3: 1e-3,
            ..TrainConfig::default()
        };
        let patient = TrainConfig {
            max_epochs: 20,
            eval_every: 1,
            patience: 1,
            lr: 1e-30,
            ..base.clone()
        };
        let cases = [
            ("sampled", base.clone()),
            (
                "full",
                TrainConfig {
                    loss: LossMode::Full,
                    ..base.clone()
                },
            ),
            (
                "neg",
                TrainConfig {
                    loss: LossMode::NegSampling {
                        negatives: 4,
                        gamma: 6.0,
                        adversarial_temp: 1.0,
                        corruption: Corruption::Bernoulli,
                    },
                    ..base.clone()
                },
            ),
            ("patience in the first leg", patient),
        ];
        let pool = ThreadPool::new(2);
        for (what, cfg) in &cases {
            let reference = train_standalone_on(&model, &dataset, &filter, cfg, &pool);
            let mut run = TrainRun::start(&model, &dataset, &filter, cfg);
            run.advance(3, &pool);
            assert_eq!(run.epochs_run, reference.epochs_run.min(3), "{what}");
            run.release_buffers();
            run.advance(cfg.max_epochs, &pool);
            assert_same_outcome(&run.into_outcome(&pool), &reference, what);
        }
        let (_, patient) = &cases[3];
        let reference = train_standalone(&model, &dataset, &filter, patient);
        assert!(
            reference.epochs_run < 3,
            "patience must stop the run inside the first leg, ran {}",
            reference.epochs_run
        );
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
