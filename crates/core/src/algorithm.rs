//! Algorithm 2: the ERAS search loop, derivation and retraining.

use crate::config::ErasConfig;
use crate::supernet::Supernet;
use crate::variants::{ArchUpdater, Variant};
use eras_ctrl::{kmeans, LstmPolicy, ReinforceTrainer};
use eras_data::{Dataset, FilterIndex, Triple};
use eras_linalg::cmp::{nan_last_desc_f64, nan_lowest_f64};
use eras_linalg::optim::Adagrad;
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_search::SearchTrace;
use eras_sf::BlockSf;
use eras_train::block::{train_minibatch, BlockScratch};
use eras_train::eval::{link_prediction, LinkPredictionMetrics};
use eras_train::trainer::train_standalone;
use eras_train::{BlockModel, Embeddings, RankingMode};
use std::time::Instant;

/// Everything produced by one ERAS run.
#[derive(Debug, Clone)]
pub struct ErasOutcome {
    /// The derived relation-aware structures `{f_n}`.
    pub sfs: Vec<BlockSf>,
    /// The final relation → group assignment `B`.
    pub assignment: Vec<u8>,
    /// The retrained model (structures + assignment).
    pub model: BlockModel,
    /// Stand-alone retrained embeddings.
    pub embeddings: Embeddings,
    /// Validation metrics of the retrained model.
    pub valid: LinkPredictionMetrics,
    /// Test metrics of the retrained model.
    pub test: LinkPredictionMetrics,
    /// One-shot reward trace over the search (Figure 2's ERAS series).
    pub search_trace: SearchTrace,
    /// Wall-clock seconds spent in supernet training + controller updates
    /// (Table IX "supernet training").
    pub search_secs: f64,
    /// Wall-clock seconds spent deriving + retraining (Table IX
    /// "evaluation").
    pub evaluation_secs: f64,
}

/// Sample a minibatch of validation triples.
fn sample_val_batch(valid: &[Triple], size: usize, rng: &mut Rng) -> Vec<Triple> {
    if valid.is_empty() {
        return Vec::new();
    }
    let size = size.min(valid.len());
    rng.sample_distinct(valid.len(), size)
        .into_iter()
        .map(|i| valid[i])
        .collect()
}

/// EM step (Eq. 5): cluster relation embeddings into `N` groups.
pub(crate) fn em_assignment(emb: &Embeddings, n_groups: usize, rng: &mut Rng) -> Vec<u8> {
    kmeans(&emb.relation, n_groups, 20, rng).assignment
}

/// Run ERAS (or one of its ablation variants) on a dataset.
///
/// Steps map to Algorithm 2 in the paper: the epoch loop alternates
/// embedding updates (step 3), EM re-grouping (step 4) and architecture
/// updates (steps 5–6); derivation samples `K` architectures (steps 8–11)
/// and the winner is retrained stand-alone (step 12).
pub fn run_eras(
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &ErasConfig,
    variant: Variant,
) -> ErasOutcome {
    cfg.validate().expect("invalid ErasConfig");
    let supernet = Supernet::new(cfg.m, cfg.n_groups);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let started = Instant::now();

    // --- Initialise ω, B, θ ----------------------------------------------
    let mut emb = Embeddings::init(
        dataset.num_entities(),
        dataset.num_relations(),
        cfg.dim,
        &mut rng,
    );
    let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
    let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
    let mut policy = LstmPolicy::new(supernet.vocab(), cfg.ctrl_hidden, cfg.ctrl_embed, &mut rng);
    policy.bias_token(0, cfg.zero_op_bias);
    let mut reinforce = ReinforceTrainer::new(&policy, cfg.ctrl_lr, cfg.baseline_decay);
    let mut arch_updater = ArchUpdater::new(variant, supernet, cfg, &mut rng);
    let mut assignment = variant.initial_assignment(dataset, filter, cfg, &mut rng);
    let mut scratch = BlockScratch::new();
    let mut trace = SearchTrace::new(variant.trace_name(), &dataset.name);
    let mut train_order: Vec<Triple> = dataset.train.clone();

    // --- Search: alternative minimisation --------------------------------
    for epoch in 0..cfg.epochs {
        // Step 2–3: stochastic shared-embedding updates; each minibatch is
        // scored by a freshly sampled architecture (ENAS-style estimator
        // of Eq. 9).
        rng.shuffle(&mut train_order);
        for batch in train_order.chunks(cfg.batch_size.max(1)) {
            // Eq. 9 averages the embedding gradient over U sampled
            // architectures; emb_samples = 1 is the cheap single-sample
            // estimator, larger values replay the batch per sample.
            for _ in 0..cfg.emb_samples.max(1) {
                let sfs = arch_updater.sample_for_training(&policy, &mut rng);
                let model = BlockModel::relation_aware(sfs, assignment.clone());
                train_minibatch(
                    &model,
                    &mut emb,
                    &mut opt_e,
                    &mut opt_r,
                    batch,
                    cfg.search_loss,
                    None,
                    &mut rng,
                    &mut scratch,
                );
            }
        }

        // Step 4: EM re-grouping on the learned relation embeddings.
        if variant.dynamic_grouping() && cfg.n_groups > 1 && (epoch + 1) % cfg.em_every == 0 {
            assignment = em_assignment(&emb, cfg.n_groups, &mut rng);
        }

        // Steps 5–6: architecture updates on validation minibatches.
        let mut best_reward = f64::NEG_INFINITY;
        for _ in 0..cfg.ctrl_updates_per_epoch.max(1) {
            let reward = arch_updater.update(
                &mut policy,
                &mut reinforce,
                &assignment,
                &emb,
                dataset,
                filter,
                cfg,
                &mut rng,
            );
            best_reward = best_reward.max(reward);
        }
        trace.record(started.elapsed().as_secs_f64(), best_reward);
    }
    let search_secs = started.elapsed().as_secs_f64();

    // --- Derive the final architecture (steps 8–11) ----------------------
    let derive_started = Instant::now();
    let derive_batch = sample_val_batch(&dataset.valid, 256, &mut rng);
    let mut candidates: Vec<Vec<BlockSf>> = (0..cfg.derive_k)
        .map(|_| arch_updater.sample_for_derivation(&policy, &mut rng))
        .collect();
    candidates.push(supernet.decode(&policy.greedy_decode(supernet.num_slots())));
    candidates.extend(arch_updater.archive().cloned());
    let mut best: Option<(Vec<BlockSf>, f64)> = None;
    let mut scored_candidates: Vec<(Vec<BlockSf>, f64)> = Vec::with_capacity(candidates.len());
    for sfs in candidates {
        let reward =
            supernet.one_shot_reward(sfs.clone(), &assignment, &emb, &derive_batch, filter);
        if best.as_ref().map(|(_, b)| reward > *b).unwrap_or(true) {
            best = Some((sfs.clone(), reward));
        }
        scored_candidates.push((sfs, reward));
    }
    let (fallback_sfs, best_reward) = best.expect("derive_k >= 1");
    let best_sfs = if best_reward <= 0.0 {
        // Degenerate controller (can happen in tiny ablation budgets):
        // fall back to a random constraint-satisfying architecture.
        supernet.random_architecture(2 * cfg.m, &mut rng)
    } else if cfg.derive_screen > 1 {
        // Short stand-alone screening of the top one-shot candidates.
        // One-shot rewards rank architectures well but not perfectly
        // (Figure 5a), and the argmax of a noisy ranking suffers the
        // winner's curse; a brief real training run of the short-list is
        // what Table IX accounts as the "evaluation" phase.
        let mut scored: Vec<(Vec<BlockSf>, f64)> = scored_candidates;
        scored.sort_by(|a, b| nan_last_desc_f64(a.1, b.1));
        scored.truncate(cfg.derive_screen);
        let screen_cfg = eras_train::trainer::TrainConfig {
            max_epochs: (cfg.retrain.max_epochs / 3).max(3),
            ..cfg.retrain.clone()
        };
        scored
            .into_iter()
            .map(|(sfs, _)| {
                let model = BlockModel::relation_aware(sfs.clone(), assignment.clone());
                let mrr = train_standalone(&model, dataset, filter, &screen_cfg)
                    .best_valid
                    .mrr;
                (sfs, mrr)
            })
            .max_by(|a, b| nan_lowest_f64(a.1, b.1))
            .map(|(sfs, _)| sfs)
            .unwrap_or(fallback_sfs)
    } else {
        fallback_sfs
    };

    // --- Retrain stand-alone (step 12) ------------------------------------
    let model = BlockModel::relation_aware(best_sfs.clone(), assignment.clone());
    let outcome = train_standalone(&model, dataset, filter, &cfg.retrain);
    let valid_metrics = link_prediction(
        &model,
        &outcome.embeddings,
        &dataset.valid,
        filter,
        RankingMode::Full,
        ThreadPool::global(),
    );
    let evaluation_secs = derive_started.elapsed().as_secs_f64();

    ErasOutcome {
        sfs: best_sfs,
        assignment,
        model,
        embeddings: outcome.embeddings,
        valid: valid_metrics,
        test: outcome.test,
        search_trace: trace,
        search_secs,
        evaluation_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::Preset;

    #[test]
    fn eras_end_to_end_on_tiny_preset() {
        let dataset = Preset::Tiny.build(11);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            n_groups: 2,
            ..ErasConfig::fast()
        };
        let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
        assert_eq!(outcome.sfs.len(), 2);
        assert_eq!(outcome.assignment.len(), dataset.num_relations());
        assert!(outcome.assignment.iter().all(|&g| g < 2));
        // The search must have recorded one trace point per epoch.
        assert_eq!(outcome.search_trace.len(), cfg.epochs);
        // Retrained model should beat chance comfortably (chance MRR over
        // 150 entities is ≈ 0.03).
        assert!(
            outcome.test.mrr > 0.08,
            "ERAS-derived model too weak: {}",
            outcome.test.mrr
        );
        assert!(outcome.search_secs > 0.0);
        assert!(outcome.evaluation_secs > 0.0);
    }

    #[test]
    fn eras_n1_is_universal() {
        let dataset = Preset::Tiny.build(12);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            n_groups: 1,
            epochs: 4,
            ..ErasConfig::fast()
        };
        let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
        assert_eq!(outcome.sfs.len(), 1);
        assert!(outcome.assignment.iter().all(|&g| g == 0));
    }

    #[test]
    fn multi_sample_embedding_estimator_runs() {
        let dataset = Preset::Tiny.build(15);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            epochs: 2,
            emb_samples: 3,
            derive_k: 2,
            derive_screen: 1,
            ..ErasConfig::fast()
        };
        let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
        assert!(outcome.test.mrr > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = Preset::Tiny.build(13);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            epochs: 3,
            ..ErasConfig::fast()
        };
        let a = run_eras(&dataset, &filter, &cfg, Variant::Full);
        let b = run_eras(&dataset, &filter, &cfg, Variant::Full);
        assert_eq!(a.sfs, b.sfs);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.test.mrr, b.test.mrr);
    }

    #[test]
    fn derived_architecture_satisfies_exploitative_constraint() {
        let dataset = Preset::Tiny.build(14);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            epochs: 5,
            ..ErasConfig::fast()
        };
        let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
        let supernet = Supernet::new(cfg.m, cfg.n_groups);
        assert!(supernet.satisfies_exploitative_constraint(&outcome.sfs));
    }
}
