//! One-shot vs stand-alone correlation study (Figure 5 of the paper).
//!
//! The concern with parameter sharing (Section IV-D2) is *biased
//! evaluation*: rankings under the shared supernet might not reflect
//! stand-alone quality. The paper answers it empirically — one-shot
//! validation MRR correlates strongly with stand-alone validation MRR
//! (Figure 5a) while one-shot validation *loss* does not (Figure 5b).
//! This module generates exactly those scatter plots' data.

use crate::config::ErasConfig;
use crate::supernet::Supernet;
use eras_data::{Dataset, FilterIndex, Triple};
use eras_linalg::optim::Adagrad;
use eras_linalg::pool::ThreadPool;
use eras_linalg::stats::{pearson, spearman};
use eras_linalg::Rng;
use eras_train::block::{evaluate_loss, train_minibatch, BlockScratch};
use eras_train::eval::link_prediction;
use eras_train::trainer::train_standalone;
use eras_train::{BlockModel, Embeddings, RankingMode};

/// Which one-shot measurement plays the role of `M_val`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneShotMeasure {
    /// Validation MRR under shared embeddings (Figure 5a).
    Mrr,
    /// Negated validation loss under shared embeddings (Figure 5b).
    NegLoss,
}

/// The scatter data plus summary correlations.
#[derive(Debug, Clone)]
pub struct CorrelationStudy {
    /// `(one_shot, stand_alone)` pairs, one per sampled architecture.
    pub pairs: Vec<(f64, f64)>,
    /// Pearson correlation.
    pub pearson: f64,
    /// Spearman rank correlation.
    pub spearman: f64,
}

/// Train a shared supernet with uniformly sampled architectures, then
/// measure `k` random architectures both one-shot and stand-alone.
pub fn one_shot_vs_standalone(
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &ErasConfig,
    measure: OneShotMeasure,
    k: usize,
) -> CorrelationStudy {
    cfg.validate().expect("invalid ErasConfig");
    let supernet = Supernet::new(cfg.m, cfg.n_groups);
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xF1617);
    let assignment: Vec<u8> = if cfg.n_groups == 1 {
        vec![0; dataset.num_relations()]
    } else {
        (0..dataset.num_relations())
            .map(|_| rng.next_below(cfg.n_groups) as u8)
            .collect()
    };

    // The architectures under study. As in the paper's Figure 5, the pool
    // spans a wide quality range — strong human-designed structures,
    // structurally-limited ones (DistMult-style symmetric grids), and
    // random structures of varying budget — and the supernet is trained
    // by sampling from the same pool it is later asked to rank.
    let mut pool: Vec<Vec<eras_sf::BlockSf>> = Vec::with_capacity(k);
    if cfg.m == 4 {
        for (_, sf) in eras_sf::zoo::all_m4() {
            pool.push(vec![sf; cfg.n_groups]);
        }
    } else {
        pool.push(vec![eras_sf::zoo::distmult(cfg.m); cfg.n_groups]);
    }
    while pool.len() < k {
        let budget = cfg.m + rng.next_below(cfg.m + 3);
        let sfs: Vec<eras_sf::BlockSf> = (0..cfg.n_groups)
            .map(|_| loop {
                let sf = eras_sf::BlockSf::random(cfg.m, budget, &mut rng);
                if !sf.is_degenerate() {
                    break sf;
                }
            })
            .collect();
        if supernet.satisfies_exploitative_constraint(&sfs) {
            pool.push(sfs);
        }
    }
    pool.truncate(k.max(1));

    // Shared-embedding training, cycling uniformly over the pool.
    let mut emb = Embeddings::init(
        dataset.num_entities(),
        dataset.num_relations(),
        cfg.dim,
        &mut rng,
    );
    let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
    let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
    let mut scratch = BlockScratch::new();
    let mut order: Vec<Triple> = dataset.train.clone();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for batch in order.chunks(cfg.batch_size.max(1)) {
            let sfs = pool[rng.next_below(pool.len())].clone();
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

    // Measure every pool architecture both ways.
    let mut pairs = Vec::with_capacity(k);
    for sfs in pool {
        let model = BlockModel::relation_aware(sfs, assignment.clone());
        let one_shot = match measure {
            OneShotMeasure::Mrr => {
                let threads = ThreadPool::global();
                let valid = &dataset.valid;
                link_prediction(&model, &emb, valid, filter, RankingMode::Full, threads).mrr
            }
            OneShotMeasure::NegLoss => -f64::from(evaluate_loss(&model, &emb, &dataset.valid)),
        };
        let standalone = train_standalone(&model, dataset, filter, &cfg.retrain)
            .best_valid
            .mrr;
        pairs.push((one_shot, standalone));
    }

    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    CorrelationStudy {
        pearson: pearson(&xs, &ys),
        spearman: spearman(&xs, &ys),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::Preset;

    #[test]
    fn mrr_ranks_better_than_loss_in_aggregate() {
        // The paper's Figure 5 claim is *relative*: one-shot MRR is a
        // better proxy for stand-alone MRR than one-shot loss. On the
        // tiny test dataset both estimates are noisy (±0.3 per seed with
        // 16 points), so the unit test checks the aggregate over three
        // dataset seeds; the full-scale reproduction is the `fig5` bench
        // on the denser WN18RR stand-in.
        let mut mrr_rho = 0.0;
        let mut loss_rho = 0.0;
        for seed in [30u64, 31, 32] {
            let dataset = Preset::Tiny.build(seed);
            let filter = FilterIndex::build(&dataset);
            let cfg = ErasConfig {
                epochs: 60,
                n_groups: 1,
                seed,
                ..ErasConfig::fast()
            };
            let s = one_shot_vs_standalone(&dataset, &filter, &cfg, OneShotMeasure::Mrr, 16);
            assert_eq!(s.pairs.len(), 16);
            let l = one_shot_vs_standalone(&dataset, &filter, &cfg, OneShotMeasure::NegLoss, 16);
            mrr_rho += s.spearman;
            loss_rho += l.spearman;
        }
        assert!(
            mrr_rho > loss_rho,
            "aggregate one-shot-MRR rank correlation ({mrr_rho:.3}) should beat              one-shot-loss ({loss_rho:.3})"
        );
    }

    #[test]
    fn pairs_are_finite() {
        let dataset = Preset::Tiny.build(31);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            epochs: 2,
            n_groups: 1,
            ..ErasConfig::fast()
        };
        for measure in [OneShotMeasure::Mrr, OneShotMeasure::NegLoss] {
            let study = one_shot_vs_standalone(&dataset, &filter, &cfg, measure, 3);
            for (a, b) in &study.pairs {
                assert!(a.is_finite() && b.is_finite());
            }
        }
    }
}
