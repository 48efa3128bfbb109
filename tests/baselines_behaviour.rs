//! Integration tests pinning the paper's qualitative claims at the
//! pattern level (the Section III-A motivation) on synthetic data.

use eras::prelude::*;

fn trained_pattern_hits1(
    sf: BlockSf,
    dataset: &Dataset,
    filter: &FilterIndex,
    pattern: RelationPattern,
) -> f64 {
    let cfg = TrainConfig {
        dim: 32,
        max_epochs: 30,
        eval_every: 10,
        patience: 2,
        ..TrainConfig::default()
    };
    let model = BlockModel::universal(sf, dataset.num_relations());
    let outcome = train_standalone(&model, dataset, filter, &cfg);
    let triples = dataset.test_triples_with_pattern(pattern);
    assert!(!triples.is_empty(), "{pattern:?} slice empty");
    let pool = ThreadPool::global();
    link_prediction(
        &model,
        &outcome.embeddings,
        &triples,
        filter,
        RankingMode::Full,
        pool,
    )
    .mrr
}

/// DistMult is structurally symmetric: on symmetric relations it should
/// be competitive, while on anti-symmetric relations the universal
/// ComplEx must clearly beat it (the Table III shape).
#[test]
fn complex_beats_distmult_on_antisymmetric_relations() {
    let dataset = Preset::Tiny.build(200);
    let filter = FilterIndex::build(&dataset);

    let dm_anti = trained_pattern_hits1(
        zoo::distmult(4),
        &dataset,
        &filter,
        RelationPattern::AntiSymmetric,
    );
    let cx_anti = trained_pattern_hits1(
        zoo::complex(),
        &dataset,
        &filter,
        RelationPattern::AntiSymmetric,
    );
    assert!(
        cx_anti > dm_anti,
        "ComplEx ({cx_anti:.3}) should beat DistMult ({dm_anti:.3}) on anti-symmetric MRR"
    );
}

/// Both models handle symmetric relations; DistMult must not collapse
/// there (it is the symmetric specialist).
#[test]
fn distmult_is_competitive_on_symmetric_relations() {
    let dataset = Preset::Tiny.build(201);
    let filter = FilterIndex::build(&dataset);
    let dm_sym = trained_pattern_hits1(
        zoo::distmult(4),
        &dataset,
        &filter,
        RelationPattern::Symmetric,
    );
    // Chance MRR over 150 entities ≈ 0.03; require clear learning.
    assert!(
        dm_sym > 0.15,
        "DistMult should learn symmetric relations well, got MRR {dm_sym:.3}"
    );
}

/// The empirical pattern detector must recover the generator's labels on
/// a fresh dataset (cross-crate: generator → patterns).
#[test]
fn detector_recovers_planted_pattern_labels() {
    let dataset = Preset::Tiny.build(202);
    let detected = eras::data::patterns::detect_patterns(&dataset);
    let mut agree = 0usize;
    let mut total = 0usize;
    for (rel, (&truth, &found)) in dataset.pattern_labels.iter().zip(&detected).enumerate() {
        total += 1;
        // Composition and general-asymmetric both detect as asymmetric
        // variants; require exact agreement only on the sharp classes.
        match truth {
            RelationPattern::Symmetric | RelationPattern::Inverse => {
                if truth == found {
                    agree += 1;
                } else {
                    panic!("relation {rel}: planted {truth:?}, detected {found:?}");
                }
            }
            _ => {
                agree += 1;
            }
        }
    }
    assert_eq!(agree, total);
}
