//! Integration test for the paper's headline efficiency claim
//! (Figure 2 / Table IX): the one-shot supernet search completes far
//! faster than a stand-alone searcher given a comparable number of
//! candidate evaluations, because it never trains candidates from
//! scratch.

use eras::prelude::*;
use eras::search::evaluator::SearchBudget;
use eras::search::random;
use std::time::Instant;

#[test]
fn one_shot_search_is_much_faster_than_standalone() {
    let dataset = Preset::Tiny.build(400);
    let filter = FilterIndex::build(&dataset);

    // Stand-alone: 10 random candidates, each trained for 8 epochs.
    let evaluations = 10;
    let train_cfg = TrainConfig {
        dim: 16,
        max_epochs: 8,
        eval_every: 8,
        patience: 1,
        ..TrainConfig::default()
    };
    // One-shot: ERAS evaluates 10 epochs × 2 updates × 4 samples = 80
    // candidate rewards against ONE shared embedding set.
    let cfg = ErasConfig {
        epochs: 10,
        ctrl_updates_per_epoch: 2,
        u_samples: 4,
        derive_k: 2,
        derive_screen: 1,
        ..ErasConfig::fast()
    };

    // Each side's time is the fastest of three runs, the sides taken in
    // turn, so that a burst of host load during one run cannot decide
    // the comparison.
    let (mut standalone_secs, mut one_shot_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let started = Instant::now();
        let standalone = random::search(
            &dataset,
            &filter,
            &train_cfg,
            4,
            8,
            1,
            SearchBudget {
                max_evaluations: evaluations,
                max_seconds: f64::INFINITY,
            },
        );
        standalone_secs = standalone_secs.min(started.elapsed().as_secs_f64());
        assert_eq!(standalone.evaluations, evaluations);
        let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
        one_shot_secs = one_shot_secs.min(outcome.search_secs);
    }

    // The supernet phase must finish under the stand-alone search
    // despite evaluating 8x the candidates.
    assert!(
        one_shot_secs < standalone_secs,
        "one-shot search {:.2}s should be under stand-alone {:.2}s",
        one_shot_secs,
        standalone_secs
    );

    // And per candidate evaluation it must be far cheaper — the paper
    // reports >10x (Table IX); we assert a conservative 3x so the test
    // stays robust to CI noise and to kernel speedups that accelerate
    // the stand-alone denominator as well.
    let one_shot_evals = (cfg.epochs * cfg.ctrl_updates_per_epoch * cfg.u_samples) as f64;
    assert!(one_shot_evals >= 10.0);
    let per_one_shot = one_shot_secs / one_shot_evals;
    let per_standalone = standalone_secs / evaluations as f64;
    assert!(
        per_one_shot * 3.0 < per_standalone,
        "one-shot {:.3}s/candidate should be well under stand-alone {:.3}s/candidate",
        per_one_shot,
        per_standalone
    );
}
