//! Per-dataset run budgets for the reproduction binaries.
//!
//! `full()` budgets are sized so an entire table regenerates on a single
//! CPU core in tens of minutes; `quick()` cuts every budget for smoke
//! runs (`--quick`). Two training budgets exist on purpose: `train` is
//! the stand-alone "to convergence" protocol used for final numbers,
//! while `search_train` is the reduced budget the stand-alone searchers
//! (AutoSF / random / TPE) evaluate candidates with — mirroring AutoSF's
//! own use of a cheaper proxy training during search.

use eras_core::ErasConfig;
use eras_data::Preset;
use eras_search::autosf::AutoSfConfig;
use eras_search::evaluator::SearchBudget;
use eras_search::tpe::TpeConfig;
use eras_train::trainer::TrainConfig;
use eras_train::LossMode;

/// All budgets needed to run one dataset through every experiment.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The dataset stand-in.
    pub preset: Preset,
    /// Dataset + training seed.
    pub seed: u64,
    /// Stand-alone training budget (final numbers).
    pub train: TrainConfig,
    /// Reduced training budget used to evaluate search candidates.
    pub search_train: TrainConfig,
    /// ERAS search budget.
    pub eras: ErasConfig,
    /// AutoSF greedy-search shape.
    pub autosf: AutoSfConfig,
    /// Evaluation budget shared by the stand-alone searchers.
    pub search_budget: SearchBudget,
    /// TPE shape.
    pub tpe: TpeConfig,
    /// Epochs for the margin-loss baselines (TransE/TransH/RotatE).
    pub margin_epochs: usize,
    /// Epochs for TuckER (its core-tensor updates are the costliest).
    pub tucker_epochs: usize,
}

impl Profile {
    /// Full-budget profile for a preset.
    pub fn full(preset: Preset, seed: u64) -> Profile {
        let train = TrainConfig {
            dim: 32,
            lr: 0.1,
            l2: 1e-4,
            n3: 0.0,
            decay_rate: 1.0,
            batch_size: 256,
            max_epochs: 45,
            eval_every: 10,
            patience: 3,
            loss: LossMode::Sampled { negatives: 64 },
            seed,
            ranking: eras_train::RankingMode::Full,
            bounds: eras_sf::NormBounds::default(),
        };
        let search_train = TrainConfig {
            max_epochs: 15,
            eval_every: 10,
            patience: 1,
            loss: LossMode::Sampled { negatives: 64 },
            ..train.clone()
        };
        let eras = ErasConfig {
            m: 4,
            n_groups: 3,
            dim: 32,
            epochs: 18,
            ctrl_updates_per_epoch: 8,
            u_samples: 4,
            val_batch: 128,
            derive_k: 12,
            derive_screen: 4,
            retrain: train.clone(),
            seed,
            ..ErasConfig::default()
        };
        Profile {
            preset,
            seed,
            train,
            search_train,
            eras,
            autosf: AutoSfConfig {
                max_budget: 10,
                parents: 4,
                expansions: 64,
                train_top_k: 4,
                seed,
                ..AutoSfConfig::default()
            },
            search_budget: SearchBudget {
                max_evaluations: 14,
                max_seconds: 1200.0,
            },
            tpe: TpeConfig {
                seed,
                ..TpeConfig::default()
            },
            margin_epochs: 12,
            tucker_epochs: 5,
        }
    }

    /// Reduced-budget profile for `--quick` smoke runs.
    pub fn quick(preset: Preset, seed: u64) -> Profile {
        let mut p = Profile::full(preset, seed);
        p.train.max_epochs = 8;
        p.train.eval_every = 4;
        p.train.patience = 1;
        p.train.loss = LossMode::sampled_default();
        p.search_train = p.train.clone();
        p.search_train.max_epochs = 4;
        p.eras.epochs = 4;
        p.eras.ctrl_updates_per_epoch = 3;
        p.eras.derive_k = 4;
        p.eras.derive_screen = 2;
        p.eras.retrain = p.train.clone();
        p.search_budget.max_evaluations = 4;
        p.margin_epochs = 5;
        p.tucker_epochs = 2;
        p
    }

    /// Pick full or quick based on a CLI flag.
    pub fn from_args(preset: Preset, seed: u64, quick: bool) -> Profile {
        if quick {
            Profile::quick(preset, seed)
        } else {
            Profile::full(preset, seed)
        }
    }
}

/// Was `--quick` passed on the command line?
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_strictly_cheaper() {
        let full = Profile::full(Preset::Tiny, 0);
        let quick = Profile::quick(Preset::Tiny, 0);
        assert!(quick.train.max_epochs < full.train.max_epochs);
        assert!(quick.eras.epochs < full.eras.epochs);
        assert!(quick.search_budget.max_evaluations < full.search_budget.max_evaluations);
        assert!(quick.margin_epochs < full.margin_epochs);
    }

    #[test]
    fn search_train_is_cheaper_than_final_train() {
        let p = Profile::full(Preset::Wn18rr, 0);
        assert!(p.search_train.max_epochs < p.train.max_epochs);
    }

    /// ERAS's screen budget reaches the retrain's first validation, so
    /// every screened candidate is validated, ends on a validation, and
    /// never exceeds the retrain: quick 8 / 3 = 2 is raised to 3 and
    /// then to its `eval_every` 4; full 15 and fast 6 round down to
    /// their last validation, 10 and 5; default 20 is one already; a
    /// 2-epoch retrain caps it at 2.
    #[test]
    fn screen_budget_reaches_a_validation() {
        let mut short = ErasConfig::fast();
        short.retrain.max_epochs = 2;
        for (name, cfg, epochs) in [
            ("quick", Profile::quick(Preset::Wn18rr, 1).eras, 4),
            ("full", Profile::full(Preset::Wn18rr, 1).eras, 10),
            ("fast", ErasConfig::fast(), 5),
            ("default", ErasConfig::default(), 20),
            ("2-epoch retrain", short, 2),
        ] {
            let every = cfg.retrain.eval_every;
            assert_eq!(cfg.screen_epochs(), epochs, "{name}");
            assert!(
                cfg.screen_epochs() >= every.min(cfg.retrain.max_epochs),
                "{name}"
            );
            assert!(
                cfg.screen_epochs().is_multiple_of(every)
                    || cfg.screen_epochs() == cfg.retrain.max_epochs,
                "{name}"
            );
        }
    }

    #[test]
    fn configs_validate() {
        for preset in Preset::paper_benchmarks() {
            let p = Profile::full(preset, 1);
            assert!(p.eras.validate().is_ok(), "{preset:?}");
            assert_eq!(p.train.dim % p.eras.m, 0);
        }
    }
}
