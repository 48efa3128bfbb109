//! `search`: the paper's Table IX pair on `wn18rr-synth`.
//!
//! One op is `run_eras(.., Variant::Full)` (main op), then
//! `autosf::search` plus `train_standalone` of its winner (second op),
//! at the reduced budget `Profile::quick(Preset::Wn18rr, seed)` defines.
//! Its `SearchBudget::max_seconds` (1 200 s) never binds: AutoSF takes
//! well under a second here, so its evaluation count alone ends it.

use crate::report::Outcome;
use crate::stats::{fastest_us, median, min};
use crate::tracefold::{self, PoolCounters, Recorder};
use crate::Config;
use eras_bench::profiles::Profile;
use eras_core::{run_eras, Supernet, Variant};
use eras_ctrl::{kmeans, LstmPolicy, ReinforceTrainer};
use eras_data::{FilterIndex, Preset, Triple};
use eras_linalg::optim::Adagrad;
use eras_linalg::Rng;
use eras_obs::span;
use eras_search::autosf;
use eras_sf::numeric::certify;
use eras_sf::BlockSf;
use eras_train::block::{train_minibatch, BlockScratch};
use eras_train::trainer::train_standalone;
use eras_train::BlockModel;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Repetitions of each isolated layer call in the traced run.
const LAYER_REPS: usize = 20;

/// Ops per run: one op takes 1.5–2.5 s on a 2-vCPU host, depending on
/// co-tenant load.
fn ops_for(seconds: u64) -> usize {
    (seconds as usize * 7 / 10).max(3)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What one op produced that later ops must reproduce.
#[derive(PartialEq)]
struct Bits {
    eras_mrr: u64,
    autosf_mrr: u64,
}

pub fn run(cfg: &Config, out: &mut Outcome) {
    let (mut setup, mut build, mut filter_build) = (Vec::new(), Vec::new(), Vec::new());
    let mut data = None;
    for _ in 0..SETUPS {
        drop(data.take());
        let t = Instant::now();
        let dataset = Preset::Wn18rr.build(cfg.seed);
        build.push(secs(t));
        let t2 = Instant::now();
        let filter = FilterIndex::build(&dataset);
        filter_build.push(secs(t2));
        setup.push(secs(t));
        data = Some((dataset, filter));
    }
    let (dataset, filter) = data.expect("at least one set-up");
    out.set("setup_s", median(&setup).expect("set-ups ran"));
    out.set("data.preset_build_s", min(&build).expect("set-ups ran"));
    out.set(
        "data.filter_build_s",
        min(&filter_build).expect("set-ups ran"),
    );

    let profile = Profile::quick(Preset::Wn18rr, cfg.seed);
    let supernet = Supernet::new(profile.eras.m, profile.eras.n_groups);
    // Expected MRR of a uniformly random ranking over every entity.
    let n = dataset.num_entities();
    let random_mrr = (1..=n).map(|r| 1.0 / r as f64).sum::<f64>() / n as f64;

    let recorder = Recorder::default();
    let ops = ops_for(cfg.seconds);
    let pool = PoolCounters::read();
    let cache_hits = tracefold::counter("search.cache_hits");
    let mut first: Option<Bits> = None;
    let mut eras_ms = [Vec::new(), Vec::new()];
    let mut autosf_ms = [Vec::new(), Vec::new()];
    let (mut eras_phase, mut autosf_phase) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let (mut windows, mut trained, mut pruned) = (Vec::new(), 0usize, 0usize);
    let mut last = None;
    for i in 0..ops {
        // In the traced run every other op is traced; the untraced ones
        // are the baseline for `obs.trace_overhead_pct`.
        let traced = cfg.trace && i % 2 == 1;
        let guard = traced.then(|| recorder.install());
        let lo = eras_obs::clock::monotonic_us();
        let t = Instant::now();
        let eras = {
            let _s = span!("bench.run_eras");
            run_eras(&dataset, &filter, &profile.eras, Variant::Full)
        };
        eras_ms[traced as usize].push(secs(t) * 1e3);
        let mid = eras_obs::clock::monotonic_us();
        let t = Instant::now();
        let found = {
            let _s = span!("bench.autosf_search");
            autosf::search(
                &dataset,
                &filter,
                &profile.search_train,
                &profile.autosf,
                profile.search_budget,
            )
        };
        let search_s = secs(t);
        let model = BlockModel::universal(found.best_sf.clone(), dataset.num_relations());
        let t2 = Instant::now();
        let retrained = {
            let _s = span!("bench.train_standalone");
            train_standalone(&model, &dataset, &filter, &profile.train)
        };
        autosf_ms[traced as usize].push(secs(t) * 1e3);
        drop(guard);
        if traced {
            windows.push((lo, mid, eras_obs::clock::monotonic_us()));
        }
        eras_phase[0].push(eras.search_secs);
        eras_phase[1].push(eras.evaluation_secs);
        autosf_phase[0].push(search_s);
        autosf_phase[1].push(secs(t2));
        trained += found.evaluations;
        pruned += found.pruned;

        let bits = Bits {
            eras_mrr: eras.test.mrr.to_bits(),
            autosf_mrr: retrained.test.mrr.to_bits(),
        };
        let mut ok = true;
        for (who, mrr) in [("ERAS", eras.test.mrr), ("AutoSF", retrained.test.mrr)] {
            if mrr.is_nan() || mrr <= random_mrr {
                out.error(format!(
                    "op {i}: {who} test MRR {mrr} does not beat random {random_mrr:.4}"
                ));
                ok = false;
            }
        }
        if !supernet.satisfies_exploitative_constraint(&eras.sfs) {
            out.error(format!(
                "op {i}: ERAS structures violate the exploitative constraint"
            ));
            ok = false;
        }
        match &first {
            None => first = Some(bits),
            Some(f) if *f != bits => {
                out.error(format!(
                    "op {i}: test MRRs differ from op 0 at the same seed"
                ));
                ok = false;
            }
            Some(_) => {}
        }
        out.op(ok);
        last = Some((eras, retrained.test.mrr, found.best_sf));
    }
    let (eras, autosf_mrr, best_sf) = last.expect("ops_for gives at least three ops");
    // Each phase's fastest repetition, summed: the phases find their
    // quiet windows independently, which makes the sum steadier than
    // the fastest whole op.
    let fastest = |v: &[f64]| min(v).expect("ops ran");
    out.set(
        "main_op_ms",
        1e3 * (fastest(&eras_phase[0]) + fastest(&eras_phase[1])),
    );
    out.set(
        "second_op_ms",
        1e3 * (fastest(&autosf_phase[0]) + fastest(&autosf_phase[1])),
    );
    println!(
        "search: {ops} ops; fastest eras_search_s {:.4} eras_eval_s {:.4} autosf_search_s {:.4} \
         autosf_eval_s {:.4}; eras_test_mrr {:.4} autosf_test_mrr {:.4} (random {random_mrr:.4})",
        fastest(&eras_phase[0]),
        fastest(&eras_phase[1]),
        fastest(&autosf_phase[0]),
        fastest(&autosf_phase[1]),
        eras.test.mrr,
        autosf_mrr,
    );
    if !cfg.trace {
        return;
    }

    // ---- Traced run: per-layer metrics -----------------------------
    pool.record_since(ops, out);
    out.set("core.eras_search_s", fastest(&eras_phase[0]));
    out.set("core.eras_eval_s", fastest(&eras_phase[1]));
    out.set("core.eras_test_mrr", eras.test.mrr);
    out.set("search.autosf_search_s", fastest(&autosf_phase[0]));
    out.set("search.autosf_eval_s", fastest(&autosf_phase[1]));
    out.set("search.autosf_test_mrr", autosf_mrr);
    out.set("search.candidates_trained", trained as f64 / ops as f64);
    out.set("search.candidates_pruned", pruned as f64 / ops as f64);
    out.set(
        "search.pruned_ratio",
        pruned as f64 / (trained + pruned).max(1) as f64,
    );
    out.set(
        "search.cache_hits",
        (tracefold::counter("search.cache_hits") - cache_hits) as f64 / ops as f64,
    );
    let overhead = |v: &[Vec<f64>; 2]| min(&v[1]).zip(min(&v[0])).map(|(on, off)| on / off);
    if let (Some(a), Some(b)) = (overhead(&eras_ms), overhead(&autosf_ms)) {
        out.set("obs.trace_overhead_pct", 100.0 * ((a * b).sqrt() - 1.0));
    }

    let spans = recorder.spans(out);
    let layers = tracefold::by_name(&spans);
    tracefold::print_layers(&layers);
    out.set(
        "obs.spans_per_op",
        spans.len() as f64 / windows.len().max(1) as f64,
    );
    out.set(
        "train.epoch_ms",
        tracefold::median_self_ms(&layers, "train.epoch"),
    );
    out.set(
        "train.eval_ms",
        tracefold::median_dur_ms(&spans, "train.eval"),
    );
    out.set(
        "search.batch_ms",
        tracefold::median_self_ms(&layers, "search.batch"),
    );
    let runs = |lo: u64, hi: u64| tracefold::within(&spans, "train.run", lo, hi).count() as f64;
    let per_op = |f: &dyn Fn(&(u64, u64, u64)) -> f64| {
        windows.iter().map(f).sum::<f64>() / windows.len().max(1) as f64
    };
    out.set("train.runs_per_eras_op", per_op(&|w| runs(w.0, w.1)));
    out.set("train.runs_per_autosf_op", per_op(&|w| runs(w.1, w.2)));

    layer_calls(&profile, &dataset, &filter, &eras, &best_sf, out);
}

/// Isolated calls into `sf`, `train`, `ctrl` and `core` on the op's own
/// data and shapes: its dataset, ERAS's trained embeddings, derived
/// structures and grouping.
fn layer_calls(
    profile: &Profile,
    dataset: &eras_data::Dataset,
    filter: &FilterIndex,
    eras: &eras_core::ErasOutcome,
    best_sf: &BlockSf,
    out: &mut Outcome,
) {
    let cfg = &profile.eras;
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5eed);

    // AutoSF's static filter runs `certify` on every candidate; time it
    // on the winner and on the random M=4 structures searchers draw.
    let mut candidates: Vec<BlockSf> = (0..8)
        .map(|_| BlockSf::random(cfg.m, 6, &mut rng))
        .collect();
    candidates.push(best_sf.clone());
    let per_candidate: Vec<f64> = candidates
        .iter()
        .map(|sf| {
            fastest_us(LAYER_REPS, || {
                black_box(certify(
                    black_box(sf),
                    profile.search_train.bounds,
                    profile.search_train.dim,
                ));
            })
        })
        .collect();
    out.set("sf.certify_us", median(&per_candidate).expect("candidates"));

    // One supernet minibatch step: ERAS's batch size and search loss on
    // the op's relation-aware model.
    let model = BlockModel::relation_aware(eras.sfs.clone(), eras.assignment.clone());
    let batch: Vec<Triple> = dataset.train.iter().copied().take(cfg.batch_size).collect();
    let mut emb = eras.embeddings.clone();
    let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
    let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
    let mut scratch = BlockScratch::new();
    let step_us = fastest_us(LAYER_REPS / 2, || {
        black_box(train_minibatch(
            &model,
            &mut emb,
            &mut opt_e,
            &mut opt_r,
            &batch,
            cfg.search_loss,
            None,
            &mut rng,
            &mut scratch,
        ));
    });
    out.set("train.sampled_step_ms", step_us / 1e3);

    // Controller: one policy sample over the supernet's slots, one
    // REINFORCE update with `u_samples` episodes, one k-means grouping.
    let supernet = Supernet::new(cfg.m, cfg.n_groups);
    let mut policy = LstmPolicy::new(supernet.vocab(), cfg.ctrl_hidden, cfg.ctrl_embed, &mut rng);
    let sample_us = fastest_us(LAYER_REPS, || {
        black_box(policy.sample(supernet.num_slots(), cfg.temperature, &mut rng));
    });
    out.set("ctrl.policy_sample_us", sample_us);
    let episodes: Vec<(Vec<usize>, f64)> = (0..cfg.u_samples)
        .map(|i| {
            let tokens = policy
                .sample(supernet.num_slots(), cfg.temperature, &mut rng)
                .tokens;
            (tokens, 0.01 * (i + 1) as f64)
        })
        .collect();
    let mut trainer = ReinforceTrainer::new(&policy, cfg.ctrl_lr, cfg.baseline_decay);
    let update_us = fastest_us(LAYER_REPS, || {
        black_box(trainer.update(&mut policy, &episodes));
    });
    out.set("ctrl.reinforce_update_us", update_us);
    let kmeans_us = fastest_us(LAYER_REPS, || {
        black_box(kmeans(
            &eras.embeddings.relation,
            cfg.n_groups,
            20,
            &mut rng,
        ));
    });
    out.set("ctrl.kmeans_us", kmeans_us);

    // Supernet: the one-shot reward of the derived architecture on a
    // `val_batch`-sized validation minibatch. The supernet's shared
    // embeddings stay inside `run_eras`; the retrained ones have the
    // same shape.
    let val: Vec<Triple> = dataset.valid.iter().copied().take(cfg.val_batch).collect();
    let reward_us = fastest_us(LAYER_REPS, || {
        black_box(supernet.one_shot_reward(
            eras.sfs.clone(),
            &eras.assignment,
            &eras.embeddings,
            &val,
            filter,
        ));
    });
    out.set("core.one_shot_reward_ms", reward_us / 1e3);
}
