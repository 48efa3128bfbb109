//! `neg-1m`: negative-sampling training and sampled ranking on the
//! one-million-entity preset (ROADMAP item 1's regime).
//!
//! The main op is one 4 096-triple `train_minibatch_parallel` step on
//! the global pool, with the loss configuration of the scale bench;
//! consecutive ops train on consecutive batches. The second op is one
//! `link_prediction_sampled_pool` over the test split. Embeddings plus their Adagrad state are 256 MB, well
//! past the last-level cache, so sampling, filter probes and sparse
//! gradient traffic dominate; none of `search`'s layers run.

use crate::report::Outcome;
use crate::stats::{fastest_us, median, min};
use crate::tracefold::{self, PoolCounters, Recorder};
use crate::Config;
use eras_data::{FilterIndex, ScalePreset};
use eras_linalg::optim::Adagrad;
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_obs::span;
use eras_sf::zoo;
use eras_train::eval::link_prediction_sampled_pool;
use eras_train::parallel::{train_minibatch_parallel, GradShards};
use eras_train::{BlockModel, CandidateSet, Corruption, Embeddings, LossMode, NegCtx};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Each costs about 5 s.
const SETUPS: usize = 3;
const DIM: usize = 32;
const BATCH: usize = 4096;
/// Warm-up steps before timing.
const WARMUP_STEPS: usize = 4;
/// Interleaved 1-thread / global-pool step pairs in the traced run.
const SPEEDUP_PAIRS: usize = 8;
const NEGATIVES: usize = 16;
const GAMMA: f32 = 6.0;
const ADV_TEMP: f32 = 1.0;
const EVAL_CANDIDATES: usize = 200;
const EVAL_SEED: u64 = 42;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct State {
    emb: Embeddings,
    opt_e: Adagrad,
    opt_r: Adagrad,
    rng: Rng,
    shards: GradShards,
}

pub fn run(cfg: &Config, out: &mut Outcome) {
    let (mut setup, mut build, mut filter_build, mut init) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut data = None;
    for _ in 0..SETUPS {
        // Free the previous copy first so peak memory is one set-up's.
        drop(data.take());
        let t = Instant::now();
        let dataset = ScalePreset::Scale1M.build(cfg.seed);
        build.push(secs(t));
        let t2 = Instant::now();
        let filter = FilterIndex::build(&dataset);
        filter_build.push(secs(t2));
        let t2 = Instant::now();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            DIM,
            &mut rng,
        );
        let opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 0.0);
        let opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 0.0);
        init.push(secs(t2));
        setup.push(secs(t));
        let state = State {
            emb,
            opt_e,
            opt_r,
            rng,
            shards: GradShards::new(),
        };
        data = Some((dataset, filter, state));
    }
    let (dataset, filter, mut st) = data.expect("at least one set-up");
    out.set("setup_s", median(&setup).expect("set-ups ran"));
    out.set("data.scale_build_s", min(&build).expect("set-ups ran"));
    out.set(
        "data.filter_build_s",
        min(&filter_build).expect("set-ups ran"),
    );
    out.set("train.init_s", min(&init).expect("set-ups ran"));

    let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
    let neg = NegCtx::uniform(&filter);
    let mode = LossMode::NegSampling {
        negatives: NEGATIVES,
        gamma: GAMMA,
        adversarial_temp: ADV_TEMP,
        corruption: Corruption::Uniform,
    };
    let pool = ThreadPool::global();
    let mut batches = dataset.train.chunks(BATCH).cycle();
    let mut step = |st: &mut State, pool: &ThreadPool| {
        let batch = batches.next().expect("non-empty training split");
        let _s = span!("bench.train_minibatch_parallel");
        train_minibatch_parallel(
            &model,
            &mut st.emb,
            &mut st.opt_e,
            &mut st.opt_r,
            batch,
            mode,
            Some(&neg),
            0.0,
            &mut st.rng,
            pool,
            &mut st.shards,
        )
    };
    // Warm-up: the first steps fault in the Adagrad state and the
    // gradient shards; users pay that once per training run, not per step.
    for _ in 0..WARMUP_STEPS {
        step(&mut st, pool);
    }

    let recorder = Recorder::default();
    let counters = PoolCounters::read();
    // About 0.1 s per step and 0.02 s per eval on 2 vCPUs. Evals run in
    // back-to-back pairs spread between the training steps, so both ops
    // sample the whole run's host load rather than one stretch of it;
    // the two evals of a pair see the same embeddings and must agree.
    let (train_ops, eval_pairs) = (8 * cfg.seconds as usize, 5 * cfg.seconds as usize / 2);
    let every = (train_ops / eval_pairs.max(1)).max(1);
    let mut op_ms = [Vec::new(), Vec::new()];
    let mut eval_ms = [Vec::new(), Vec::new()];
    let mut mrr = 0.0;
    let mut pairs = 0;
    for i in 0..train_ops {
        let traced = cfg.trace && i % 2 == 1;
        let guard = traced.then(|| recorder.install());
        let t = Instant::now();
        let loss = step(&mut st, pool);
        op_ms[traced as usize].push(secs(t) * 1e3);
        drop(guard);
        if !loss.is_finite() {
            out.error(format!("train op {i}: non-finite loss {loss}"));
        }
        out.op(loss.is_finite());
        if (i + 1) % every != 0 || pairs == eval_pairs {
            continue;
        }
        let traced = cfg.trace && pairs % 2 == 1;
        let guard = traced.then(|| recorder.install());
        let mut bits = [0u64; 2];
        for b in &mut bits {
            let t = Instant::now();
            let m = {
                let _s = span!("bench.link_prediction_sampled_pool");
                link_prediction_sampled_pool(
                    &model,
                    &st.emb,
                    &dataset.test,
                    &filter,
                    EVAL_CANDIDATES,
                    EVAL_SEED,
                    pool,
                )
            };
            eval_ms[traced as usize].push(secs(t) * 1e3);
            *b = m.mrr.to_bits();
            mrr = m.mrr;
        }
        drop(guard);
        let ok = mrr.is_finite() && bits[0] == bits[1];
        if !ok {
            out.error(format!(
                "eval pair {pairs}: sampled MRR bits {:x} and {:x} differ or are not finite",
                bits[0], bits[1]
            ));
        }
        out.op(ok);
        out.op(ok);
        pairs += 1;
    }
    let eval_ops = 2 * pairs;
    let fastest_op = min(&op_ms[0]).expect("untraced train ops ran");
    let fastest_eval = min(&eval_ms[0]).expect("untraced evals ran");
    out.set("main_op_ms", fastest_op);
    out.set("second_op_ms", fastest_eval);
    let random_mrr = (1..=EVAL_CANDIDATES + 1)
        .map(|r| 1.0 / r as f64)
        .sum::<f64>()
        / (EVAL_CANDIDATES + 1) as f64;
    println!(
        "neg-1m: {} entities, {} train triples; {train_ops} train ops, {eval_ops} evals; \
         train_triples_per_s {:.0} eval_queries_per_s {:.0}; sampled MRR {mrr:.4} (random {random_mrr:.4})",
        dataset.num_entities(),
        dataset.train.len(),
        BATCH as f64 / (fastest_op / 1e3),
        (2 * dataset.test.len()) as f64 / (fastest_eval / 1e3),
    );
    if !cfg.trace {
        return;
    }

    // ---- Traced run: per-layer metrics -----------------------------
    counters.record_since(train_ops + eval_ops, out);
    out.set("train.sampled_mrr", mrr);
    if let (Some(on), Some(off)) = (min(&op_ms[1]), min(&op_ms[0])) {
        out.set("obs.trace_overhead_pct", 100.0 * (on / off - 1.0));
    }
    let spans = recorder.spans(out);
    tracefold::print_layers(&tracefold::by_name(&spans));
    let traced_ops = op_ms[1].len() + eval_ms[1].len();
    out.set(
        "obs.spans_per_op",
        spans.len() as f64 / traced_ops.max(1) as f64,
    );
    out.set(
        "train.eval_shard_ms",
        tracefold::median_dur_ms(&spans, "train.eval.shard"),
    );

    out.set("train.neg_step_ms", fastest_op);
    // Computed, not measured: per triple and side, the anchor, positive
    // and negative rows of d floats are read and written, in the
    // embedding table and again in its Adagrad accumulator.
    let bytes_per_triple = (2 * (2 + NEGATIVES) * DIM * 4 * 2 * 2) as f64;
    out.set("train.neg_bytes_per_triple", bytes_per_triple);
    out.set(
        "train.neg_gbps",
        bytes_per_triple * BATCH as f64 / (fastest_op / 1e3) / 1e9,
    );

    // Single-thread pool against the global one, interleaved on the
    // same training state.
    let single = ThreadPool::new(1);
    let (mut one, mut all) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SPEEDUP_PAIRS {
        let t = Instant::now();
        step(&mut st, &single);
        one = one.min(secs(t));
        let t = Instant::now();
        step(&mut st, pool);
        all = all.min(secs(t));
    }
    out.set("train.neg_step_pool_speedup", one / all);

    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut negs = [0u32; NEGATIVES];
    let probes: Vec<_> = dataset.train.iter().take(256).copied().collect();
    let block_us = fastest_us(20, || {
        for t in &probes {
            eras_train::negative::sample_neg_block(
                t.head,
                t.rel,
                t.tail,
                true,
                dataset.num_entities(),
                Some(&filter),
                &mut rng,
                &mut negs,
            );
            black_box(&negs);
        }
    });
    out.set("train.neg_block_us", block_us / probes.len() as f64);

    let mut scores = [0f32; NEGATIVES + 1];
    for (i, s) in scores.iter_mut().enumerate() {
        *s = (i as f32 * 0.37).sin() * 4.0;
    }
    // 1 000 calls per repetition, so microseconds read as ns per call.
    let loss_us = fastest_us(20, || {
        for _ in 0..1000 {
            let mut block = scores;
            black_box(eras_linalg::softmax::neg_sampling_loss_and_residual(
                black_box(&mut block),
                GAMMA,
                ADV_TEMP,
            ));
        }
    });
    out.set("linalg.neg_loss_ns", loss_us);

    let draw_us = fastest_us(10, || {
        black_box(CandidateSet::draw(&st.emb, EVAL_CANDIDATES, EVAL_SEED));
    });
    out.set("train.candidate_draw_ms", draw_us / 1e3);
}
