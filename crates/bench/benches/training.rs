//! Embedding-training benchmarks.
//!
//! Three sections:
//!
//! 1. The sampled minibatch micro-benchmark — the sequential step of
//!    `LossMode::Sampled` at 32 and 128 negatives.
//! 2. Thread-scaling epoch benchmark — one full-softmax training epoch
//!    on the sharded step (the step of `LossMode::Full`) at pool sizes
//!    1/2/4/8 on the Tiny preset at dim 64; speedups are relative to
//!    pool size 1. Configurations are interleaved round-robin within
//!    each repetition so machine noise hits all of them alike, and the
//!    minimum over repetitions is reported (the standard noise-robust
//!    estimator for a deterministic workload). Emits
//!    `results/BENCH_training.json` (under `crates/bench/`).
//!
//! 3. Observability overhead — the full trainer (spans, events,
//!    metrics all live) with a JSONL tracer draining to a sink vs no
//!    tracer installed, interleaved the same way. This is the number
//!    behind the "<5% epoch overhead" claim in
//!    `docs/observability.md`; keys `obs_{off,on}_epoch_ms_*` and
//!    `obs_overhead_pct`.
//!
//! Set `ERAS_BENCH_QUICK=1` to cut the repetition count for CI smoke
//! runs; the JSON is still written, with `"quick": true`.

use eras_bench::harness::bench;
use eras_bench::report::save_json;
use eras_data::presets::Preset;
use eras_data::{FilterIndex, Json, Triple};
use eras_linalg::optim::Adagrad;
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_sf::zoo;
use eras_train::block::{train_minibatch, BlockScratch};
use eras_train::parallel::{train_minibatch_parallel, GradShards};
use eras_train::trainer::{train_standalone_on, TrainConfig};
use eras_train::{BlockModel, Embeddings, LossMode};
use std::hint::black_box;
use std::time::Instant;

fn bench_train_minibatch() {
    let num_entities = 2000;
    let dim = 32;
    let batch: Vec<Triple> = (0..64u32)
        .map(|i| Triple::new(i % 500, i % 8, (i * 7 + 3) % 2000))
        .collect();
    for (name, mode) in [
        ("sampled32", LossMode::Sampled { negatives: 32 }),
        ("sampled128", LossMode::Sampled { negatives: 128 }),
    ] {
        let mut rng = Rng::seed_from_u64(3);
        let mut emb = Embeddings::init(num_entities, 8, dim, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 8);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 0.0);
        let mut scratch = BlockScratch::new();
        bench(&format!("train_minibatch_64_triples/{name}/d{dim}"), || {
            black_box(train_minibatch(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                black_box(&batch),
                mode,
                None,
                &mut rng,
                &mut scratch,
            ))
        });
    }
}

/// Pool sizes exercised by the scaling section.
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];
const DIM: usize = 64;
const BATCH_SIZE: usize = 512;

/// Mutable per-configuration training state; every configuration gets
/// an identical seed-3 start so the epochs do identical numeric work.
struct TrainState {
    rng: Rng,
    emb: Embeddings,
    opt_e: Adagrad,
    opt_r: Adagrad,
}

impl TrainState {
    fn fresh(num_entities: usize, num_relations: usize) -> TrainState {
        let mut rng = Rng::seed_from_u64(3);
        let emb = Embeddings::init(num_entities, num_relations, DIM, &mut rng);
        let opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 0.0);
        let opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 0.0);
        TrainState {
            rng,
            emb,
            opt_e,
            opt_r,
        }
    }
}

fn min_med(times: &mut [f64]) -> (f64, f64) {
    times.sort_by(f64::total_cmp);
    (times[0], times[times.len() / 2])
}

fn bench_epoch_scaling() -> Json {
    let quick = std::env::var("ERAS_BENCH_QUICK").is_ok();
    let reps = if quick { 8 } else { 60 };
    let ds = Preset::Tiny.build(7);
    let model = BlockModel::universal(zoo::complex(), ds.num_relations());

    let mut dp: Vec<(ThreadPool, TrainState, GradShards, Vec<f64>)> = POOL_SIZES
        .iter()
        .map(|&t| {
            (
                ThreadPool::new(t),
                TrainState::fresh(ds.num_entities(), ds.num_relations()),
                GradShards::new(),
                Vec::with_capacity(reps),
            )
        })
        .collect();

    // Round-robin: every repetition runs one epoch of every
    // configuration back-to-back, so a slow phase of the machine taxes
    // all of them equally instead of biasing whichever config it hits.
    for _ in 0..reps {
        for (pool, state, shards, times) in dp.iter_mut() {
            let t0 = Instant::now();
            for chunk in ds.train.chunks(BATCH_SIZE) {
                black_box(train_minibatch_parallel(
                    &model,
                    &mut state.emb,
                    &mut state.opt_e,
                    &mut state.opt_r,
                    chunk,
                    LossMode::Full,
                    None,
                    0.0,
                    &mut state.rng,
                    pool,
                    shards,
                ));
            }
            times.push(t0.elapsed().as_secs_f64());
        }
    }

    let mut results = Json::obj()
        .set("entities", ds.num_entities())
        .set("relations", ds.num_relations())
        .set("train_triples", ds.train.len())
        .set("dim", DIM)
        .set("batch", BATCH_SIZE)
        .set("loss", "full")
        .set("reps", reps)
        .set("quick", quick);

    let stats: Vec<(f64, f64)> = dp.iter_mut().map(|(.., times)| min_med(times)).collect();
    // POOL_SIZES starts at 1: every speedup is against one thread.
    let one_thread_min = stats[0].0;
    let mut speedup_at_4 = 0.0;
    for (&(dp_min, dp_med), &t) in stats.iter().zip(&POOL_SIZES) {
        let speedup = one_thread_min / dp_min;
        if t == 4 {
            speedup_at_4 = speedup;
        }
        println!(
            "{:<40} min {:>8.3} ms  med {:>8.3} ms  speedup(min) {speedup:.2}x",
            format!("train_epoch/tiny_d64_full/dp_{t}t"),
            dp_min * 1e3,
            dp_med * 1e3
        );
        results = results
            .set(&format!("dp{t}_epoch_ms_min"), dp_min * 1e3)
            .set(&format!("dp{t}_epoch_ms_med"), dp_med * 1e3)
            .set(&format!("dp{t}_speedup_min"), speedup);
    }
    results.set("speedup_at_4_threads", speedup_at_4)
}

/// Observability overhead: full trainer runs (instrumented epoch,
/// batch, and eval paths) with the JSONL tracer draining into
/// `io::sink()` versus no tracer installed. The two arms interleave
/// within each repetition like the scaling section, and both run the
/// identical deterministic workload, so the delta is exactly the cost
/// of serializing spans and events.
fn bench_obs_overhead(results: Json) -> Json {
    let quick = std::env::var("ERAS_BENCH_QUICK").is_ok();
    let reps = if quick { 4 } else { 24 };
    let ds = Preset::Tiny.build(7);
    let filter = FilterIndex::build(&ds);
    let model = BlockModel::universal(zoo::complex(), ds.num_relations());
    // A one-thread pool: more threads on an oversubscribed container
    // add scheduler noise an order of magnitude larger than the effect
    // being measured, and the trainer walks the same instrumented
    // epoch/batch/step/eval code at every pool size.
    let cfg = TrainConfig {
        dim: 32,
        max_epochs: 4,
        eval_every: 4,
        patience: 4,
        batch_size: BATCH_SIZE,
        loss: LossMode::Full,
        ..TrainConfig::default()
    };
    let pool = ThreadPool::new(1);

    let mut off_times = Vec::with_capacity(reps);
    let mut on_times = Vec::with_capacity(reps);
    let mut paired_ratio = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let outcome = train_standalone_on(&model, &ds, &filter, &cfg, &pool);
        let off = t0.elapsed().as_secs_f64() / outcome.epochs_run.max(1) as f64;

        let guard = eras_obs::trace::install_writer(Box::new(std::io::sink()));
        let t0 = Instant::now();
        let outcome = train_standalone_on(&model, &ds, &filter, &cfg, &pool);
        let on = t0.elapsed().as_secs_f64() / outcome.epochs_run.max(1) as f64;
        drop(guard);

        off_times.push(off);
        on_times.push(on);
        paired_ratio.push(on / off);
    }

    let (off_min, off_med) = min_med(&mut off_times);
    let (on_min, on_med) = min_med(&mut on_times);
    // Back-to-back arms within one repetition see the same machine
    // phase, so the median of the paired per-rep ratios isolates the
    // tracing cost from drift that min-of-arms cannot cancel.
    let (_, ratio_med) = min_med(&mut paired_ratio);
    let overhead_pct = 100.0 * (ratio_med - 1.0);
    println!(
        "{:<40} min {:>8.3} ms  med {:>8.3} ms",
        "train_epoch/obs_off/tiny_d32_full",
        off_min * 1e3,
        off_med * 1e3
    );
    println!(
        "{:<40} min {:>8.3} ms  med {:>8.3} ms  overhead(paired med) {overhead_pct:+.1}%",
        "train_epoch/obs_on/tiny_d32_full",
        on_min * 1e3,
        on_med * 1e3
    );
    results
        .set("obs_off_epoch_ms_min", off_min * 1e3)
        .set("obs_off_epoch_ms_med", off_med * 1e3)
        .set("obs_on_epoch_ms_min", on_min * 1e3)
        .set("obs_on_epoch_ms_med", on_med * 1e3)
        .set("obs_overhead_pct", overhead_pct)
}

fn main() {
    bench_train_minibatch();
    let results = bench_obs_overhead(bench_epoch_scaling());
    match save_json("BENCH_training", &results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_training.json: {e}"),
    }
}
