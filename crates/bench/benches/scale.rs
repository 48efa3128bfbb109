//! Million-entity scale benchmark: negative-sampling training plus
//! sampled filtered ranking on the synthetic `scale1m-synth` preset.
//!
//! The point being measured is the complexity switch behind
//! `LossMode::NegSampling`: a full-softmax epoch touches every entity
//! row per triple (O(entities · dim)), while the negative-sampling
//! epoch touches only the positive rows plus `negatives` sampled rows
//! (O(negatives · dim)) — the difference between "impossible" and
//! "seconds" at one million entities. Likewise `RankingMode::Sampled`
//! scores a fixed candidate set instead of the full entity table.
//!
//! Sections:
//!
//! 1. Dataset build — the cluster-permutation generator at 1M
//!    entities / 3M triples (`gen_s`).
//! 2. Epoch timing — neg-sampling epochs at pool sizes 1 and 4,
//!    interleaved round-robin per repetition like
//!    `benches/training.rs`; the timed repetitions *are* the training
//!    run, so the states carry across reps and the final embeddings
//!    feed section 3. Keys `dp{1,4}_epoch_ms_{min,med}`.
//! 3. Sampled filtered ranking over the test split
//!    (`sampled_eval_ms`, `dp{1,4}_sampled_mrr`); the two MRRs must
//!    agree bit-for-bit because data-parallel training is pool-size
//!    invariant. `random_mrr` is a random scorer's expected MRR over
//!    the candidates plus the target, H(201)/201, and `mrr_over_random`
//!    the trained model's multiple of it: after the JSON is written the
//!    bench exits non-zero unless the sampled MRR beats `random_mrr`,
//!    in quick and full mode alike.
//! 4. Bytes-touched accounting — the analytic per-epoch embedding
//!    traffic of the sparse path vs the dense full-softmax path
//!    (`sparse_epoch_bytes`, `dense_epoch_bytes`, `touch_ratio`),
//!    plus the process peak-RSS proxy from `/proc/self/status`
//!    (`peak_rss_bytes`, 0 where unavailable).
//!
//! Set `ERAS_BENCH_QUICK=1` for CI smoke runs: the `scale-smoke-synth`
//! preset (20k entities) replaces the 1M one and the JSON is written
//! with `"quick": true`.

use eras_bench::harness::bench;
use eras_bench::report::save_json;
use eras_data::{FilterIndex, Json, ScalePreset};
use eras_linalg::optim::Adagrad;
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_sf::zoo;
use eras_train::eval::link_prediction;
use eras_train::parallel::{train_minibatch_parallel, GradShards};
use eras_train::{BlockModel, Corruption, Embeddings, LossMode, NegCtx, RankingMode};
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 32;
const BATCH_SIZE: usize = 4096;
const NEGATIVES: usize = 16;
const GAMMA: f32 = 6.0;
const ADV_TEMP: f32 = 1.0;
const EVAL_CANDIDATES: usize = 200;
const EVAL_SEED: u64 = 42;
const POOL_SIZES: [usize; 2] = [1, 4];

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

/// Peak resident set in bytes from `/proc/self/status` (`VmHWM`);
/// 0 on platforms without procfs.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn main() {
    let quick = std::env::var("ERAS_BENCH_QUICK").is_ok();
    let reps = if quick { 2 } else { 4 };
    let preset = if quick {
        ScalePreset::ScaleSmoke
    } else {
        ScalePreset::Scale1M
    };

    let t0 = Instant::now();
    let ds = preset.build(7);
    let gen_s = t0.elapsed().as_secs_f64();
    let filter = FilterIndex::build(&ds);
    let model = BlockModel::universal(zoo::complex(), ds.num_relations());
    let neg = NegCtx::uniform(&filter);
    let mode = LossMode::NegSampling {
        negatives: NEGATIVES,
        gamma: GAMMA,
        adversarial_temp: ADV_TEMP,
        corruption: Corruption::Uniform,
    };
    println!(
        "{:<40} {} entities, {} relations, {} train triples ({gen_s:.1}s to generate)",
        format!("scale/{}", preset.name()),
        ds.num_entities(),
        ds.num_relations(),
        ds.train.len()
    );

    bench(
        &format!("scale_sampled_neg_block/{}/d{DIM}", preset.name()),
        || {
            let mut rng = Rng::seed_from_u64(9);
            let mut out = [0u32; NEGATIVES];
            eras_train::negative::sample_neg_block(
                11,
                0,
                17,
                true,
                ds.num_entities(),
                Some(&filter),
                &mut rng,
                &mut out,
            );
            black_box(out)
        },
    );

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

    // Round-robin like `benches/training.rs`, except the reps are the
    // run itself: rep r is epoch r of every configuration, so both
    // states end the loop bit-identically trained for `reps` epochs.
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
                    mode,
                    Some(&neg),
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
        .set("preset", preset.name())
        .set("entities", ds.num_entities())
        .set("relations", ds.num_relations())
        .set("train_triples", ds.train.len())
        .set("test_triples", ds.test.len())
        .set("dim", DIM)
        .set("batch", BATCH_SIZE)
        .set("loss", "neg")
        .set("negatives", NEGATIVES)
        .set("gamma", GAMMA as f64)
        .set("adv_temp", ADV_TEMP as f64)
        .set("eval_candidates", EVAL_CANDIDATES)
        .set("eval_seed", EVAL_SEED)
        .set("epochs", reps)
        .set("quick", quick)
        .set("generate_s", gen_s);

    for ((_, _, _, times), &t) in dp.iter_mut().zip(&POOL_SIZES) {
        let (dp_min, dp_med) = min_med(times);
        println!(
            "{:<40} min {:>9.1} ms  med {:>9.1} ms",
            format!(
                "scale_epoch/{}/neg{NEGATIVES}_d{DIM}/dp_{t}t",
                preset.name()
            ),
            dp_min * 1e3,
            dp_med * 1e3
        );
        results = results
            .set(&format!("dp{t}_epoch_ms_min"), dp_min * 1e3)
            .set(&format!("dp{t}_epoch_ms_med"), dp_med * 1e3);
    }

    // Sampled filtered ranking on each trained state. Data-parallel
    // training is bit-identical across pool sizes and the candidate
    // set is a function of (n, candidates, seed) alone, so the two
    // MRRs must agree exactly; a mismatch here is a determinism bug.
    let mut mrrs = Vec::new();
    for ((pool, state, _, _), &t) in dp.iter().zip(&POOL_SIZES) {
        let t0 = Instant::now();
        let m = link_prediction(
            &model,
            &state.emb,
            &ds.test,
            &filter,
            RankingMode::Sampled {
                candidates: EVAL_CANDIDATES,
                seed: EVAL_SEED,
            },
            pool,
        );
        let eval_s = t0.elapsed().as_secs_f64();
        println!(
            "{:<40} mrr {:.4}  hits@10 {:.4}  ({:.1} ms)",
            format!("scale_eval/{}/cand{EVAL_CANDIDATES}/dp_{t}t", preset.name()),
            m.mrr,
            m.hits10,
            eval_s * 1e3
        );
        results = results
            .set(&format!("dp{t}_sampled_mrr"), m.mrr)
            .set(&format!("dp{t}_sampled_hits10"), m.hits10)
            .set(&format!("dp{t}_sampled_eval_ms"), eval_s * 1e3);
        mrrs.push(m.mrr);
    }
    let bits_equal = mrrs.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
    assert!(
        bits_equal,
        "sampled MRR must be pool-size invariant: {mrrs:?}"
    );
    // Expected MRR of a random scorer ranking the target among
    // `EVAL_CANDIDATES` others: the mean of 1/r over r = 1..=201.
    let random_mrr = (1..=EVAL_CANDIDATES + 1)
        .map(|r| 1.0 / r as f64)
        .sum::<f64>()
        / (EVAL_CANDIDATES + 1) as f64;
    let mrr = mrrs[0];
    println!(
        "{:<40} mrr {mrr:.4}  random {random_mrr:.4}  ratio {:.2}",
        "scale_eval/chance",
        mrr / random_mrr
    );
    results = results
        .set("random_mrr", random_mrr)
        .set("mrr_over_random", mrr / random_mrr);

    // Analytic embedding traffic per epoch. The sparse path reads and
    // writes, per triple and side, the anchor row plus the positive
    // target and `NEGATIVES` candidate rows; the dense full-softmax
    // path scans the whole entity table per side instead.
    let row = DIM * std::mem::size_of::<f32>();
    let sparse = ds.train.len() as u64 * 2 * (2 + NEGATIVES as u64) * row as u64;
    let dense = ds.train.len() as u64 * 2 * ds.num_entities() as u64 * row as u64;
    let rss = peak_rss_bytes();
    println!(
        "{:<40} sparse {:.2} GB  dense {:.2} GB  ratio {:.0}x  peak rss {:.2} GB",
        "scale_bytes_touched/per_epoch",
        sparse as f64 / 1e9,
        dense as f64 / 1e9,
        dense as f64 / sparse as f64,
        rss as f64 / 1e9
    );
    results = results
        .set("sparse_epoch_bytes", sparse)
        .set("dense_epoch_bytes", dense)
        .set("touch_ratio", dense as f64 / sparse as f64)
        .set("peak_rss_bytes", rss)
        .set("dp_mrr_bits_equal", bits_equal);

    match save_json("BENCH_scale", &results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
    // Chance gate, after the report is on disk so a failing run still
    // leaves its numbers behind.
    if mrr.is_nan() || mrr <= random_mrr {
        eprintln!("sampled MRR {mrr:.4} does not beat the random scorer's {random_mrr:.4}");
        std::process::exit(1);
    }
}
