//! Serving-engine benchmark: single-query latency and batched top-k
//! throughput on a synthetic 50k-entity graph.
//!
//! Measures the `QueryEngine` kernel itself (cache disabled, anchors
//! rotated so no result is reused): one pass over the entity table per
//! query, and one *shared* pass for a 64-query batch — the difference is
//! the batching win. Emits `results/BENCH_serving.json` (under `crates/bench/`).

use eras_bench::harness::bench;
use eras_bench::report::save_json;
use eras_data::vocab::Vocab;
use eras_data::{Json, Triple};
use eras_linalg::Rng;
use eras_serve::{Direction, Query, QueryEngine};
use eras_sf::zoo;
use eras_train::io::Snapshot;
use eras_train::{BlockModel, Embeddings};
use std::hint::black_box;
use std::time::Instant;

const NUM_ENTITIES: usize = 50_000;
const NUM_RELATIONS: usize = 16;
const DIM: usize = 32;
const KNOWN_TRIPLES: usize = 150_000;
const BATCH: usize = 64;

fn synthetic_engine() -> QueryEngine {
    let mut rng = Rng::seed_from_u64(7);
    let mut entities = Vocab::new();
    for i in 0..NUM_ENTITIES {
        entities.intern(&format!("ent_{i}"));
    }
    let mut relations = Vocab::new();
    for r in 0..NUM_RELATIONS {
        relations.intern(&format!("rel_{r}"));
    }
    let model = BlockModel::universal(zoo::complex(), NUM_RELATIONS);
    let embeddings = Embeddings::init(NUM_ENTITIES, NUM_RELATIONS, DIM, &mut rng);
    let known: Vec<Triple> = (0..KNOWN_TRIPLES)
        .map(|_| {
            Triple::new(
                rng.next_below(NUM_ENTITIES) as u32,
                rng.next_below(NUM_RELATIONS) as u32,
                rng.next_below(NUM_ENTITIES) as u32,
            )
        })
        .collect();
    let snap = Snapshot::new(
        "bench-serving",
        entities,
        relations,
        &model,
        embeddings,
        known,
    );
    // Cache disabled: this benchmark measures the scoring kernel.
    QueryEngine::new(snap, 0).expect("valid synthetic snapshot")
}

fn query(anchor: u32, k: usize) -> Query {
    Query {
        dir: Direction::Tail,
        anchor: anchor % NUM_ENTITIES as u32,
        rel: anchor % NUM_RELATIONS as u32,
        k,
        filtered: true,
    }
}

fn main() {
    let engine = synthetic_engine();
    let mut results = Json::obj()
        .set("entities", NUM_ENTITIES)
        .set("relations", NUM_RELATIONS)
        .set("dim", DIM)
        .set("known_triples", KNOWN_TRIPLES)
        .set("batch", BATCH);

    for k in [1usize, 10, 100] {
        // Single-query latency, rotating anchors to defeat any reuse.
        let mut anchor = 0u32;
        let ns = bench(&format!("serve/single_query/k{k}"), || {
            anchor = anchor.wrapping_add(1);
            black_box(engine.answer(black_box(query(anchor, k))).expect("query"))
        });
        results = results
            .set(&format!("single_query_k{k}_ns"), ns)
            .set(&format!("single_query_k{k}_qps"), 1e9 / ns);

        // Batched throughput: BATCH queries, one shared table pass.
        let mut base = 0u32;
        let ns = bench(&format!("serve/batch{BATCH}/k{k}"), || {
            base = base.wrapping_add(BATCH as u32);
            let queries: Vec<Query> = (0..BATCH as u32).map(|i| query(base + i, k)).collect();
            black_box(engine.answer_batch(black_box(&queries)).expect("batch"))
        });
        let qps = BATCH as f64 * 1e9 / ns;
        results = results
            .set(&format!("batch{BATCH}_k{k}_ns"), ns)
            .set(&format!("batch{BATCH}_k{k}_qps"), qps);
        println!(
            "{:<40} {qps:>14.0} queries/sec",
            format!("serve/batch{BATCH}/k{k} throughput")
        );
    }

    // Observability overhead on the query path: the identical k=10
    // kernel with a JSONL tracer draining into `io::sink()` versus no
    // tracer installed. The engine's spans and events are compiled in
    // either way (this crate builds with `obs-hook`); the delta is the
    // serialization cost once a sink is live. Arms run back-to-back
    // inside each round and the median of the paired per-round ratios
    // is reported, which cancels machine drift the independent
    // estimates above cannot.
    let quick = std::env::var("ERAS_BENCH_QUICK").is_ok();
    let rounds = if quick { 4 } else { 16 };
    let iters = 24u32;
    let mut anchor = 0u32;
    let mut off_best = f64::INFINITY;
    let mut on_best = f64::INFINITY;
    let mut paired_ratio = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            anchor = anchor.wrapping_add(1);
            black_box(engine.answer(black_box(query(anchor, 10))).expect("query"));
        }
        let off = t0.elapsed().as_nanos() as f64 / f64::from(iters);

        let guard = eras_obs::trace::install_writer(Box::new(std::io::sink()));
        let t0 = Instant::now();
        for _ in 0..iters {
            anchor = anchor.wrapping_add(1);
            black_box(engine.answer(black_box(query(anchor, 10))).expect("query"));
        }
        let on = t0.elapsed().as_nanos() as f64 / f64::from(iters);
        drop(guard);

        off_best = off_best.min(off);
        on_best = on_best.min(on);
        paired_ratio.push(on / off);
    }
    paired_ratio.sort_by(f64::total_cmp);
    // The paired median still jitters between rounds; on a quiet kernel
    // it can land slightly *below* 1.0, which earlier runs reported as
    // a nonsensical negative overhead. Estimate the round-to-round
    // noise floor from the interquartile range of the paired ratios and
    // clamp the reported overhead: a median within the floor (either
    // side of 1.0) is indistinguishable from zero. The raw median is
    // kept alongside so the clamping is auditable.
    let n = paired_ratio.len();
    let overhead_raw_pct = 100.0 * (paired_ratio[n / 2] - 1.0);
    let noise_floor_pct = 100.0 * (paired_ratio[(3 * n) / 4] - paired_ratio[n / 4]);
    let overhead_pct = if overhead_raw_pct.abs() <= noise_floor_pct {
        0.0
    } else {
        overhead_raw_pct.max(0.0)
    };
    if overhead_raw_pct.abs() <= noise_floor_pct {
        println!(
            "{:<40} {:>14} (raw {overhead_raw_pct:+.1}%, floor {noise_floor_pct:.1}%)",
            "serve/obs_on/single_query/k10 overhead", "\u{2264} noise"
        );
    } else {
        println!(
            "{:<40} {overhead_pct:>+13.1}% vs untraced (paired med, floor {noise_floor_pct:.1}%)",
            "serve/obs_on/single_query/k10 overhead"
        );
    }
    results = results
        .set("obs_off_single_query_k10_ns", off_best)
        .set("obs_on_single_query_k10_ns", on_best)
        .set("obs_overhead_pct", overhead_pct)
        .set("obs_overhead_pct_raw", overhead_raw_pct)
        .set("noise_floor", noise_floor_pct);

    match save_json("BENCH_serving", &results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_serving.json: {e}"),
    }
}
