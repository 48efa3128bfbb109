//! Search-time static pruning: what a refuted candidate costs with the
//! numeric filter on versus off.
//!
//! A seeded candidate pool (random M=4 structures, the mix the
//! searchers actually draw from) streams through
//! `StandaloneEvaluator::evaluate_batch` twice — filter on and filter
//! off — and the run records the pruned-candidate rate, total and
//! per-candidate wall-clock both ways, and the raw cost of one
//! `certify` call (the static overhead a sound candidate pays). Backs
//! the search-efficiency notes in `docs/performance.md`. Emits
//! `results/BENCH_search.json` (under `crates/bench/`). Set `ERAS_BENCH_QUICK` for a smoke run
//! (smaller pool, fewer epochs) — the JSON is still written, with a
//! `quick` marker.

use eras_bench::harness::bench;
use eras_bench::report::save_json;
use eras_data::{FilterIndex, Json, Preset};
use eras_linalg::Rng;
use eras_search::evaluator::{SearchBudget, StandaloneEvaluator};
use eras_sf::numeric::certify;
use eras_sf::{BlockSf, NormBounds};
use eras_train::trainer::TrainConfig;
use std::hint::black_box;
use std::time::Instant;

fn cfg(quick: bool) -> TrainConfig {
    TrainConfig {
        dim: 16,
        max_epochs: if quick { 2 } else { 5 },
        eval_every: 1,
        patience: 2,
        ..TrainConfig::default()
    }
}

/// The candidate mix a random searcher proposes: seeded M=4 structures
/// with 6 occupied cells. A good fraction carry dead blocks — that is
/// exactly the population the filter exists for.
fn candidate_pool(n: usize, seed: u64) -> Vec<BlockSf> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| BlockSf::random(4, 6, &mut rng)).collect()
}

struct RunStats {
    secs: f64,
    trained: usize,
    pruned: usize,
}

fn run_pool(
    dataset: &eras_data::Dataset,
    filter: &FilterIndex,
    cfg: TrainConfig,
    pool: &[BlockSf],
    numeric_filter: bool,
) -> RunStats {
    let mut ev = StandaloneEvaluator::new(
        if numeric_filter {
            "filter-on"
        } else {
            "filter-off"
        },
        dataset,
        filter,
        cfg,
        SearchBudget::default(),
    )
    .numeric_filter(numeric_filter);
    let start = Instant::now();
    for chunk in pool.chunks(8) {
        black_box(ev.evaluate_batch(chunk));
    }
    let secs = start.elapsed().as_secs_f64();
    RunStats {
        secs,
        trained: ev.evaluations(),
        pruned: ev.pruned(),
    }
}

fn main() {
    let quick = std::env::var("ERAS_BENCH_QUICK").is_ok();
    let pool_size = if quick { 24 } else { 64 };

    let dataset = Preset::Tiny.build(1);
    let filter = FilterIndex::build(&dataset);
    let pool = candidate_pool(pool_size, 11);

    // The static overhead itself: one full certificate (expression
    // graph, symbolic gradients, interval evaluation) for a sound and
    // for a refuted candidate.
    let bounds = NormBounds::default();
    let sound = eras_sf::zoo::distmult(4);
    let ns_certify_sound = bench("certify/sound_distmult_d16", || {
        black_box(certify(black_box(&sound), bounds, 16))
    });
    let dead = {
        let mut sf = eras_sf::zoo::distmult(4);
        sf.set(3, 3, eras_sf::Op::Zero);
        sf
    };
    let ns_certify_dead = bench("certify/refuted_dead_row_d16", || {
        black_box(certify(black_box(&dead), bounds, 16))
    });

    let on = run_pool(&dataset, &filter, cfg(quick), &pool, true);
    let off = run_pool(&dataset, &filter, cfg(quick), &pool, false);
    println!(
        "pool {}: filter on  {:>7.3}s ({} trained, {} pruned)",
        pool.len(),
        on.secs,
        on.trained,
        on.pruned
    );
    println!(
        "pool {}: filter off {:>7.3}s ({} trained)",
        pool.len(),
        off.secs,
        off.trained
    );

    let results = Json::obj()
        .set("quick", quick)
        .set("pool_size", pool.len())
        .set("certify_sound_ns", ns_certify_sound)
        .set("certify_refuted_ns", ns_certify_dead)
        .set("pruned_candidates", on.pruned)
        .set("pruned_rate", on.pruned as f64 / pool.len().max(1) as f64)
        .set("filter_on_secs", on.secs)
        .set("filter_off_secs", off.secs)
        .set(
            "filter_on_per_candidate_ms",
            1e3 * on.secs / pool.len().max(1) as f64,
        )
        .set(
            "filter_off_per_candidate_ms",
            1e3 * off.secs / pool.len().max(1) as f64,
        )
        .set("trained_with_filter", on.trained)
        .set("trained_without_filter", off.trained);

    match save_json("BENCH_search", &results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_search.json: {e}"),
    }
}
