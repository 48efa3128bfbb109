//! Filtered-ranking evaluation micro-benchmark: the cost of one full
//! link-prediction pass, the dominant cost of every `M_val` evaluation.

use eras_bench::harness::bench;
use eras_data::{FilterIndex, Preset};
use eras_linalg::pool::ThreadPool;
use eras_linalg::Rng;
use eras_sf::zoo;
use eras_train::eval::link_prediction;
use eras_train::{BlockModel, Embeddings, RankingMode};
use std::hint::black_box;

fn bench_link_prediction() {
    let dataset = Preset::Tiny.build(4);
    let filter = FilterIndex::build(&dataset);
    let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
    for n_triples in [32usize, 120] {
        let mut rng = Rng::seed_from_u64(7);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            32,
            &mut rng,
        );
        let triples: Vec<_> = dataset.test.iter().copied().take(n_triples).collect();
        bench(&format!("link_prediction/{n_triples}"), || {
            black_box(link_prediction(
                &model,
                &emb,
                black_box(&triples),
                &filter,
                RankingMode::Full,
                ThreadPool::global(),
            ))
        });
    }
}

fn main() {
    bench_link_prediction();
}
