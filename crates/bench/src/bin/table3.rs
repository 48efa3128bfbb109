//! Table III: Hit@1 of existing scoring functions at the relation-pattern
//! level (the paper's motivation for relation-aware search).
//!
//! ```sh
//! cargo run --release -p eras-bench --bin table3 [-- --quick]
//! ```
//!
//! Trains each implemented scoring function on four benchmark stand-ins
//! and slices test Hit@1 by ground-truth relation pattern. The paper's
//! shape to reproduce: DistMult strong on symmetric / weak on
//! anti-symmetric; TransE the reverse; universal functions (ComplEx,
//! SimplE, Analogy, TuckER) competitive on both but not uniformly best.

use eras_bench::comparators::{run_comparator, Comparator};
use eras_bench::profiles::{quick_flag, Profile};
use eras_bench::report::{pct, save_json, Table};
use eras_data::json::{Json, ToJson};
use eras_data::{FilterIndex, Preset, RelationPattern};
use eras_linalg::pool::ThreadPool;
use eras_train::eval::link_prediction;
use eras_train::RankingMode;

struct Cell {
    model: String,
    dataset: String,
    pattern: String,
    hits1: f64,
    queries: usize,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("model", self.model.as_str())
            .set("dataset", self.dataset.as_str())
            .set("pattern", self.pattern.as_str())
            .set("hits1", self.hits1)
            .set("queries", self.queries)
    }
}

fn main() {
    let quick = quick_flag();
    let presets = [
        Preset::Wn18,
        Preset::Wn18rr,
        Preset::Fb15k,
        Preset::Fb15k237,
    ];
    let models = [
        Comparator::TransE,
        Comparator::DistMult,
        Comparator::TuckEr,
        Comparator::ComplEx,
        Comparator::SimplE,
        Comparator::Analogy,
    ];
    let patterns = [RelationPattern::Symmetric, RelationPattern::AntiSymmetric];

    let mut cells: Vec<Cell> = Vec::new();
    for preset in presets {
        let profile = Profile::from_args(preset, 7, quick);
        let dataset = preset.build(7);
        let filter = FilterIndex::build(&dataset);
        eprintln!("training on {} ...", dataset.name);
        for model in models {
            let trained = run_comparator(model, &dataset, &filter, &profile);
            for pattern in patterns {
                let triples = dataset.test_triples_with_pattern(pattern);
                if triples.is_empty() {
                    continue;
                }
                let m = link_prediction(
                    &*trained.model,
                    &trained.embeddings,
                    &triples,
                    &filter,
                    RankingMode::Full,
                    ThreadPool::global(),
                );
                cells.push(Cell {
                    model: model.name().into(),
                    dataset: dataset.name.clone(),
                    pattern: pattern.label().into(),
                    hits1: m.hits1,
                    queries: m.count,
                });
            }
        }
    }

    for pattern in patterns {
        println!(
            "\nTable III ({} relations) — Hit@1 (%) on test:\n",
            pattern.label()
        );
        let mut headers = vec!["Method"];
        let names: Vec<String> = presets.iter().map(|p| p.name().to_string()).collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        let mut table = Table::new(&headers);
        for model in models {
            let mut row = vec![model.name().to_string()];
            for preset in presets {
                let cell = cells.iter().find(|c| {
                    c.model == model.name()
                        && c.dataset == preset.name()
                        && c.pattern == pattern.label()
                });
                row.push(cell.map(|c| pct(c.hits1)).unwrap_or_else(|| "-".into()));
            }
            table.row(row);
        }
        print!("{}", table.render());
    }

    println!(
        "\npaper's shape: DistMult ≈ best on symmetric, poor on anti-symmetric;\n\
         TransE ~0 on symmetric; universal SFs good-but-not-dominant on both."
    );
    match save_json("table3", &cells) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
