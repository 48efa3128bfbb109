//! Table VIII: pattern-level Hit@1 for ERAS vs ERAS^{N=1}.
//!
//! ```sh
//! cargo run --release -p eras-bench --bin table8 [-- --quick]
//! ```
//!
//! The paper's shape: the relation-aware ERAS beats its own universal
//! variant ERAS^{N=1} on *both* symmetric and anti-symmetric slices of
//! each dataset — relation-awareness helps exactly at the pattern level.

use eras_bench::literature;
use eras_bench::profiles::{quick_flag, Profile};
use eras_bench::report::{pct, save_json, Table};
use eras_core::{run_eras, ErasConfig, Variant};
use eras_data::json::{Json, ToJson};
use eras_data::{FilterIndex, Preset, RelationPattern};
use eras_linalg::pool::ThreadPool;
use eras_train::eval::link_prediction;
use eras_train::RankingMode;

struct Cell {
    method: String,
    dataset: String,
    pattern: String,
    hits1: f64,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("method", self.method.as_str())
            .set("dataset", self.dataset.as_str())
            .set("pattern", self.pattern.as_str())
            .set("hits1", self.hits1)
    }
}

fn main() {
    let quick = quick_flag();
    let presets = [Preset::Wn18rr, Preset::Fb15k, Preset::Fb15k237];
    let patterns = [RelationPattern::Symmetric, RelationPattern::AntiSymmetric];
    let mut cells: Vec<Cell> = Vec::new();

    for preset in presets {
        let profile = Profile::from_args(preset, 7, quick);
        let dataset = preset.build(7);
        let filter = FilterIndex::build(&dataset);
        eprintln!("=== {} ===", dataset.name);
        for (name, n_groups) in [("ERAS(N=1)", 1usize), ("ERAS", profile.eras.n_groups)] {
            let cfg = ErasConfig {
                n_groups,
                ..profile.eras.clone()
            };
            let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
            for pattern in patterns {
                let triples = dataset.test_triples_with_pattern(pattern);
                if triples.is_empty() {
                    continue;
                }
                let m = link_prediction(
                    &outcome.model,
                    &outcome.embeddings,
                    &triples,
                    &filter,
                    RankingMode::Full,
                    ThreadPool::global(),
                );
                eprintln!("  {name} {} Hit@1 {:.3}", pattern.label(), m.hits1);
                cells.push(Cell {
                    method: name.into(),
                    dataset: dataset.name.clone(),
                    pattern: pattern.label().into(),
                    hits1: m.hits1,
                });
            }
        }
    }

    println!("\nTable VIII — Hit@1 (%) at the relation-pattern level:\n");
    let mut headers: Vec<String> = vec!["Method".into()];
    for pattern in patterns {
        for preset in presets {
            headers.push(format!("{} {}", pattern.label(), preset.name()));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for method in ["ERAS(N=1)", "ERAS"] {
        let mut row = vec![method.to_string()];
        for pattern in patterns {
            for preset in presets {
                let cell = cells.iter().find(|c| {
                    c.method == method && c.dataset == preset.name() && c.pattern == pattern.label()
                });
                row.push(cell.map(|c| pct(c.hits1)).unwrap_or_else(|| "-".into()));
            }
        }
        table.row(row);
    }
    print!("{}", table.render());

    println!("\npaper's Table VIII (real datasets, Hit@1 %):\n");
    let mut lit = Table::new(&[
        "Method",
        "sym WN18RR",
        "sym FB15k",
        "sym FB15k237",
        "anti WN18RR",
        "anti FB15k",
        "anti FB15k237",
    ]);
    for (name, vals) in literature::TABLE8 {
        let mut row = vec![name.to_string()];
        row.extend(vals.iter().map(|v| format!("{v:.1}")));
        lit.row(row);
    }
    print!("{}", lit.render());
    println!("\nshape to check: ERAS ≥ ERAS(N=1) on every pattern column.");

    match save_json("table8", &cells) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
