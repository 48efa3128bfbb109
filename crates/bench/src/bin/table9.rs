//! Table IX: running-time analysis of the automated approaches.
//!
//! ```sh
//! cargo run --release -p eras-bench --bin table9 [-- --quick]
//! ```
//!
//! Measures, per dataset stand-in: AutoSF's greedy-search and evaluation
//! time, ERAS^{N=1} / ERAS supernet-training and evaluation time, and the
//! training time of a hand-designed model (DistMult). The absolute unit
//! is CPU-seconds here vs GPU-hours in the paper; the *shape* to check is
//! AutoSF's search phase dwarfing ERAS's supernet phase (the one-shot
//! speed-up), with the stand-alone evaluation/retraining phases being of
//! the same order for all methods.

use eras_bench::literature;
use eras_bench::profiles::{quick_flag, Profile};
use eras_bench::report::{save_json, Table};
use eras_core::{run_eras, ErasConfig, Variant};
use eras_data::json::{Json, ToJson};
use eras_data::{FilterIndex, Preset};
use eras_search::autosf;
use eras_train::trainer::train_standalone;
use eras_train::BlockModel;
use std::time::Instant;

struct Row {
    method: String,
    dataset: String,
    search_secs: f64,
    evaluation_secs: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("method", self.method.as_str())
            .set("dataset", self.dataset.as_str())
            .set("search_secs", self.search_secs)
            .set("evaluation_secs", self.evaluation_secs)
    }
}

fn main() {
    let quick = quick_flag();
    let mut rows: Vec<Row> = Vec::new();

    for preset in Preset::paper_benchmarks() {
        let profile = Profile::from_args(preset, 7, quick);
        let dataset = preset.build(7);
        let filter = FilterIndex::build(&dataset);
        eprintln!("=== {} ===", dataset.name);

        // AutoSF: the "search" phase is the greedy loop's stand-alone
        // trainings; the "evaluation" phase is retraining the winner.
        let started = Instant::now();
        let result = autosf::search(
            &dataset,
            &filter,
            &profile.search_train,
            &profile.autosf,
            profile.search_budget,
        );
        let search_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let model = BlockModel::universal(result.best_sf, dataset.num_relations());
        let _ = train_standalone(&model, &dataset, &filter, &profile.train);
        rows.push(Row {
            method: "AutoSF".into(),
            dataset: dataset.name.clone(),
            search_secs,
            evaluation_secs: started.elapsed().as_secs_f64(),
        });

        for (name, n_groups) in [("ERAS(N=1)", 1usize), ("ERAS", profile.eras.n_groups)] {
            let cfg = ErasConfig {
                n_groups,
                ..profile.eras.clone()
            };
            let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
            rows.push(Row {
                method: name.into(),
                dataset: dataset.name.clone(),
                search_secs: outcome.search_secs,
                evaluation_secs: outcome.evaluation_secs,
            });
        }

        // Hand-designed reference: one stand-alone DistMult training.
        let started = Instant::now();
        let model = BlockModel::universal(eras_sf::zoo::distmult(4), dataset.num_relations());
        let _ = train_standalone(&model, &dataset, &filter, &profile.train);
        rows.push(Row {
            method: "DistMult (hand-designed)".into(),
            dataset: dataset.name.clone(),
            search_secs: 0.0,
            evaluation_secs: started.elapsed().as_secs_f64(),
        });
    }

    println!(
        "\nTable IX — running time (seconds, {} pool threads):\n",
        eras_linalg::pool::ThreadPool::global().parallelism()
    );
    let names: Vec<String> = Preset::paper_benchmarks()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let mut headers = vec!["method / phase"];
    headers.extend(names.iter().map(|s| s.as_str()));
    let mut table = Table::new(&headers);
    for method in ["AutoSF", "ERAS(N=1)", "ERAS", "DistMult (hand-designed)"] {
        for (phase, pick) in [("search", true), ("evaluation", false)] {
            if method.starts_with("DistMult") && phase == "search" {
                continue;
            }
            let mut row = vec![format!("{method} {phase}")];
            for preset in Preset::paper_benchmarks() {
                let r = rows
                    .iter()
                    .find(|r| r.method == method && r.dataset == preset.name());
                row.push(
                    r.map(|r| {
                        format!(
                            "{:.1}",
                            if pick {
                                r.search_secs
                            } else {
                                r.evaluation_secs
                            }
                        )
                    })
                    .unwrap_or_else(|| "-".into()),
                );
            }
            table.row(row);
        }
    }
    print!("{}", table.render());

    println!("\npaper's Table IX (GPU hours, real datasets):\n");
    let mut lit = Table::new(&[
        "method / phase",
        "WN18",
        "FB15k",
        "WN18RR",
        "FB15k237",
        "YAGO",
    ]);
    for (name, vals) in literature::TABLE9 {
        let mut row = vec![name.to_string()];
        row.extend(vals.iter().map(|v| format!("{v:.1}")));
        lit.row(row);
    }
    print!("{}", lit.render());
    println!(
        "\nshape to check: AutoSF search ≫ ERAS supernet training (the one-shot\n\
         speed-up, >10x in the paper); evaluation phases comparable across methods."
    );

    match save_json("table9", &rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
