//! Table X: triplet classification accuracy.
//!
//! ```sh
//! cargo run --release -p eras-bench --bin table10 [-- --quick]
//! ```

use eras_bench::comparators::{run_comparator, Comparator};
use eras_bench::literature;
use eras_bench::profiles::{quick_flag, Profile};
use eras_bench::report::{save_json, Table};
use eras_core::{run_eras, Variant};
use eras_data::json::{Json, ToJson};
use eras_data::{FilterIndex, Preset};
use eras_train::classify::classify_dataset;

struct Cell {
    model: String,
    dataset: String,
    accuracy: f64,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("model", self.model.as_str())
            .set("dataset", self.dataset.as_str())
            .set("accuracy", self.accuracy)
    }
}

fn main() {
    let quick = quick_flag();
    let presets = [Preset::Fb15k, Preset::Wn18rr, Preset::Fb15k237];
    let mut cells: Vec<Cell> = Vec::new();

    for preset in presets {
        let profile = Profile::from_args(preset, 7, quick);
        let dataset = preset.build(7);
        let filter = FilterIndex::build(&dataset);
        eprintln!("=== {} ===", dataset.name);
        for c in Comparator::bilinear() {
            let trained = run_comparator(c, &dataset, &filter, &profile);
            let acc = classify_dataset(&*trained.model, &trained.embeddings, &dataset, &filter, 99);
            eprintln!("  {:<10} acc {:.3}", c.name(), acc);
            cells.push(Cell {
                model: c.name().into(),
                dataset: dataset.name.clone(),
                accuracy: acc,
            });
        }
        let outcome = run_eras(&dataset, &filter, &profile.eras, Variant::Full);
        let acc = classify_dataset(&outcome.model, &outcome.embeddings, &dataset, &filter, 99);
        eprintln!("  {:<10} acc {:.3}", "ERAS", acc);
        cells.push(Cell {
            model: "ERAS".into(),
            dataset: dataset.name.clone(),
            accuracy: acc,
        });
    }

    println!("\nTable X — triplet classification accuracy (%):\n");
    let mut headers = vec!["model"];
    let names: Vec<String> = presets.iter().map(|p| p.name().to_string()).collect();
    headers.extend(names.iter().map(|s| s.as_str()));
    let mut table = Table::new(&headers);
    for model in ["DistMult", "ComplEx", "SimplE", "Analogy", "ERAS"] {
        let mut row = vec![model.to_string()];
        for preset in presets {
            let c = cells
                .iter()
                .find(|c| c.model == model && c.dataset == preset.name());
            row.push(
                c.map(|c| format!("{:.1}", 100.0 * c.accuracy))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.row(row);
    }
    print!("{}", table.render());

    println!("\npaper's Table X (real datasets, accuracy %):\n");
    let mut lit = Table::new(&["model", "FB15k", "WN18RR", "FB15k237"]);
    for (name, a, b, c) in literature::TABLE10 {
        lit.row(vec![
            name.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{c:.1}"),
        ]);
    }
    print!("{}", lit.render());
    println!("\nshape to check: ERAS at or above every fixed bilinear model per dataset.");

    match save_json("table10", &cells) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
