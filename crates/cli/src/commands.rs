//! CLI subcommands.

use crate::args::Args;
use eras_core::{run_eras, ErasConfig, Variant};
use eras_data::stats::{dataset_stats, stats_header};
use eras_data::{Dataset, FilterIndex, Preset, ScalePreset};
use eras_linalg::pool::ThreadPool;
use eras_search::evaluator::SearchBudget;
use eras_search::{autosf, random, tpe};
use eras_train::eval::link_prediction;
use eras_train::trainer::{
    train_standalone, train_standalone_resumable, CheckpointSpec, Execution, TrainConfig,
};
use eras_train::{BlockModel, Corruption, LossMode, RankingMode};
use std::fmt::Write as _;
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
eras — relation-aware scoring function search (ERAS, ICDE 2021 reproduction)

USAGE:
  eras stats    --preset NAME [--seed N]
  eras generate --preset NAME --out DIR [--seed N]
  eras train    (--preset NAME | --data DIR) [--model complex] [--dim 32]
                [--epochs 40] [--seed N] [--save FILE] [--snapshot FILE]
                [--loss sampled|full|neg] [--negatives N] [--full-loss]
                [--gamma 12.0] [--adv-temp 1.0] [--corruption uniform|bernoulli]
                [--sampled-eval N] [--eval-seed N]
                [--parallel] [--threads N] [--emb-bound 1.0]
                [--checkpoint FILE] [--checkpoint-every N] [--resume]
                [--quiet] [--log FILE] [--profile]
  eras search   (--preset NAME | --data DIR) [--method eras] [--groups 3]
                [--epochs 20] [--dim 32] [--seed N]
  eras eval     (--preset NAME | --data DIR) --embeddings FILE [--model complex]
                [--sampled N] [--eval-seed N]
  eras rules    (--preset NAME | --data DIR) [--seed N]
  eras audit    [--pass sf,numeric,grad,config,lint,flow,sched,chaos] [--format text|json]
                [--deny warnings] [--root DIR] [--sf-samples N] [--seed N]
                [--chaos-seeds N] [--chaos-budget SECS]
  eras serve    --snapshot FILE [--addr 127.0.0.1:8080] [--workers 4]
                [--cache 1024]
  eras query    --snapshot FILE (--head E | --tail E) --relation R
                [--k 10] [--unfiltered]
  eras obs      report --trace FILE [--top 10]

PRESETS: wn18 wn18rr fb15k fb15k237 yago tiny scale1m scale-smoke
MODELS:  distmult complex simple analogy
LOSSES:  sampled (1-vs-k softmax)  full (1-vs-all softmax)
         neg (gamma-margin logsigmoid with negative sampling; scales to
         millions of entities — pair with --sampled-eval / eval --sampled)
METHODS: eras autosf random tpe
PASSES:  sf (DSL analysis)  numeric (abstract-interpretation certificates)
         grad (gradient contracts)
         config (preset diagnostics)  lint (source lints)
         sched (concurrency model checking)
         chaos (seeded fault-injection harness)";

fn preset_by_name(name: &str) -> Result<Preset, String> {
    Ok(match name {
        "wn18" => Preset::Wn18,
        "wn18rr" => Preset::Wn18rr,
        "fb15k" => Preset::Fb15k,
        "fb15k237" => Preset::Fb15k237,
        "yago" => Preset::Yago,
        "tiny" => Preset::Tiny,
        other => return Err(format!("unknown preset `{other}`")),
    })
}

/// Load from `--data DIR` (TSV) or build `--preset NAME`. Scale presets
/// (the million-entity generator family) are checked first so they can
/// live beside the paper benchmarks under one flag.
fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let seed: u64 = args.get_or("seed", 7u64)?;
    if let Some(dir) = args.get("data") {
        eras_data::tsv::load_dir(Path::new(dir), dir).map_err(|e| e.to_string())
    } else {
        let name = args.require("preset")?;
        if let Some(scale) = ScalePreset::from_name(name) {
            return Ok(scale.build(seed));
        }
        let preset = preset_by_name(name)?;
        Ok(preset.build(seed))
    }
}

fn zoo_by_name(name: &str) -> Result<eras_sf::BlockSf, String> {
    Ok(match name {
        "distmult" => eras_sf::zoo::distmult(4),
        "complex" => eras_sf::zoo::complex(),
        "simple" => eras_sf::zoo::simple(),
        "analogy" => eras_sf::zoo::analogy(),
        other => return Err(format!("unknown model `{other}`")),
    })
}

/// `eras stats`.
pub fn stats(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    println!("{}", stats_header());
    println!("{}", dataset_stats(&dataset));
    println!("\nrelation patterns (ground truth or detected):");
    let labels = if dataset.pattern_labels.is_empty() {
        eras_data::patterns::detect_patterns(&dataset)
    } else {
        dataset.pattern_labels.clone()
    };
    for (rel, label) in labels.iter().enumerate() {
        println!(
            "  {:<32} {}",
            dataset.relations.name(rel as u32),
            label.label()
        );
    }
    Ok(())
}

/// `eras generate`: write the dataset in the standard TSV layout.
pub fn generate(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let out = Path::new(args.require("out")?);
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    for (file, triples) in [
        ("train.txt", &dataset.train),
        ("valid.txt", &dataset.valid),
        ("test.txt", &dataset.test),
    ] {
        let mut buf = String::new();
        for t in triples {
            let _ = writeln!(
                buf,
                "{}\t{}\t{}",
                dataset.entities.name(t.head),
                dataset.relations.name(t.rel),
                dataset.entities.name(t.tail)
            );
        }
        std::fs::write(out.join(file), buf).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} train / {} valid / {} test triples to {}",
        dataset.train.len(),
        dataset.valid.len(),
        dataset.test.len(),
        out.display()
    );
    Ok(())
}

/// Parse the training-loss family: `--loss sampled|full|neg` (with
/// `--full-loss` kept as the historical spelling of `--loss full`).
fn loss_mode(args: &Args) -> Result<LossMode, String> {
    let name = match args.get("loss") {
        Some(name) => name,
        None if args.has("full-loss") => "full",
        None => "sampled",
    };
    Ok(match name {
        "full" => LossMode::Full,
        "sampled" => LossMode::Sampled {
            negatives: args.get_or("negatives", 64usize)?,
        },
        "neg" => LossMode::NegSampling {
            negatives: args.get_or("negatives", 16usize)?,
            gamma: args.get_or("gamma", 12.0f32)?,
            adversarial_temp: args.get_or("adv-temp", 1.0f32)?,
            corruption: match args.get("corruption").unwrap_or("uniform") {
                "uniform" => Corruption::Uniform,
                "bernoulli" => Corruption::Bernoulli,
                other => return Err(format!("unknown --corruption `{other}`")),
            },
        },
        other => return Err(format!("unknown --loss `{other}` (sampled, full, neg)")),
    })
}

/// Parse the evaluation protocol from a candidate-count flag: absent →
/// full filtered ranking; `--<flag> N` → sampled filtered ranking over
/// N ≥ 1 seeded candidates (plus the true entity).
fn ranking_mode(args: &Args, flag: &str) -> Result<RankingMode, String> {
    if args.get(flag).is_none() {
        return Ok(RankingMode::Full);
    }
    let candidates = args.get_or(flag, 200usize)?;
    if candidates == 0 {
        return Err(format!(
            "--{flag}: need at least one ranking candidate, got 0"
        ));
    }
    Ok(RankingMode::Sampled {
        candidates,
        seed: args.get_or("eval-seed", 42u64)?,
    })
}

fn train_config(args: &Args) -> Result<TrainConfig, String> {
    Ok(TrainConfig {
        dim: args.get_or("dim", 32usize)?,
        lr: args.get_or("lr", 0.1f32)?,
        max_epochs: args.get_or("epochs", 40usize)?,
        eval_every: 10,
        patience: 3,
        loss: loss_mode(args)?,
        ranking: ranking_mode(args, "sampled-eval")?,
        n3: args.get_or("n3", 0.0f32)?,
        seed: args.get_or("seed", 7u64)?,
        execution: if args.has("parallel") {
            Execution::DataParallel
        } else {
            Execution::Sequential
        },
        bounds: eras_sf::NormBounds::uniform(args.get_or("emb-bound", 1.0f32)?),
        ..TrainConfig::default()
    })
}

/// `eras train`.
pub fn train(args: &Args) -> Result<(), String> {
    // Observability plumbing first: `--log FILE` streams the span/event
    // trace as JSONL (requires the `obs-hook` build, which the shipped
    // binary carries), `--quiet` silences the stderr progress echo, and
    // `--profile` samples wall-time attribution for the run. The result
    // lines below stay on stdout regardless — scripts parse them.
    let quiet = args.has("quiet");
    let _trace_guard = match args.get("log") {
        Some(path) => Some(
            eras_obs::trace::install_file(Path::new(path))
                .map_err(|e| format!("cannot open --log {path}: {e}"))?,
        ),
        None => None,
    };
    let _echo_guard = if quiet {
        None
    } else {
        Some(eras_obs::trace::install_echo())
    };
    let profiler = args
        .has("profile")
        .then(|| eras_obs::profile::start_sampler(std::time::Duration::from_millis(5)));

    let dataset = load_dataset(args)?;
    let filter = FilterIndex::build(&dataset);
    let sf = zoo_by_name(args.get("model").unwrap_or("complex"))?;
    let cfg = train_config(args)?;
    if !quiet {
        println!(
            "training {} (d={}) on {} ({} train triples)...",
            args.get("model").unwrap_or("complex"),
            cfg.dim,
            dataset.name,
            dataset.train.len()
        );
    }
    let model = BlockModel::universal(sf, dataset.num_relations());
    let started = eras_obs::clock::Stopwatch::start();
    // `--checkpoint FILE` saves the complete training state every
    // `--checkpoint-every N` epochs (atomic write); `--resume` continues
    // a crashed run from the file bit-identically.
    let ckpt = args.get("checkpoint").map(|path| CheckpointSpec {
        path: Path::new(path).to_path_buf(),
        every: args.get_or("checkpoint-every", 10usize).unwrap_or(10),
        resume: args.has("resume"),
    });
    if args.has("resume") && ckpt.is_none() {
        return Err("--resume requires --checkpoint FILE".into());
    }
    // `--threads N` sizes a dedicated pool for this run; otherwise the
    // process-wide pool applies (`ERAS_THREADS`, see docs/performance.md).
    // The pool size never changes the numbers, only the wall clock.
    let outcome = match args.get("threads") {
        Some(_) => {
            let pool = ThreadPool::new(args.get_or("threads", 1usize)?);
            train_standalone_resumable(&model, &dataset, &filter, &cfg, &pool, ckpt.as_ref())
        }
        None => train_standalone_resumable(
            &model,
            &dataset,
            &filter,
            &cfg,
            ThreadPool::global(),
            ckpt.as_ref(),
        ),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "test: MRR {:.3}  Hit@1 {:.1}%  Hit@10 {:.1}%  ({} epochs, {:.1}s)",
        outcome.test.mrr,
        100.0 * outcome.test.hits1,
        100.0 * outcome.test.hits10,
        outcome.epochs_run,
        started.elapsed_secs()
    );
    if let Some(p) = profiler {
        // Attribution table to stderr: stdout carries only the result
        // lines scripts depend on.
        eprint!("{}", p.stop().render());
    }
    if let Some(path) = args.get("save") {
        eras_train::io::save(Path::new(path), &outcome.embeddings).map_err(|e| e.to_string())?;
        println!("saved embeddings to {path}");
    }
    if let Some(path) = args.get("snapshot") {
        // Bundle everything a server needs. Known triples are train +
        // valid: the test split stays out so served filtered rankings
        // agree with the offline filtered evaluator.
        let mut known = dataset.train.clone();
        known.extend_from_slice(&dataset.valid);
        let snap = eras_train::io::Snapshot::new(
            &dataset.name,
            dataset.entities.clone(),
            dataset.relations.clone(),
            &model,
            outcome.embeddings,
            known,
        );
        eras_train::io::save_snapshot(Path::new(path), &snap).map_err(|e| e.to_string())?;
        println!("saved serving snapshot to {path}");
    }
    Ok(())
}

/// `eras serve`: std-only HTTP front end on a serving snapshot.
pub fn serve(args: &Args) -> Result<(), String> {
    let path = args.require("snapshot")?;
    let cache: usize = args.get_or("cache", 1024usize)?;
    let workers: usize = args.get_or("workers", 4usize)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let engine =
        eras_serve::QueryEngine::load(Path::new(path), cache).map_err(|e| e.to_string())?;
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // The first stdout line is the bound address so scripts can discover
    // an ephemeral port (`--addr 127.0.0.1:0`); flush because stdout is
    // block-buffered when piped.
    println!("listening on http://{local}");
    println!(
        "model `{}`: {} entities, {} relations, dim {}, {} known triples",
        engine.snapshot().name,
        engine.num_entities(),
        engine.num_relations(),
        engine.snapshot().embeddings.dim(),
        engine.snapshot().known.len()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eras_serve::serve(listener, std::sync::Arc::new(engine), workers).map_err(|e| e.to_string())
}

/// `eras query`: one-shot top-k query against a snapshot, JSON to stdout.
pub fn query(args: &Args) -> Result<(), String> {
    let path = args.require("snapshot")?;
    let engine = eras_serve::QueryEngine::load(Path::new(path), 0).map_err(|e| e.to_string())?;
    let (dir, anchor) = match (args.get("head"), args.get("tail")) {
        (Some(h), None) => (eras_serve::Direction::Tail, h),
        (None, Some(t)) => (eras_serve::Direction::Head, t),
        _ => {
            return Err(
                "give exactly one of --head (predict tails) or --tail (predict heads)".into(),
            )
        }
    };
    let q = eras_serve::Query {
        dir,
        anchor: engine.resolve_entity(anchor).map_err(|e| e.to_string())?,
        rel: engine
            .resolve_relation(args.require("relation")?)
            .map_err(|e| e.to_string())?,
        k: args.get_or("k", 10usize)?,
        filtered: !args.has("unfiltered"),
    };
    let answer = engine.answer(q).map_err(|e| e.to_string())?;
    println!(
        "{}",
        eras_serve::render_answer(&engine, &answer).to_pretty()
    );
    Ok(())
}

/// `eras search`.
pub fn search(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let filter = FilterIndex::build(&dataset);
    let method = args.get("method").unwrap_or("eras");
    let seed: u64 = args.get_or("seed", 7u64)?;
    let train_cfg = train_config(args)?;
    match method {
        "eras" => {
            let cfg = ErasConfig {
                n_groups: args.get_or("groups", 3usize)?,
                dim: train_cfg.dim,
                epochs: args.get_or("epochs", 20usize)?,
                retrain: train_cfg,
                seed,
                ..ErasConfig::default()
            };
            let outcome = run_eras(&dataset, &filter, &cfg, Variant::Full);
            for (group, sf) in outcome.sfs.iter().enumerate() {
                let members: Vec<&str> = outcome
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| g as usize == group)
                    .map(|(r, _)| dataset.relations.name(r as u32))
                    .collect();
                print!("{}", eras_sf::render::render_group(group, sf, &members));
            }
            println!(
                "search {:.1}s, evaluation {:.1}s; test MRR {:.3}",
                outcome.search_secs, outcome.evaluation_secs, outcome.test.mrr
            );
        }
        "autosf" | "random" | "tpe" => {
            let budget = SearchBudget {
                max_evaluations: args.get_or("evaluations", 12usize)?,
                max_seconds: f64::INFINITY,
            };
            let result = match method {
                "autosf" => autosf::search(
                    &dataset,
                    &filter,
                    &train_cfg,
                    &autosf::AutoSfConfig {
                        seed,
                        ..autosf::AutoSfConfig::default()
                    },
                    budget,
                ),
                "random" => random::search(&dataset, &filter, &train_cfg, 4, 10, seed, budget),
                _ => tpe::search(
                    &dataset,
                    &filter,
                    &train_cfg,
                    &tpe::TpeConfig {
                        seed,
                        ..tpe::TpeConfig::default()
                    },
                    budget,
                ),
            };
            println!("{}", eras_sf::render::render_formula(&result.best_sf));
            print!("{}", eras_sf::render::render_grid(&result.best_sf));
            println!(
                "{} evaluations; best stand-alone valid MRR {:.3}",
                result.evaluations, result.best_mrr
            );
            // Retrain and report test metrics.
            let model = BlockModel::universal(result.best_sf, dataset.num_relations());
            let outcome = train_standalone(&model, &dataset, &filter, &train_cfg);
            println!("retrained test MRR {:.3}", outcome.test.mrr);
        }
        other => return Err(format!("unknown method `{other}`")),
    }
    Ok(())
}

/// `eras eval`: evaluate saved embeddings with a fixed scoring function.
pub fn evaluate(args: &Args) -> Result<(), String> {
    // `--sampled N` ranks each test triple against N seeded candidates
    // plus the true entity (filtered) instead of the full entity set —
    // the protocol that keeps evaluation tractable at millions of
    // entities. Full and sampled runs print the same report shape.
    let ranking = ranking_mode(args, "sampled")?;
    let dataset = load_dataset(args)?;
    let filter = FilterIndex::build(&dataset);
    let emb_path = args.require("embeddings")?;
    let emb = eras_train::io::load(Path::new(emb_path)).map_err(|e| e.to_string())?;
    if emb.num_entities() != dataset.num_entities()
        || emb.num_relations() != dataset.num_relations()
    {
        return Err(format!(
            "embedding shape ({} entities, {} relations) does not match the dataset \
             ({} entities, {} relations)",
            emb.num_entities(),
            emb.num_relations(),
            dataset.num_entities(),
            dataset.num_relations()
        ));
    }
    let sf = zoo_by_name(args.get("model").unwrap_or("complex"))?;
    let model = BlockModel::universal(sf, dataset.num_relations());
    let m = link_prediction(
        &model,
        &emb,
        &dataset.test,
        &filter,
        ranking,
        ThreadPool::global(),
    );
    if let RankingMode::Sampled { candidates, seed } = ranking {
        println!("sampled ranking: {candidates} candidates, seed {seed}");
    }
    println!(
        "test: MRR {:.3}  Hit@1 {:.1}%  Hit@3 {:.1}%  Hit@10 {:.1}%  ({} queries)",
        m.mrr,
        100.0 * m.hits1,
        100.0 * m.hits3,
        100.0 * m.hits10,
        m.count
    );
    Ok(())
}

/// `eras rules`.
pub fn rules(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let filter = FilterIndex::build(&dataset);
    let model = eras_rules::RuleModel::learn(&dataset, &eras_rules::LearnConfig::default());
    println!("mined {} rules", model.num_rules());
    for rel in 0..dataset.num_relations() as u32 {
        for s in model.rules_for(rel).iter().take(3) {
            println!(
                "  conf {:.2}  support {:>4}  {}",
                s.confidence, s.support, s.rule
            );
        }
    }
    let emb = model.dummy_embeddings();
    let m = link_prediction(
        &model,
        &emb,
        &dataset.test,
        &filter,
        RankingMode::Full,
        ThreadPool::global(),
    );
    println!(
        "test: MRR {:.3}  Hit@1 {:.1}%  Hit@10 {:.1}%",
        m.mrr,
        100.0 * m.hits1,
        100.0 * m.hits10
    );
    Ok(())
}

/// `eras audit` — the static verification gate. Exits non-zero when any
/// pass reports an error (or a warning under `--deny warnings`).
pub fn audit(args: &Args) -> Result<(), String> {
    let passes = match args.get("pass") {
        Some(spec) => eras_audit::PassSet::parse(spec)?,
        None => eras_audit::PassSet::default(),
    };
    let deny_warnings = args.get("deny").map(|v| v == "warnings").unwrap_or(false);
    let sf_samples: usize = args.get_or("sf-samples", 64usize)?;
    let seed: u64 = args.get_or("seed", 7u64)?;
    let root = args.get("root").unwrap_or(".").to_owned();
    // A wrong --root would silently pass the lint/flow gates with zero
    // files scanned — refuse roots that don't look like a workspace.
    if (passes.lint || passes.flow) && !Path::new(&root).join("crates").is_dir() {
        return Err(format!(
            "--root `{root}` has no crates/ directory; not a workspace root"
        ));
    }

    let mut chaos_opts = eras_audit::chaos::ChaosOptions {
        base_seed: seed,
        ..eras_audit::chaos::ChaosOptions::default()
    };
    // `--chaos-seeds N` scales every scenario's seed budget by
    // N / default-train-seeds, so one knob sizes the whole pass.
    if let Some(train_seeds) = args.get("chaos-seeds") {
        let train_seeds: u64 = train_seeds
            .parse()
            .map_err(|_| format!("--chaos-seeds `{train_seeds}` is not a number"))?;
        let defaults = eras_audit::chaos::ChaosOptions::default();
        chaos_opts.train_seeds = train_seeds;
        chaos_opts.pool_seeds = (train_seeds * defaults.pool_seeds).div_ceil(defaults.train_seeds);
        chaos_opts.serve_seeds =
            (train_seeds * defaults.serve_seeds).div_ceil(defaults.train_seeds);
    }
    if let Some(secs) = args.get("chaos-budget") {
        let secs: u64 = secs
            .parse()
            .map_err(|_| format!("--chaos-budget `{secs}` is not a number of seconds"))?;
        chaos_opts.time_budget = std::time::Duration::from_secs(secs);
    }

    let report =
        eras_audit::run_audit_with(Path::new(&root), passes, sf_samples, seed, &chaos_opts);
    match args.get("format").unwrap_or("text") {
        "json" => println!("{}", report.render_json()),
        "text" => print!("{}", report.render_text()),
        other => return Err(format!("unknown format `{other}` (text, json)")),
    }
    if report.failed(deny_warnings) {
        return Err(format!(
            "audit failed: {} error(s), {} warning(s)",
            report.count(eras_core::Severity::Error),
            report.count(eras_core::Severity::Warning),
        ));
    }
    Ok(())
}

/// `eras obs` — offline analysis of observability artifacts.
///
/// `eras obs report --trace FILE [--top N]` aggregates a JSONL trace
/// (written by `eras train --log FILE`) into per-span latency
/// percentiles and a hot-path table.
pub fn obs(rest: &[String]) -> Result<(), String> {
    const OBS_USAGE: &str = "usage: eras obs report --trace FILE [--top 10]";
    let Some((sub, rest)) = rest.split_first() else {
        return Err(OBS_USAGE.into());
    };
    match sub.as_str() {
        "report" => {
            let args = Args::parse(rest)?;
            let path = args.require("trace")?;
            let top: usize = args.get_or("top", 10usize)?;
            let report = eras_obs::summary::summarize_file(Path::new(path), top)?;
            print!("{report}");
            Ok(())
        }
        other => Err(format!("unknown obs subcommand `{other}`\n{OBS_USAGE}")),
    }
}
