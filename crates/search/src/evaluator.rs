//! Stand-alone candidate evaluation with caching, budgets and tracing.
//!
//! Every searcher in this crate evaluates candidates "the AutoSF way":
//! train the structure stand-alone to convergence and read off the
//! validation MRR (Definition 1 of the paper). The evaluator
//! canonicalises structures before caching so equivalent candidates
//! (Section `eras_sf::canonical`) are never trained twice — the same
//! deduplication AutoSF applies.
//!
//! ## Concurrent candidate evaluation
//!
//! Candidate trainings are embarrassingly parallel — each is a pure
//! function of `(structure, dataset, config)` — so
//! [`StandaloneEvaluator::evaluate_batch`] trains a batch's cache
//! misses concurrently on the shared thread pool, publishing results
//! through a mutex-free [`ShardedCache`]. Every training step is
//! bit-identical for every pool size, and the configured loss picks it
//! (the search profiles' sampled loss trains on the sequential step, the
//! classic AutoSF protocol), so a candidate's MRR never depends on how
//! many candidates ride in its batch, and bookkeeping (budget, trace, best)
//! is applied in candidate order after the parallel region — for a
//! given candidate sequence, batched and one-at-a-time evaluation
//! produce the same MRRs, the same trace sequence and the same winner.
//! The *searchers'* proposal streams, however, depend on the configured
//! batch width (TPE refits its good/bad models once per batch), which
//! is why the default width is a fixed constant rather than the pool's
//! parallelism — see [`StandaloneEvaluator::parallel_candidates`].

use crate::sharded::ShardedCache;
use eras_data::{Dataset, FilterIndex};
use eras_linalg::pool::ThreadPool;
use eras_obs::clock::Stopwatch;
use eras_obs::metrics::Counter;
use eras_sf::canonical::canonicalize;
use eras_sf::numeric::{certify, Refutation, Verdict};
use eras_sf::BlockSf;
use eras_train::trainer::{train_standalone_on, TrainConfig};
use eras_train::BlockModel;
use std::collections::HashSet;

use crate::trace::SearchTrace;

/// Default number of candidates trained concurrently per batch.
///
/// A fixed constant — deliberately *not* the pool's parallelism. The
/// searchers draw one batch of proposals per round (and TPE refits its
/// good/bad models between rounds), so the width shapes the candidate
/// stream a seeded search visits; tying it to the machine's core count
/// would make seeded searches produce different traces and winners on
/// different hosts. With a constant width, reproducibility depends only
/// on the seed and the config, and the pool size changes wall-clock
/// time alone.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// Limits on a search run.
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// Maximum stand-alone evaluations (cache hits do not count).
    pub max_evaluations: usize,
    /// Wall-clock cap in seconds.
    pub max_seconds: f64,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_evaluations: 50,
            max_seconds: f64::INFINITY,
        }
    }
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best structure found.
    pub best_sf: BlockSf,
    /// Its stand-alone validation MRR.
    pub best_mrr: f64,
    /// Distinct structures trained.
    pub evaluations: usize,
    /// Distinct structures rejected by the static numeric certifier
    /// before any training step was spent on them.
    pub pruned: usize,
    /// The progress trace.
    pub trace: SearchTrace,
}

/// Trains candidates stand-alone and records the run.
pub struct StandaloneEvaluator<'a> {
    dataset: &'a Dataset,
    filter: &'a FilterIndex,
    cfg: TrainConfig,
    budget: SearchBudget,
    cache: ShardedCache<BlockSf, f64>,
    pool: &'a ThreadPool,
    batch_width: usize,
    started: Stopwatch,
    trace: SearchTrace,
    evaluations: usize,
    best: Option<(BlockSf, f64)>,
    numeric_filter: bool,
    pruned_set: HashSet<BlockSf>,
    pruned_count: usize,
    obs_cache_hits: Counter,
    obs_trained: Counter,
    obs_pruned: Counter,
}

impl<'a> StandaloneEvaluator<'a> {
    /// Create an evaluator for one search run, on the process-wide
    /// pool with the fixed default batch width
    /// ([`DEFAULT_BATCH_WIDTH`]).
    pub fn new(
        method: &str,
        dataset: &'a Dataset,
        filter: &'a FilterIndex,
        cfg: TrainConfig,
        budget: SearchBudget,
    ) -> Self {
        let pool = ThreadPool::global();
        StandaloneEvaluator {
            dataset,
            filter,
            cfg,
            budget,
            cache: ShardedCache::new(),
            pool,
            batch_width: DEFAULT_BATCH_WIDTH,
            started: Stopwatch::start(),
            trace: SearchTrace::new(method, &dataset.name),
            evaluations: 0,
            best: None,
            numeric_filter: true,
            pruned_set: HashSet::new(),
            pruned_count: 0,
            obs_cache_hits: eras_obs::metrics::global().counter("search.cache_hits"),
            obs_trained: eras_obs::metrics::global().counter("search.candidates_trained"),
            obs_pruned: eras_obs::metrics::global().counter("search.candidates_pruned"),
        }
    }

    /// Enable or disable the static numeric pre-train filter (on by
    /// default). With the filter on, every cache-missing candidate is
    /// certified by `eras_sf::numeric::certify` under the training
    /// config's declared norm bounds first; candidates that are
    /// refuted (unsound range / NaN reachable) or carry an identically
    /// zero gradient score `0.0` immediately, consume no evaluation
    /// budget, and are logged to the trace's pruned list — the
    /// evaluation trace (`points`), winners and budget accounting for
    /// certified candidates are identical with the filter on or off.
    pub fn numeric_filter(mut self, on: bool) -> Self {
        self.numeric_filter = on;
        self
    }

    /// Evaluate up to `n` candidates concurrently per
    /// [`StandaloneEvaluator::evaluate_batch`] call (default
    /// [`DEFAULT_BATCH_WIDTH`]). The width steers how many proposals
    /// the searchers hand over per round. The evaluator's own
    /// bookkeeping (budget, trace, best) is width-independent, but the
    /// searchers' proposal streams are not: TPE draws `width` proposals
    /// per refit of its good/bad models, and random search draws
    /// `width` candidates per round, so changing the width changes
    /// which candidates a seeded search visits. Treat the width as part
    /// of the seeded configuration; the default is a fixed constant so
    /// results never depend on the machine's core count.
    pub fn parallel_candidates(mut self, n: usize) -> Self {
        self.batch_width = n.max(1);
        self
    }

    /// Dispatch candidate trainings on an explicit pool instead of
    /// [`ThreadPool::global`]. The pool never affects results.
    pub fn with_pool(mut self, pool: &'a ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// How many candidates the searchers should propose per batch.
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Has the evaluation or time budget been exhausted?
    pub fn exhausted(&self) -> bool {
        self.evaluations >= self.budget.max_evaluations
            || self.started.elapsed_secs() >= self.budget.max_seconds
    }

    /// Evaluate a candidate (stand-alone validation MRR). Returns the
    /// cached value for structures equivalent to one already trained;
    /// returns `None` when the budget is exhausted.
    pub fn evaluate(&mut self, sf: &BlockSf) -> Option<f64> {
        self.evaluate_batch(std::slice::from_ref(sf)).pop()?
    }

    /// Evaluate a batch of candidates, training the distinct cache
    /// misses concurrently on the pool. `results[i]` is the MRR of
    /// `candidates[i]`, or `None` when the budget ran out before that
    /// candidate could be trained. The budget, trace and best-so-far
    /// bookkeeping advance in candidate order, exactly as if the batch
    /// had been evaluated one candidate at a time.
    pub fn evaluate_batch(&mut self, candidates: &[BlockSf]) -> Vec<Option<f64>> {
        let _span = eras_obs::span!("search.batch", candidates = candidates.len());
        let canon: Vec<BlockSf> = candidates.iter().map(canonicalize).collect();
        let mut results: Vec<Option<f64>> = canon.iter().map(|c| self.cache.get(c)).collect();
        self.obs_cache_hits
            .add(results.iter().filter(|r| r.is_some()).count() as u64);

        // Static numeric filter: certify cache misses before any
        // training is dispatched. Refuted or dead-gradient structures
        // score 0.0 on the spot — zero training steps, zero budget —
        // and the verdict is memoised so duplicates never re-certify
        // or re-trace. Candidates whose block count does not divide
        // the configured dimension are left to the trainer's own
        // layout validation.
        if self.numeric_filter {
            for (i, c) in canon.iter().enumerate() {
                if results[i].is_some() || !self.cfg.dim.is_multiple_of(c.m()) {
                    continue;
                }
                if self.pruned_set.contains(c) {
                    results[i] = Some(0.0);
                    continue;
                }
                let cert = certify(c, self.cfg.bounds, self.cfg.dim);
                if let Some((code, reason)) = prune_reason(&cert.verdict) {
                    self.pruned_set.insert(c.clone());
                    self.pruned_count += 1;
                    self.obs_pruned.add(1);
                    eras_obs::event!("search.pruned", ordinal = self.pruned_count);
                    self.trace
                        .record_pruned(self.started.elapsed_secs(), code, &reason);
                    results[i] = Some(0.0);
                }
            }
        }

        // Distinct misses in first-appearance order, capped by the
        // remaining evaluation budget. The wall-clock budget is checked
        // once per batch: a batch is the unit of dispatch.
        let mut missing: Vec<usize> = Vec::new();
        let mut seen: HashSet<&BlockSf> = HashSet::new();
        for (i, c) in canon.iter().enumerate() {
            if results[i].is_none() && seen.insert(c) {
                missing.push(i);
            }
        }
        if self.exhausted() {
            missing.clear();
        } else {
            let remaining = self.budget.max_evaluations.saturating_sub(self.evaluations);
            missing.truncate(remaining);
        }

        if !missing.is_empty() {
            // Train misses concurrently. A stand-alone run's outcome is
            // a pure function of its config, so an MRR never depends on
            // the batch or the pool. Under a full or neg-sampling loss
            // each task runs the sharded step inline with its own shard
            // buffers (docs/performance.md, "Concurrent candidate
            // evaluation"). Each task publishes straight into the
            // lock-free cache.
            let inner_cfg = &self.cfg;
            let dataset = self.dataset;
            let filter = self.filter;
            let pool = self.pool;
            let cache = &self.cache;
            let trained: Vec<f64> = pool.map(missing.len(), |k| {
                let i = missing[k];
                let model = BlockModel::universal(candidates[i].clone(), dataset.num_relations());
                let outcome = train_standalone_on(&model, dataset, filter, inner_cfg, pool);
                let mrr = outcome.best_valid.mrr;
                cache.insert(canon[i].clone(), mrr);
                mrr
            });
            self.obs_trained.add(missing.len() as u64);
            for (&i, &mrr) in missing.iter().zip(&trained) {
                self.evaluations += 1;
                eras_obs::event!("search.candidate", ordinal = self.evaluations, mrr = mrr);
                self.trace.record(self.started.elapsed_secs(), mrr);
                if self.best.as_ref().map(|(_, b)| mrr > *b).unwrap_or(true) {
                    self.best = Some((candidates[i].clone(), mrr));
                }
            }
        }

        // Canonical duplicates of freshly trained candidates resolve
        // from the cache now; anything still missing hit the budget.
        for (i, r) in results.iter_mut().enumerate() {
            if r.is_none() {
                *r = self.cache.get(&canon[i]);
            }
        }
        results
    }

    /// Distinct candidates trained so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Distinct candidates statically pruned so far.
    pub fn pruned(&self) -> usize {
        self.pruned_count
    }

    /// Finish the run. Panics if no candidate was ever evaluated.
    // audit:allow(E701): search loops always evaluate >= 1 candidate
    // before finishing; an empty run is a driver bug, not input-driven
    pub fn finish(self) -> SearchResult {
        let (best_sf, best_mrr) = self.best.expect("no candidate evaluated");
        SearchResult {
            best_sf,
            best_mrr,
            evaluations: self.evaluations,
            pruned: self.pruned_count,
            trace: self.trace,
        }
    }
}

/// Trace code and message for a non-certified verdict; `None` for
/// certified structures.
fn prune_reason(verdict: &Verdict) -> Option<(&'static str, String)> {
    match verdict {
        Verdict::Certified => None,
        Verdict::VanishingGradient(dead) => {
            let names: Vec<String> = dead.iter().map(|v| v.to_string()).collect();
            Some((
                "W801",
                format!(
                    "vanishing gradient: ∂f/∂{{{}}} identically zero under the declared bounds",
                    names.join(", ")
                ),
            ))
        }
        Verdict::Refuted(Refutation::UnsoundRange) => Some((
            "E801",
            "unsound range: score/gradient bounds exceed f32 under the declared bounds".to_string(),
        )),
        Verdict::Refuted(Refutation::NanReachable) => Some((
            "E802",
            "NaN reachable under the declared bounds".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::Preset;
    use eras_sf::canonical::transform;
    use eras_sf::zoo;

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            dim: 16,
            max_epochs: 2,
            eval_every: 1,
            patience: 1,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn caches_equivalent_structures() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let mut ev = StandaloneEvaluator::new(
            "test",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        );
        let sf = zoo::complex();
        let mrr1 = ev.evaluate(&sf).unwrap();
        assert_eq!(ev.evaluations(), 1);
        // A permuted/sign-flipped variant hits the cache.
        let perm: Vec<usize> = vec![2, 3, 0, 1];
        let variant = transform(&sf, &perm, 0b0101);
        let mrr2 = ev.evaluate(&variant).unwrap();
        assert_eq!(ev.evaluations(), 1, "equivalent structure retrained");
        assert_eq!(mrr1, mrr2);
    }

    #[test]
    fn budget_stops_evaluations() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let mut ev = StandaloneEvaluator::new(
            "test",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget {
                max_evaluations: 1,
                max_seconds: f64::INFINITY,
            },
        );
        assert!(ev.evaluate(&zoo::distmult(4)).is_some());
        assert!(ev.exhausted());
        assert!(ev.evaluate(&zoo::simple()).is_none());
        // But cached results remain accessible.
        assert!(ev.evaluate(&zoo::distmult(4)).is_some());
        let result = ev.finish();
        assert_eq!(result.evaluations, 1);
        assert_eq!(result.trace.len(), 1);
    }

    #[test]
    fn batched_evaluation_matches_one_at_a_time() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let candidates = vec![
            zoo::distmult(4),
            zoo::complex(),
            zoo::simple(),
            zoo::distmult(4), // duplicate: must resolve from the cache
            zoo::analogy(),
        ];

        // Reference: strictly sequential evaluation.
        let mut seq = StandaloneEvaluator::new(
            "seq",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        )
        .parallel_candidates(1);
        let seq_mrrs: Vec<Option<f64>> = candidates.iter().map(|sf| seq.evaluate(sf)).collect();
        let seq_result = seq.finish();

        // Concurrent: one batch on a pool of 4.
        let pool = eras_linalg::pool::ThreadPool::new(4);
        let mut par = StandaloneEvaluator::new(
            "par",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        )
        .parallel_candidates(4)
        .with_pool(&pool);
        let par_mrrs = par.evaluate_batch(&candidates);
        let par_result = par.finish();

        assert_eq!(seq_mrrs, par_mrrs);
        assert_eq!(seq_result.evaluations, par_result.evaluations);
        assert_eq!(seq_result.best_mrr, par_result.best_mrr);
        assert_eq!(seq_result.best_sf, par_result.best_sf);
        // The trace records the same MRR sequence (wall times differ).
        let seq_trace: Vec<f64> = seq_result
            .trace
            .points
            .iter()
            .map(|p| p.candidate_mrr)
            .collect();
        let par_trace: Vec<f64> = par_result
            .trace
            .points
            .iter()
            .map(|p| p.candidate_mrr)
            .collect();
        assert_eq!(seq_trace, par_trace);
    }

    #[test]
    fn batch_respects_remaining_budget() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let mut ev = StandaloneEvaluator::new(
            "test",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget {
                max_evaluations: 2,
                max_seconds: f64::INFINITY,
            },
        )
        .parallel_candidates(4);
        let batch = vec![zoo::distmult(4), zoo::complex(), zoo::simple()];
        let results = ev.evaluate_batch(&batch);
        // Only the first two fit the budget; the third is cut off.
        assert!(results[0].is_some());
        assert!(results[1].is_some());
        assert!(results[2].is_none());
        assert_eq!(ev.evaluations(), 2);
        assert!(ev.exhausted());
        // Cached entries still resolve after exhaustion.
        assert!(ev.evaluate(&zoo::complex()).is_some());
    }

    #[test]
    fn default_batch_width_is_machine_independent() {
        // Seeded searches must propose the same candidate stream on
        // every host: the default width is a fixed constant, never the
        // pool's core-count-derived parallelism.
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let ev = StandaloneEvaluator::new(
            "test",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        );
        assert_eq!(ev.batch_width(), DEFAULT_BATCH_WIDTH);
        let pool = eras_linalg::pool::ThreadPool::new(3);
        let ev = ev.with_pool(&pool);
        assert_eq!(
            ev.batch_width(),
            DEFAULT_BATCH_WIDTH,
            "the dispatch pool must not steer the proposal width"
        );
    }

    #[test]
    fn degenerate_candidate_is_pruned_without_training() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let mut ev = StandaloneEvaluator::new(
            "test",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        );
        // Empty row/column 3: the certifier sees dead h4/t4 gradients.
        let mut degenerate = zoo::distmult(4);
        degenerate.set(3, 3, eras_sf::Op::Zero);
        assert_eq!(ev.evaluate(&degenerate), Some(0.0));
        assert_eq!(ev.evaluations(), 0, "pruning must cost zero budget");
        assert_eq!(ev.pruned(), 1);
        // Re-offering the same structure resolves from the pruned memo
        // without a second trace entry.
        assert_eq!(ev.evaluate(&degenerate), Some(0.0));
        assert_eq!(ev.pruned(), 1);
        // A sound candidate still trains normally afterwards.
        assert!(ev.evaluate(&zoo::distmult(4)).unwrap() > 0.0);
        let result = ev.finish();
        assert_eq!(result.pruned, 1);
        assert_eq!(result.evaluations, 1);
        assert_eq!(result.trace.pruned.len(), 1);
        assert_eq!(result.trace.pruned[0].code, "W801");
        assert_eq!(result.trace.len(), 1, "pruned entries stay out of points");
    }

    #[test]
    fn filter_off_matches_filter_on_for_certified_candidates() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let candidates = [zoo::distmult(4), zoo::complex(), zoo::simple()];

        let mut on =
            StandaloneEvaluator::new("on", &dataset, &filter, fast_cfg(), SearchBudget::default());
        let on_mrrs: Vec<_> = candidates.iter().map(|sf| on.evaluate(sf)).collect();
        let on_result = on.finish();

        let mut off = StandaloneEvaluator::new(
            "off",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        )
        .numeric_filter(false);
        let off_mrrs: Vec<_> = candidates.iter().map(|sf| off.evaluate(sf)).collect();
        let off_result = off.finish();

        assert_eq!(on_mrrs, off_mrrs);
        assert_eq!(on_result.best_sf, off_result.best_sf);
        assert_eq!(on_result.best_mrr, off_result.best_mrr);
        assert_eq!(on_result.pruned, 0);
        let on_trace: Vec<f64> = on_result
            .trace
            .points
            .iter()
            .map(|p| p.candidate_mrr)
            .collect();
        let off_trace: Vec<f64> = off_result
            .trace
            .points
            .iter()
            .map(|p| p.candidate_mrr)
            .collect();
        assert_eq!(on_trace, off_trace);
    }

    #[test]
    fn best_tracks_maximum() {
        let dataset = Preset::Tiny.build(1);
        let filter = FilterIndex::build(&dataset);
        let mut ev = StandaloneEvaluator::new(
            "test",
            &dataset,
            &filter,
            fast_cfg(),
            SearchBudget::default(),
        );
        let a = ev.evaluate(&zoo::distmult(4)).unwrap();
        let b = ev.evaluate(&zoo::complex()).unwrap();
        let result = ev.finish();
        assert_eq!(result.best_mrr, a.max(b));
    }
}
