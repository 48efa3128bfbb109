//! The in-process query engine: loads a [`Snapshot`], rebuilds the scoring
//! model and the known-triple filter index, and answers `(h, r, ?)` /
//! `(?, r, t)` top-k queries.
//!
//! ## Batched scoring
//!
//! Each query reduces to one query vector `q` (see
//! `eras_train::BlockModel::tail_query`), after which candidate scores are
//! dot products against entity rows. The engine hands a whole query
//! group to the fused, cache-blocked scan kernel
//! (`eras_linalg::scan::scan_rows`): the entity table is tiled into
//! L1/L2-sized row blocks, a group's query vectors are transposed into
//! one tile of eight that scores each row of a block for all eight
//! queries at once, and every query's scores stream into its own
//! bounded top-k heap (`eras_linalg::scan::StreamTopK`) — one table
//! pass per group (`O(N_e · B · d)` flops but `O(N_e · d)` memory
//! traffic), no per-entity score vector ever materialized. Each heap
//! keeps a cursor into its sorted filter list, so filtered candidates
//! are skipped in `O(1)` amortised, and a cached worst-score threshold
//! rejects non-improving candidates with one float compare, or whole
//! chunks of eight with one vector compare. A group of one query (the
//! single-query path, [`QueryEngine::answer`]) scores with one dot
//! product per row; both paths give the same bits.
//!
//! ## Ranking order
//!
//! Scores are ranked descending with the total order of
//! `eras_linalg::cmp::nan_lowest_f32` (NaN sorts below every number) and
//! ties broken toward the **smaller entity id**. The offline evaluator's
//! sort in `crates/serve/tests` pins this exact order, so served rankings
//! are reproducible and comparable across runs.

use crate::cache::LruCache;
use crate::metrics::ServeMetrics;
use eras_data::{FilterIndex, Json};
use eras_linalg::pool::ThreadPool;
use eras_linalg::scan::{scan_rows, StreamTopK};
use eras_obs::clock::Stopwatch;
use eras_train::io::{self, Snapshot};
use eras_train::BlockModel;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Which side of the triple is being predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `(h, r, ?)` — rank candidate tails.
    Tail,
    /// `(?, r, t)` — rank candidate heads.
    Head,
}

impl Direction {
    /// Wire name (`"tail"` / `"head"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Tail => "tail",
            Direction::Head => "head",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "tail" => Some(Direction::Tail),
            "head" => Some(Direction::Head),
            _ => None,
        }
    }
}

/// One resolved top-k query. Doubles as the result-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Predicted side.
    pub dir: Direction,
    /// The known entity (head for tail queries, tail for head queries).
    pub anchor: u32,
    /// Relation id.
    pub rel: u32,
    /// Number of ranked results requested.
    pub k: usize,
    /// Exclude known-true answers (filtered ranking) when set.
    pub filtered: bool,
}

/// One ranked candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranked {
    /// Entity id of the candidate.
    pub id: u32,
    /// Model score (higher is better).
    pub score: f32,
}

/// A served answer: the ranked candidates plus serving metadata.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The query this answers.
    pub query: Query,
    /// Best-first candidates, at most `query.k` of them.
    pub ranked: Arc<Vec<Ranked>>,
    /// True when the result came from the LRU cache.
    pub cached: bool,
    /// End-to-end engine latency in microseconds.
    pub latency_us: u64,
}

/// Errors a query (or snapshot load) can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Entity name/id not present in the snapshot vocabulary.
    UnknownEntity(String),
    /// Relation name/id not present in the snapshot vocabulary.
    UnknownRelation(String),
    /// Structurally invalid query (bad k, out-of-range id, bad JSON…).
    BadQuery(String),
    /// The snapshot could not be loaded or is internally inconsistent.
    Snapshot(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEntity(e) => write!(f, "unknown entity: {e}"),
            ServeError::UnknownRelation(r) => write!(f, "unknown relation: {r}"),
            ServeError::BadQuery(m) => write!(f, "bad query: {m}"),
            ServeError::Snapshot(m) => write!(f, "snapshot error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Queries per batch-scoring shard. A group shares one pass over the
/// entity table; the group size is fixed (never a function of the pool
/// size) so batches shard the same way on every machine, and equals
/// the scan's tile width, so a full group fills exactly one tile.
const BATCH_SHARD_QUERIES: usize = 8;

fn lock_cache<'a>(
    m: &'a Mutex<LruCache<Query, Arc<Vec<Ranked>>>>,
) -> MutexGuard<'a, LruCache<Query, Arc<Vec<Ranked>>>> {
    // A poisoned cache only means another thread panicked mid-insert;
    // the map itself is still structurally sound.
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The serving engine. Immutable after construction (the interior
/// mutability is the result cache and the metrics counters), so it is
/// shared across worker threads behind an `Arc`.
pub struct QueryEngine {
    snapshot: Snapshot,
    model: BlockModel,
    filter: FilterIndex,
    cache: Mutex<LruCache<Query, Arc<Vec<Ranked>>>>,
    metrics: ServeMetrics,
}

impl QueryEngine {
    /// Build an engine from an in-memory snapshot. `cache_capacity` of
    /// zero disables the result cache.
    pub fn new(snapshot: Snapshot, cache_capacity: usize) -> Result<QueryEngine, ServeError> {
        snapshot.validate().map_err(ServeError::Snapshot)?;
        let model = snapshot.block_model();
        let filter = FilterIndex::from_triples(snapshot.known.iter().copied());
        Ok(QueryEngine {
            snapshot,
            model,
            filter,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            metrics: ServeMetrics::new(),
        })
    }

    /// Load a snapshot file (format v2) and build an engine on it.
    ///
    /// Transient I/O failures (a file momentarily unreadable during a
    /// deploy, an injected fault) are retried with exponential backoff;
    /// a corrupt file is a permanent [`ServeError::Snapshot`] at once.
    pub fn load(path: &Path, cache_capacity: usize) -> Result<QueryEngine, ServeError> {
        let snap = io::load_snapshot_retry(path, 3, std::time::Duration::from_millis(25))
            .map_err(|e| ServeError::Snapshot(format!("{}: {e}", path.display())))?;
        QueryEngine::new(snap, cache_capacity)
    }

    /// The loaded snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The reconstructed scoring model.
    pub fn model(&self) -> &BlockModel {
        &self.model
    }

    /// The known-triple filter index.
    pub fn filter(&self) -> &FilterIndex {
        &self.filter
    }

    /// Serving counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Number of entities served.
    pub fn num_entities(&self) -> usize {
        self.snapshot.entities.len()
    }

    /// Number of relations served.
    pub fn num_relations(&self) -> usize {
        self.snapshot.relations.len()
    }

    /// Resolve an entity by vocabulary name, falling back to a numeric id.
    pub fn resolve_entity(&self, s: &str) -> Result<u32, ServeError> {
        if let Some(id) = self.snapshot.entities.id(s) {
            return Ok(id);
        }
        match s.parse::<u32>() {
            Ok(id) if (id as usize) < self.num_entities() => Ok(id),
            _ => Err(ServeError::UnknownEntity(s.to_owned())),
        }
    }

    /// Resolve a relation by vocabulary name, falling back to a numeric id.
    pub fn resolve_relation(&self, s: &str) -> Result<u32, ServeError> {
        if let Some(id) = self.snapshot.relations.id(s) {
            return Ok(id);
        }
        match s.parse::<u32>() {
            Ok(id) if (id as usize) < self.num_relations() => Ok(id),
            _ => Err(ServeError::UnknownRelation(s.to_owned())),
        }
    }

    fn check(&self, q: &Query) -> Result<(), ServeError> {
        if q.k == 0 {
            return Err(ServeError::BadQuery("k must be at least 1".into()));
        }
        if q.anchor as usize >= self.num_entities() {
            return Err(ServeError::BadQuery(format!(
                "entity id {} out of range (have {})",
                q.anchor,
                self.num_entities()
            )));
        }
        if q.rel as usize >= self.num_relations() {
            return Err(ServeError::BadQuery(format!(
                "relation id {} out of range (have {})",
                q.rel,
                self.num_relations()
            )));
        }
        Ok(())
    }

    /// Answer one query, consulting the result cache.
    pub fn answer(&self, q: Query) -> Result<Answer, ServeError> {
        self.check(&q)?;
        let _span = eras_obs::span!("serve.answer", k = q.k);
        let start = Stopwatch::start();
        if let Some(ranked) = lock_cache(&self.cache).get(&q) {
            let latency_us = start.elapsed_us();
            self.metrics.record_query(latency_us, true);
            return Ok(Answer {
                query: q,
                ranked,
                cached: true,
                latency_us,
            });
        }
        let ranked = Arc::new(self.topk_batch(&[q]).pop().unwrap_or_default());
        lock_cache(&self.cache).put(q, Arc::clone(&ranked));
        let latency_us = start.elapsed_us();
        self.metrics.record_query(latency_us, false);
        Ok(Answer {
            query: q,
            ranked,
            cached: false,
            latency_us,
        })
    }

    /// Answer a batch of queries with one pass over the entity table for
    /// all cache misses. Answers come back in query order.
    // audit:allow(E701): answers and miss_idx are built from
    // queries.iter().enumerate(), so every index i is < queries.len()
    pub fn answer_batch(&self, queries: &[Query]) -> Result<Vec<Answer>, ServeError> {
        for q in queries {
            self.check(q)?;
        }
        let _span = eras_obs::span!("serve.answer_batch", queries = queries.len());
        let start = Stopwatch::start();
        let mut answers: Vec<Option<Answer>> = queries.iter().map(|_| None).collect();
        let mut miss_idx: Vec<usize> = Vec::new();
        {
            let mut cache = lock_cache(&self.cache);
            for (i, q) in queries.iter().enumerate() {
                match cache.get(q) {
                    Some(ranked) => {
                        answers[i] = Some(Answer {
                            query: *q,
                            ranked,
                            cached: true,
                            latency_us: 0,
                        })
                    }
                    None => miss_idx.push(i),
                }
            }
        }
        let misses: Vec<Query> = miss_idx.iter().map(|&i| queries[i]).collect();
        let computed = self.topk_batch(&misses);
        {
            let mut cache = lock_cache(&self.cache);
            for (&i, ranked) in miss_idx.iter().zip(computed) {
                let ranked = Arc::new(ranked);
                cache.put(queries[i], Arc::clone(&ranked));
                answers[i] = Some(Answer {
                    query: queries[i],
                    ranked,
                    cached: false,
                    latency_us: 0,
                });
            }
        }
        // All batch members share the batch's wall-clock latency.
        let latency_us = start.elapsed_us();
        Ok(answers
            .into_iter()
            .flatten()
            .map(|mut a| {
                a.latency_us = latency_us;
                self.metrics.record_query(latency_us, a.cached);
                a
            })
            .collect())
    }

    /// The batched kernel, sharded over the shared thread pool: the
    /// query list is cut into fixed groups of [`BATCH_SHARD_QUERIES`]
    /// and each group makes its own ascending pass over the entity
    /// table via [`QueryEngine::topk_group`]. Every query's ranking is
    /// a pure function of that query alone, so the sharding (and the
    /// pool size) cannot change any result; `ThreadPool::map` returns
    /// groups in index order.
    // audit:allow(E701): ThreadPool::map invokes the closure with
    // g < groups.len() by contract
    fn topk_batch(&self, queries: &[Query]) -> Vec<Vec<Ranked>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let groups: Vec<&[Query]> = queries.chunks(BATCH_SHARD_QUERIES).collect();
        ThreadPool::global()
            .map(groups.len(), |g| self.topk_group(groups[g]))
            .into_iter()
            .flatten()
            .collect()
    }

    /// One fused, cache-blocked pass over the entity table for a group
    /// of queries (`eras_linalg::scan::scan_rows`): a group of up to
    /// [`BATCH_SHARD_QUERIES`] = 8 queries costs one table pass, with
    /// each entity row scored against the group's transposed tile of
    /// eight (a group of two to seven pads it with zero queries; a group
    /// of one scores with one dot product per row) and scores streamed
    /// straight into each query's bounded heap.
    // audit:allow(E701): qvecs is sized queries.len() * dim up front,
    // and qi always comes from enumerate() over queries
    fn topk_group(&self, queries: &[Query]) -> Vec<Vec<Ranked>> {
        let emb = &self.snapshot.embeddings;
        let dim = emb.dim();
        let mut qvecs = vec![0.0f32; queries.len() * dim];
        let mut states: Vec<StreamTopK<'_>> = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let qv = &mut qvecs[qi * dim..(qi + 1) * dim];
            match q.dir {
                Direction::Tail => self.model.tail_query(emb, q.anchor, q.rel, qv),
                Direction::Head => self.model.head_query(emb, q.anchor, q.rel, qv),
            }
            let filt: &[u32] = if q.filtered {
                match q.dir {
                    Direction::Tail => self.filter.tails(q.anchor, q.rel),
                    Direction::Head => self.filter.heads(q.anchor, q.rel),
                }
            } else {
                &[]
            };
            states.push(StreamTopK::new(q.k, filt));
        }
        scan_rows(&emb.entity, &qvecs, &mut states);
        states
            .into_iter()
            .map(|st| {
                st.into_sorted()
                    .into_iter()
                    .map(|h| Ranked {
                        id: h.id,
                        score: h.score,
                    })
                    .collect()
            })
            .collect()
    }

    /// `/stats` payload: metrics plus model and cache descriptors.
    pub fn stats(&self) -> Json {
        let (cache_entries, cache_capacity) = {
            let cache = lock_cache(&self.cache);
            (cache.len(), cache.capacity())
        };
        self.metrics
            .to_json()
            .set("model", self.snapshot.name.as_str())
            .set("entities", self.num_entities())
            .set("relations", self.num_relations())
            .set("dim", self.snapshot.embeddings.dim())
            .set("known_triples", self.snapshot.known.len())
            .set("cache_entries", cache_entries)
            .set("cache_capacity", cache_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::vocab::Vocab;
    use eras_data::Triple;
    use eras_linalg::cmp;
    use eras_linalg::Rng;
    use eras_sf::zoo;
    use eras_train::eval::ScoreModel;
    use eras_train::Embeddings;

    fn tiny_snapshot(ne: usize, nr: usize, dim: usize, seed: u64) -> Snapshot {
        let mut rng = Rng::seed_from_u64(seed);
        let mut entities = Vocab::new();
        for i in 0..ne {
            entities.intern(&format!("e{i}"));
        }
        let mut relations = Vocab::new();
        for r in 0..nr {
            relations.intern(&format!("r{r}"));
        }
        let model = BlockModel::universal(zoo::complex(), nr);
        let embeddings = Embeddings::init(ne, nr, dim, &mut rng);
        let known: Vec<Triple> = (0..ne as u32)
            .map(|i| Triple::new(i, i % nr as u32, (i + 1) % ne as u32))
            .collect();
        Snapshot::new("tiny", entities, relations, &model, embeddings, known)
    }

    fn engine(cache: usize) -> QueryEngine {
        QueryEngine::new(tiny_snapshot(20, 2, 8, 7), cache).expect("valid snapshot")
    }

    /// Brute-force reference ranking: score everything, drop filtered,
    /// sort by (score desc, id asc).
    fn reference(eng: &QueryEngine, q: Query) -> Vec<Ranked> {
        let emb = &eng.snapshot().embeddings;
        let mut scores = vec![0.0f32; emb.num_entities()];
        match q.dir {
            Direction::Tail => eng
                .model()
                .score_all_tails(emb, q.anchor, q.rel, &mut scores),
            Direction::Head => eng
                .model()
                .score_all_heads(emb, q.anchor, q.rel, &mut scores),
        }
        let filt: &[u32] = if q.filtered {
            match q.dir {
                Direction::Tail => eng.filter().tails(q.anchor, q.rel),
                Direction::Head => eng.filter().heads(q.anchor, q.rel),
            }
        } else {
            &[]
        };
        let mut all: Vec<Ranked> = scores
            .iter()
            .enumerate()
            .filter(|(i, _)| filt.binary_search(&(*i as u32)).is_err())
            .map(|(i, &s)| Ranked {
                id: i as u32,
                score: s,
            })
            .collect();
        all.sort_by(|a, b| cmp::nan_last_desc_f32(a.score, b.score).then_with(|| a.id.cmp(&b.id)));
        all.truncate(q.k);
        all
    }

    #[test]
    fn topk_matches_brute_force_in_both_directions() {
        let eng = engine(0);
        for dir in [Direction::Tail, Direction::Head] {
            for filtered in [false, true] {
                for k in [1usize, 3, 10, 50] {
                    let q = Query {
                        dir,
                        anchor: 3,
                        rel: 1,
                        k,
                        filtered,
                    };
                    let got = eng.answer(q).expect("query ok");
                    let want = reference(&eng, q);
                    assert_eq!(got.ranked.len(), want.len(), "{q:?}");
                    for (g, w) in got.ranked.iter().zip(&want) {
                        assert_eq!(g.id, w.id, "{q:?}");
                        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{q:?}");
                    }
                }
            }
        }
    }

    /// A batch of 19 queries runs as groups of 8, 8 and 3 — two full
    /// eight-query tiles and one padded tile — over 600 entities (three
    /// cache blocks) at dim 20 (four remainder coordinates per row);
    /// every answer must equal the brute-force reference and the
    /// one-query answer in ids and score bits.
    #[test]
    fn batch_answers_match_individual_answers() {
        let eng = QueryEngine::new(tiny_snapshot(600, 3, 20, 11), 0).expect("valid snapshot");
        let queries: Vec<Query> = (0..19u32)
            .map(|i| Query {
                dir: if i % 2 == 0 {
                    Direction::Tail
                } else {
                    Direction::Head
                },
                anchor: (i * 31) % 600,
                rel: i % 3,
                k: [1, 5, 10, 40][i as usize % 4],
                filtered: i % 3 == 0,
            })
            .collect();
        let batch = eng.answer_batch(&queries).expect("batch ok");
        assert_eq!(batch.len(), queries.len());
        let bits = |r: &[Ranked]| -> Vec<(u32, u32)> {
            r.iter().map(|x| (x.id, x.score.to_bits())).collect()
        };
        for (q, a) in queries.iter().zip(&batch) {
            assert_eq!(a.query, *q);
            assert_eq!(a.ranked.len(), q.k, "{q:?}");
            assert_eq!(bits(&a.ranked), bits(&reference(&eng, *q)), "{q:?}");
            let solo = eng.answer(*q).expect("solo ok");
            assert_eq!(bits(&a.ranked), bits(&solo.ranked), "{q:?}");
        }
    }

    #[test]
    fn cache_hits_on_repeat_and_respects_key() {
        let eng = engine(64);
        let q = Query {
            dir: Direction::Tail,
            anchor: 0,
            rel: 0,
            k: 5,
            filtered: true,
        };
        let first = eng.answer(q).expect("ok");
        assert!(!first.cached);
        let second = eng.answer(q).expect("ok");
        assert!(second.cached);
        assert_eq!(
            first.ranked.iter().map(|r| r.id).collect::<Vec<_>>(),
            second.ranked.iter().map(|r| r.id).collect::<Vec<_>>()
        );
        // Different k is a different key.
        let third = eng.answer(Query { k: 6, ..q }).expect("ok");
        assert!(!third.cached);
        assert_eq!(eng.metrics().cache_hits(), 1);
    }

    #[test]
    fn filtered_query_excludes_known_answers() {
        let eng = engine(0);
        // known contains (0, 0, 1): entity 1 must not appear for the
        // filtered tail query (0, 0, ?).
        let q = Query {
            dir: Direction::Tail,
            anchor: 0,
            rel: 0,
            k: 20,
            filtered: true,
        };
        let a = eng.answer(q).expect("ok");
        assert!(a.ranked.iter().all(|r| r.id != 1), "filtered id served");
        let unfiltered = eng
            .answer(Query {
                filtered: false,
                ..q
            })
            .expect("ok");
        assert!(unfiltered.ranked.iter().any(|r| r.id == 1));
    }

    #[test]
    fn ties_rank_smaller_ids_first() {
        // Zero embeddings ⇒ all scores equal ⇒ ranking must be id order.
        let mut snap = tiny_snapshot(10, 1, 4, 3);
        for v in snap.embeddings.entity.as_mut_slice() {
            *v = 0.0;
        }
        let eng = QueryEngine::new(snap, 0).expect("valid");
        let a = eng
            .answer(Query {
                dir: Direction::Tail,
                anchor: 0,
                rel: 0,
                k: 4,
                filtered: false,
            })
            .expect("ok");
        let ids: Vec<u32> = a.ranked.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let eng = engine(0);
        let base = Query {
            dir: Direction::Tail,
            anchor: 0,
            rel: 0,
            k: 5,
            filtered: false,
        };
        assert!(matches!(
            eng.answer(Query { k: 0, ..base }),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(
            eng.answer(Query {
                anchor: 999,
                ..base
            }),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(
            eng.answer(Query { rel: 99, ..base }),
            Err(ServeError::BadQuery(_))
        ));
    }

    #[test]
    fn name_and_numeric_resolution() {
        let eng = engine(0);
        assert_eq!(eng.resolve_entity("e3").expect("name"), 3);
        assert_eq!(eng.resolve_entity("7").expect("numeric"), 7);
        assert!(matches!(
            eng.resolve_entity("nope"),
            Err(ServeError::UnknownEntity(_))
        ));
        assert!(matches!(
            eng.resolve_entity("9999"),
            Err(ServeError::UnknownEntity(_))
        ));
        assert_eq!(eng.resolve_relation("r1").expect("name"), 1);
        assert!(matches!(
            eng.resolve_relation("zzz"),
            Err(ServeError::UnknownRelation(_))
        ));
    }

    #[test]
    fn k_larger_than_entity_count_returns_all_candidates() {
        let eng = engine(0);
        let a = eng
            .answer(Query {
                dir: Direction::Tail,
                anchor: 0,
                rel: 0,
                k: 10_000,
                filtered: false,
            })
            .expect("ok");
        assert_eq!(a.ranked.len(), 20);
    }

    #[test]
    fn stats_reports_model_shape() {
        let eng = engine(8);
        let j = eng.stats();
        assert_eq!(j.get("entities").and_then(Json::as_usize), Some(20));
        assert_eq!(j.get("relations").and_then(Json::as_usize), Some(2));
        assert_eq!(j.get("model").and_then(Json::as_str), Some("tiny"));
        assert_eq!(j.get("cache_capacity").and_then(Json::as_usize), Some(8));
    }
}
