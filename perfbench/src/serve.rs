//! `serve-http`: a 100k-entity snapshot served over loopback HTTP.
//!
//! Phase A is an open loop: 200 distinct single top-10 filtered
//! queries per second from two sender threads, each request timed from
//! its due time (main op: the median latency). Phase B is a closed
//! loop: two connections, each sending batch-64 requests back to back
//! (second op: the median request latency). The two alternate in four
//! rounds. Every query in the run is
//! distinct, so the engine's LRU cache (1 024 entries, the CLI default)
//! never hides the scan of the 12.8 MB entity table.

use crate::report::Outcome;
use crate::stats::{beyond, fastest_us, median, quantile};
use crate::tracefold::{self, PoolCounters, Recorder};
use crate::Config;
use eras_data::json::Json;
use eras_data::vocab::Vocab;
use eras_data::{FilterIndex, Triple};
use eras_linalg::scan::{scan_rows, StreamTopK};
use eras_linalg::Rng;
use eras_serve::http::{request_shutdown, serve_with_options, ServeOptions};
use eras_serve::{Direction, Query, QueryEngine};
use eras_sf::zoo;
use eras_train::io::{load_snapshot, save_snapshot, Snapshot};
use eras_train::{BlockModel, Embeddings};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const ENTITIES: usize = 100_000;
const RELATIONS: usize = 16;
const DIM: usize = 32;
const KNOWN: usize = 300_000;
const CACHE: usize = 1024;
const WORKERS: usize = 2;
const K: usize = 10;
const RATE_PER_S: f64 = 200.0;
const SENDERS: usize = 2;
const CONNECTIONS: usize = 2;
const BATCH: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds of phase A then phase B per run.
const ROUNDS: usize = 4;
/// One HTTP answer in this many is compared with the in-process engine.
const AGREEMENT_EVERY: usize = 16;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The seeded snapshot: ComplEx structure, random embeddings and
/// random known triples.
fn snapshot(seed: u64) -> Snapshot {
    let mut rng = Rng::seed_from_u64(seed);
    let mut entities = Vocab::new();
    for i in 0..ENTITIES {
        entities.intern(&format!("e{i}"));
    }
    let mut relations = Vocab::new();
    for r in 0..RELATIONS {
        relations.intern(&format!("r{r}"));
    }
    let model = BlockModel::universal(zoo::complex(), RELATIONS);
    let embeddings = Embeddings::init(ENTITIES, RELATIONS, DIM, &mut rng);
    let known = (0..KNOWN)
        .map(|_| {
            Triple::new(
                rng.next_below(ENTITIES) as u32,
                rng.next_below(RELATIONS) as u32,
                rng.next_below(ENTITIES) as u32,
            )
        })
        .collect();
    Snapshot::new(
        "perfbench-serve",
        entities,
        relations,
        &model,
        embeddings,
        known,
    )
}

/// `n` distinct filtered top-k queries, seeded.
fn distinct_queries(rng: &mut Rng, n: usize, seen: &mut HashSet<Query>) -> Vec<Query> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let q = Query {
            dir: if rng.next_below(2) == 0 {
                Direction::Tail
            } else {
                Direction::Head
            },
            anchor: rng.next_below(ENTITIES) as u32,
            rel: rng.next_below(RELATIONS) as u32,
            k: K,
            filtered: true,
        };
        if seen.insert(q) {
            out.push(q);
        }
    }
    out
}

fn query_json(q: &Query) -> String {
    let side = match q.dir {
        Direction::Tail => "head",
        Direction::Head => "tail",
    };
    format!(
        "{{\"{side}\":\"e{}\",\"relation\":\"r{}\",\"k\":{}}}",
        q.anchor, q.rel, q.k
    )
}

/// One HTTP exchange as the client saw it.
struct Reply {
    status: u16,
    body: String,
    connect_us: f64,
}

fn exchange(addr: SocketAddr, request: &str) -> std::io::Result<Reply> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect_us = secs(t) * 1e6;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|e| std::io::Error::other(e.to_string()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
        connect_us,
    })
}

fn post(addr: SocketAddr, body: &str) -> std::io::Result<Reply> {
    exchange(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// A running server and the handles to stop it.
struct Server {
    engine: Arc<QueryEngine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Loads the snapshot and serves it until `/health` answers.
fn start(path: &Path) -> Result<Server, String> {
    let engine = Arc::new(QueryEngine::load(path, CACHE).map_err(|e| format!("load: {e}"))?);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let opts = ServeOptions {
        workers: WORKERS,
        shutdown: Some(Arc::clone(&stop)),
        ..ServeOptions::default()
    };
    let served = Arc::clone(&engine);
    let handle = thread::spawn(move || serve_with_options(listener, served, opts));
    let health = "GET /health HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n";
    match exchange(addr, health) {
        Ok(r) if r.status == 200 => Ok(Server {
            engine,
            addr,
            stop,
            handle,
        }),
        Ok(r) => Err(format!("/health answered {}", r.status)),
        Err(e) => Err(format!("/health: {e}")),
    }
}

impl Server {
    fn stop(self) -> Result<(), String> {
        request_shutdown(&self.stop, self.addr);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    fn counter(&self, name: &'static str) -> u64 {
        self.engine.metrics().registry().counter(name).get()
    }
}

/// One request's client-side record.
struct Sample {
    latency_ms: f64,
    late_ms: f64,
    connect_us: f64,
    reply: Option<Reply>,
}

/// Phase A: `queries` sent on a fixed schedule by `SENDERS` threads,
/// query `i` due at `i / RATE_PER_S` seconds.
fn open_loop(addr: SocketAddr, queries: &[Query]) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<(usize, Sample)> = thread::scope(|s| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|j| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (j..queries.len()).step_by(SENDERS) {
                        let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let late_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let reply = post(addr, &query_json(&queries[i]));
                        let latency_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let connect_us = reply.as_ref().map_or(0.0, |r| r.connect_us);
                        mine.push((
                            i,
                            Sample {
                                latency_ms,
                                late_ms,
                                connect_us,
                                reply: reply.ok(),
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Phase B: `CONNECTIONS` clients, each sending its batches back to back.
fn closed_loop(addr: SocketAddr, batches: &[Vec<Query>]) -> Vec<Sample> {
    let mut samples: Vec<(usize, Sample)> = thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|j| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (j..batches.len()).step_by(CONNECTIONS) {
                        let items: Vec<String> = batches[i].iter().map(query_json).collect();
                        let body = format!("{{\"queries\":[{}]}}", items.join(","));
                        let t = Instant::now();
                        let reply = post(addr, &body);
                        let latency_ms = secs(t) * 1e3;
                        let connect_us = reply.as_ref().map_or(0.0, |r| r.connect_us);
                        mine.push((
                            i,
                            Sample {
                                latency_ms,
                                late_ms: 0.0,
                                connect_us,
                                reply: reply.ok(),
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Checks one rendered answer: k results, scores descending, no
/// known-true entity. Returns `(id, score bits)` per result.
fn check_answer(answer: &Json, q: &Query, known: &FilterIndex) -> Result<Vec<(u32, u32)>, String> {
    let results = answer
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("answer without results")?;
    if results.len() != q.k {
        return Err(format!("{} results for k = {}", results.len(), q.k));
    }
    let mut ranked = Vec::with_capacity(results.len());
    for r in results {
        let id = r
            .get("id")
            .and_then(Json::as_usize)
            .ok_or("result without id")? as u32;
        let score = r
            .get("score")
            .and_then(Json::as_f64)
            .ok_or("result without score")? as f32;
        let triple = match q.dir {
            Direction::Tail => Triple::new(q.anchor, q.rel, id),
            Direction::Head => Triple::new(id, q.rel, q.anchor),
        };
        if known.contains(triple) {
            return Err(format!("filtered entity {id} returned"));
        }
        ranked.push((id, score.to_bits()));
    }
    if ranked
        .windows(2)
        .any(|w| f32::from_bits(w[0].1) < f32::from_bits(w[1].1))
    {
        return Err("scores not in descending order".into());
    }
    Ok(ranked)
}

/// Validates every reply of a phase and compares a seeded sample with
/// the in-process engine. Returns the number of failed requests.
fn validate(
    phase: &str,
    samples: &[Sample],
    queries: &[&[Query]],
    known: &FilterIndex,
    reference: &QueryEngine,
    seed: u64,
    out: &mut Outcome,
) -> usize {
    let mut failed = 0;
    let mut pick = Rng::seed_from_u64(seed ^ 0xa9);
    for (i, (sample, qs)) in samples.iter().zip(queries).enumerate() {
        let verdict = (|| -> Result<(), String> {
            let reply = sample.reply.as_ref().ok_or("no reply")?;
            if reply.status != 200 {
                return Err(format!("status {}", reply.status));
            }
            let json = Json::parse(&reply.body)?;
            let answers: Vec<&Json> = match json.get("answers").and_then(Json::as_arr) {
                Some(list) => list.iter().collect(),
                None => vec![&json],
            };
            if answers.len() != qs.len() {
                return Err(format!(
                    "{} answers for {} queries",
                    answers.len(),
                    qs.len()
                ));
            }
            for (a, q) in answers.into_iter().zip(qs.iter()) {
                let ranked = check_answer(a, q, known)?;
                if pick.next_below(AGREEMENT_EVERY) == 0 {
                    let local = reference.answer(*q).map_err(|e| e.to_string())?;
                    let expect: Vec<(u32, u32)> = local
                        .ranked
                        .iter()
                        .map(|r| (r.id, r.score.to_bits()))
                        .collect();
                    if ranked != expect {
                        return Err(
                            "HTTP answer differs from in-process QueryEngine::answer".into()
                        );
                    }
                }
            }
            Ok(())
        })();
        let ok = verdict.is_ok();
        if let Err(e) = verdict {
            if failed < 5 {
                eprintln!("{phase} request {i} failed: {e}");
            }
            failed += 1;
        }
        out.op(ok);
    }
    failed
}

fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

pub fn run(cfg: &Config, out: &mut Outcome) {
    let dir = work_dir();
    let path = dir.join(format!("serve-{}-{}.eras", cfg.seed, std::process::id()));
    let written = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| save_snapshot(&path, &snapshot(cfg.seed)).map_err(|e| e.to_string()));
    if let Err(e) = written {
        out.error(format!("writing the snapshot: {e}"));
        return;
    }
    measure(cfg, &path, out);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

fn measure(cfg: &Config, path: &Path, out: &mut Outcome) {
    let mut setup = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        match start(path) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.error(format!("set-up {i}: {e}"));
                return;
            }
        }
        setup.push(secs(t));
        if i + 1 < SETUPS {
            if let Err(e) = server.take().expect("just started").stop() {
                out.error(e);
            }
        }
    }
    let server = server.expect("set-ups ran");
    out.set("setup_s", median(&setup).expect("set-ups ran"));

    let reference = match QueryEngine::load(path, 0) {
        Ok(e) => e,
        Err(e) => {
            out.error(format!("reference engine: {e}"));
            return;
        }
    };
    let known = FilterIndex::from_triples(reference.snapshot().known.iter().copied());
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut seen = HashSet::new();
    let phase_a = (RATE_PER_S * 0.6 * cfg.seconds as f64) as usize;
    let batches_b = 4 * cfg.seconds as usize * CONNECTIONS;
    let queries_a = distinct_queries(&mut rng, phase_a, &mut seen);
    let batches: Vec<Vec<Query>> = (0..batches_b)
        .map(|_| distinct_queries(&mut rng, BATCH, &mut seen))
        .collect();
    let shed = tracefold::counter("serve.shed_total");
    let read_errors = tracefold::counter("serve.read_errors");
    let (hits, answered) = (
        server.counter("serve.cache_hits"),
        server.counter("serve.queries"),
    );
    let pool = PoolCounters::read();

    // The phases alternate in rounds, so both sample the whole run's host
    // load rather than one stretch of it.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (per_a, per_b) = (
        queries_a.len().div_ceil(ROUNDS),
        batches.len().div_ceil(ROUNDS),
    );
    for (qa, qb) in queries_a.chunks(per_a).zip(batches.chunks(per_b)) {
        a.extend(open_loop(server.addr, qa));
        b.extend(closed_loop(server.addr, qb));
    }

    let singles: Vec<&[Query]> = queries_a.iter().map(std::slice::from_ref).collect();
    let batch_refs: Vec<&[Query]> = batches.iter().map(Vec::as_slice).collect();
    let failed_a = validate("phase A", &a, &singles, &known, &reference, cfg.seed, out);
    let failed_b = validate(
        "phase B",
        &b,
        &batch_refs,
        &known,
        &reference,
        cfg.seed,
        out,
    );
    let mut failed = failed_a + failed_b;

    let latency: Vec<f64> = a.iter().map(|s| s.latency_ms).collect();
    let late: Vec<f64> = a.iter().map(|s| s.late_ms).collect();
    let batch_ms: Vec<f64> = b.iter().map(|s| s.latency_ms).collect();
    let p50 = median(&latency).expect("phase A ran");
    let p90 = quantile(&latency, 0.9).expect("phase A ran");
    let batch_p50 = median(&batch_ms).expect("phase B ran");
    out.set("main_op_ms", p50);
    out.set("second_op_ms", batch_p50);
    let hit_ratio = (server.counter("serve.cache_hits") - hits) as f64
        / (server.counter("serve.queries") - answered).max(1) as f64;
    println!(
        "serve-http: phase A sent {} ok {} failed {failed_a}; query_p50_ms {p50:.4} \
         query_p90_ms {p90:.4} ({} beyond); generator late p90 {:.3} ms; phase B sent {} \
         batches ok {} failed {failed_b}; batch_queries_per_s {:.0} (from the median request); \
         cache hit ratio {hit_ratio:.4}",
        a.len(),
        a.len() - failed_a,
        beyond(&latency, 0.9),
        quantile(&late, 0.9).expect("phase A ran"),
        b.len(),
        b.len() - failed_b,
        (CONNECTIONS * BATCH) as f64 / (batch_p50 / 1e3),
    );

    if cfg.trace {
        pool.record_since(a.len() + b.len(), out);
        out.set("serve.query_p90_ms", p90);
        out.set(
            "serve.generator_late_ms",
            quantile(&late, 0.9).expect("phase A ran"),
        );
        out.set("serve.cache_hit_ratio", hit_ratio);
        let connects: Vec<f64> = a.iter().map(|s| s.connect_us).collect();
        out.set("serve.connect_us", median(&connects).expect("phase A ran"));
        let queries = distinct_queries(
            &mut rng,
            (RATE_PER_S * 0.3 * cfg.seconds as f64) as usize,
            &mut seen,
        );
        let traced = traced_phase(&server, &queries, p50, out);
        let singles: Vec<&[Query]> = queries.iter().map(std::slice::from_ref).collect();
        failed += validate(
            "traced phase A",
            &traced,
            &singles,
            &known,
            &reference,
            cfg.seed,
            out,
        );
        out.set("serve.failed", failed as f64);
        layer_calls(path, &reference, &queries_a, p50, out);
        out.set(
            "serve.shed_total",
            (tracefold::counter("serve.shed_total") - shed) as f64,
        );
        out.set(
            "serve.read_errors",
            (tracefold::counter("serve.read_errors") - read_errors) as f64,
        );
    }
    if let Err(e) = server.stop() {
        out.error(e);
    }
}

/// Phase A again, on fresh queries, with the JSONL sink installed: the
/// server's own spans give request self time, parse and write; the p50
/// against the untraced phase gives the tracing overhead.
fn traced_phase(
    server: &Server,
    queries: &[Query],
    untraced_p50: f64,
    out: &mut Outcome,
) -> Vec<Sample> {
    let recorder = Recorder::default();
    let samples = {
        let _guard = recorder.install();
        open_loop(server.addr, queries)
    };
    let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let traced_p50 = median(&latency).expect("traced phase ran");
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
    );
    let spans = recorder.spans(out);
    out.set(
        "obs.spans_per_op",
        spans.len() as f64 / queries.len().max(1) as f64,
    );
    let layers = tracefold::by_name(&spans);
    tracefold::print_layers(&layers);
    let median_us = |name: &str| 1e3 * tracefold::median_self_ms(&layers, name);
    out.set("serve.request_self_us", median_us("serve.request"));
    out.set("serve.parse_us", median_us("serve.parse"));
    out.set("serve.write_us", median_us("serve.write"));
    samples
}

/// Isolated calls into `train::io`, `serve` and `linalg::scan` on the
/// snapshot and phase A's query stream.
fn layer_calls(
    path: &Path,
    reference: &QueryEngine,
    queries: &[Query],
    http_p50_ms: f64,
    out: &mut Outcome,
) {
    let (mut load, mut engine_new) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        let snap = match load_snapshot(path) {
            Ok(s) => s,
            Err(e) => return out.error(format!("load_snapshot: {e}")),
        };
        load = load.min(secs(t));
        let t = Instant::now();
        black_box(
            QueryEngine::new(snap, CACHE)
                .map_err(|e| out.error(format!("QueryEngine::new: {e}")))
                .ok(),
        );
        engine_new = engine_new.min(secs(t));
    }
    out.set("train.snapshot_load_s", load);
    out.set("serve.engine_new_s", engine_new);

    let answer_us: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            black_box(reference.answer(*q).ok());
            secs(t) * 1e6
        })
        .collect();
    let answer_p50 = median(&answer_us).expect("phase A queries");
    out.set("serve.answer_us", answer_p50);
    out.set("serve.http_overhead_us", http_p50_ms * 1e3 - answer_p50);
    let batch: Vec<Query> = queries.iter().copied().take(BATCH).collect();
    let batch_us = fastest_us(10, || {
        black_box(reference.answer_batch(&batch).ok());
    });
    out.set("serve.answer_batch_ms", batch_us / 1e3);

    let table = &reference.snapshot().embeddings.entity;
    let mut rng = Rng::seed_from_u64(17);
    let qvecs: Vec<f32> = (0..8 * DIM).map(|_| rng.next_f32() - 0.5).collect();
    for (queries, name) in [
        (1, "linalg.scan_q1_ns_per_row"),
        (8, "linalg.scan_q8_ns_per_row"),
    ] {
        let us = fastest_us(10, || {
            let mut sinks: Vec<StreamTopK> =
                (0..queries).map(|_| StreamTopK::new(K, &[])).collect();
            scan_rows(table, &qvecs[..queries * DIM], &mut sinks);
            black_box(sinks.into_iter().map(StreamTopK::into_sorted).count());
        });
        out.set(name, us * 1e3 / table.rows() as f64);
    }
}
