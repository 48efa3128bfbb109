//! Reduces an `eras_obs` JSONL trace to per-layer count, busy time and
//! self time.
//!
//! A span's self time is its duration minus the part of its interval
//! covered by its direct children on the same thread. Children on other
//! threads (pool workers) run concurrently with their parent rather
//! than inside it, so they are not subtracted.

use crate::report::Outcome;
use eras_data::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// One closed span record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub thread: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

impl Span {
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub count: usize,
    pub busy_us: u64,
    pub self_us: u64,
    /// Self time of each span, in trace order.
    pub self_each_us: Vec<u64>,
}

/// Parses the span records of a JSONL trace; event records are skipped.
pub fn parse(jsonl: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        if rec.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let num = |key: &str| {
            rec.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("trace line {}: span without `{key}`", i + 1))
        };
        spans.push(Span {
            name: rec
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("trace line {}: span without `name`", i + 1))?
                .to_string(),
            id: num("id")?,
            parent: num("parent")?,
            thread: num("thread")?,
            start_us: num("start_us")?,
            dur_us: num("dur_us")?,
        });
    }
    Ok(spans)
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                children[p].push((s.start_us, s.end_us()));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_us - covered(s.start_us, s.end_us(), &mut kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Count, busy and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, Layer> {
    let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let l = layers.entry(s.name.clone()).or_default();
        l.count += 1;
        l.busy_us += s.dur_us;
        l.self_us += self_us;
        l.self_each_us.push(self_us);
    }
    layers
}

/// Prints count, busy and self time per span name, busiest first.
pub fn print_layers(layers: &BTreeMap<String, Layer>) {
    let mut rows: Vec<(&String, &Layer)> = layers.iter().collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.busy_us));
    println!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "busy_ms", "self_ms"
    );
    for (name, l) in rows {
        println!(
            "{name:<36} {:>8} {:>12.3} {:>12.3}",
            l.count,
            l.busy_us as f64 / 1e3,
            l.self_us as f64 / 1e3
        );
    }
}

/// Spans named `name` that start inside `[lo, hi]` on any thread.
pub fn within<'a>(
    spans: &'a [Span],
    name: &'a str,
    lo: u64,
    hi: u64,
) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.name == name && s.start_us >= lo && s.start_us <= hi)
}

/// An in-memory JSONL trace sink: spans stay in memory until the run
/// reduces them at its end.
#[derive(Clone, Default)]
pub struct Recorder(Arc<Mutex<Vec<u8>>>);

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Recorder {
    /// Installs this recorder as the process-wide sink until the guard
    /// drops.
    pub fn install(&self) -> eras_obs::trace::TraceGuard {
        eras_obs::trace::install_writer(Box::new(self.clone()))
    }

    /// The spans recorded so far; a malformed trace is a failed check.
    pub fn spans(&self, out: &mut Outcome) -> Vec<Span> {
        let bytes = self.0.lock().expect("trace buffer lock poisoned").clone();
        parse(&String::from_utf8_lossy(&bytes)).unwrap_or_else(|e| {
            out.error(e);
            Vec::new()
        })
    }
}

/// Current value of a counter in the global metrics registry.
pub fn counter(name: &'static str) -> u64 {
    eras_obs::metrics::global().counter(name).get()
}

/// Global thread-pool counters, read before and after a stretch of ops.
pub struct PoolCounters([u64; 3]);

impl PoolCounters {
    const NAMES: [&'static str; 3] = ["pool.tasks", "pool.dispatches", "pool.inline_dispatches"];

    pub fn read() -> Self {
        PoolCounters(Self::NAMES.map(counter))
    }

    /// Records the per-op increase since `self` as `linalg.pool_*`.
    pub fn record_since(&self, ops: usize, out: &mut Outcome) {
        let now = Self::read();
        let per_op = |i: usize| (now.0[i] - self.0[i]) as f64 / ops.max(1) as f64;
        out.set("linalg.pool_tasks", per_op(0));
        out.set("linalg.pool_dispatches", per_op(1));
        out.set("linalg.pool_inline", per_op(2));
    }
}

/// Median self time in milliseconds of the spans named `name`; 0 when
/// there are none.
pub fn median_self_ms(layers: &BTreeMap<String, Layer>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| {
        let each: Vec<f64> = l.self_each_us.iter().map(|&us| us as f64 / 1e3).collect();
        crate::stats::median(&each).unwrap_or(0.0)
    })
}

/// Median duration in milliseconds of the spans named `name`; 0 when
/// there are none.
pub fn median_dur_ms(spans: &[Span], name: &str) -> f64 {
    let each: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1e3)
        .collect();
    crate::stats::median(&each).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, thread: u64, start: u64, dur: u64) -> Span {
        Span {
            name: name.into(),
            id,
            parent,
            thread,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = vec![
            span("op", 1, 0, 1, 0, 100),
            span("step", 2, 1, 1, 10, 20),
            span("step", 3, 1, 1, 50, 30),
            // A grandchild is inside `step` 2, not a direct child of `op`.
            span("kernel", 4, 2, 1, 12, 5),
            // A pool worker's shard runs beside `op`, not inside it.
            span("shard", 5, 1, 2, 10, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 5, 60]);
        let layers = by_name(&spans);
        assert_eq!(layers["step"].count, 2);
        assert_eq!(layers["step"].busy_us, 50);
        assert_eq!(layers["step"].self_us, 45);
        assert_eq!(layers["step"].self_each_us, vec![15, 30]);
        assert_eq!(layers["op"].self_us, 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Clock rounding can make a child overlap its sibling or overhang
        // its parent by a microsecond; neither may be subtracted twice.
        let spans = vec![
            span("p", 1, 0, 1, 100, 50),
            span("c", 2, 1, 1, 90, 20),
            span("c", 3, 1, 1, 105, 10),
            span("c", 4, 1, 1, 140, 30),
        ];
        // Covered: [100, 115) and [140, 150) → 25 of 50.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn parses_spans_and_skips_events() {
        let jsonl = concat!(
            r#"{"kind":"span","name":"train.epoch","id":7,"parent":3,"thread":1,"start_us":10,"dur_us":40,"fields":{"epoch":0}}"#,
            "\n",
            r#"{"kind":"event","name":"serve.shed","span":0,"thread":2,"at_us":5}"#,
            "\n\n",
            r#"{"kind":"span","name":"train.run","id":3,"parent":0,"thread":1,"start_us":0,"dur_us":100}"#,
            "\n",
        );
        let spans = parse(jsonl).expect("valid trace");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], span("train.epoch", 7, 3, 1, 10, 40));
        assert_eq!(self_times(&spans), vec![40, 60]);
        assert_eq!(within(&spans, "train.epoch", 0, 10).count(), 1);
        assert_eq!(within(&spans, "train.epoch", 11, 99).count(), 0);
        assert!(parse(r#"{"kind":"span","name":"x"}"#).is_err());
    }
}
