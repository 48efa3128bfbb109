//! Fused entity-table scan: one cache-blocked pass that scores every
//! table row against a group of query vectors and streams the scores
//! into bounded consumers — per-row scores are never materialized as a
//! full `N_e` vector.
//!
//! ## Why fuse
//!
//! Both the serving engine's batched top-k and the offline filtered
//! evaluator reduce to the same loop: `score[e] = ⟨E[e], q⟩` for every
//! entity `e`, immediately folded into a tiny summary (a top-k heap, a
//! better/ties tally). Materializing the score vector costs an extra
//! `O(N_e)` store+load sweep and, for the serve path, a heap compare
//! per entity per query. The fused kernel instead:
//!
//! - tiles the entity table into [`BLOCK_ROWS`]-row blocks sized to
//!   stay L1/L2-resident (`256 rows × 32 dims × 4 B = 32 KiB` at the
//!   serving benchmark's dimension),
//! - scores two or more queries in transposed tiles of eight (below),
//!   so every row is loaded once per eight queries and scored with
//!   vertical multiply/adds only; a single query runs
//!   [`vecops::dot`] per row,
//! - hands each consumer its block of scores through a small
//!   stack-resident scratch buffer ([`BlockConsumer::consume`]), where
//!   a cached-threshold top-k ([`StreamTopK`]) or a rank tally
//!   ([`RankTally`]) digests them without ever seeing a full score
//!   vector.
//!
//! ## The transposed tile
//!
//! [`vecops::dot`] keeps eight lane accumulators, lane `k` summing the
//! products of coordinates `k, k+8, k+16, …`, then folds them with the
//! fixed tree `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))` and adds the
//! sequential sum over the `dim mod 8` remainder coordinates. The scan
//! transposes its query vectors once per call into tiles of eight
//! (`[f32; 8]` number `j` of a tile holds coordinate `j` of its eight
//! queries, so the tile is laid out `qt[j·8 + i]`) and keeps eight
//! `[f32; 8]` accumulators per row, where entry `i` of accumulator `k`
//! is lane `k` of query `i`. Each multiply and add of `dot(row, qᵢ)`
//! thus happens in the same order, side by side with the other seven
//! queries', and the fold runs the same tree entry-wise: seven vertical
//! adds for eight scores, where a per-query dot needs a horizontal
//! lane-combine each. A batch whose size is not a multiple of eight
//! pads its last tile with zero queries, whose scores are never handed
//! to a consumer.
//!
//! ## Exactness
//!
//! Every score produced by the scan is bit-identical to
//! `vecops::dot(row, q)` — and therefore to `Matrix::matvec` — under
//! both the vectorized and the `scalar-kernels` builds (the scalar
//! build scores every query with `dot`). The one exception is the bits
//! of a NaN score: Rust leaves the sign and payload of a NaN result
//! unspecified, so a NaN is only guaranteed to be some NaN. The
//! serve/eval agreement tests compare the fused path against the
//! materialized matvec path down to the bit.

use crate::cmp;
use crate::matrix::Matrix;
use crate::vecops;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Rows per cache block of the fused scan. At dimension `d` a block
/// holds `256·d·4` bytes of entity rows (32 KiB at d = 32, 128 KiB at
/// d = 128) — small enough that the query tiles sweeping it reuse
/// L1/L2-resident rows rather than streaming from memory.
pub const BLOCK_ROWS: usize = 256;

/// Queries per transposed tile: entry `i` of each `[f32; QTILE]`
/// accumulator belongs to query `i` of the tile.
const QTILE: usize = 8;

// `tile_dot` spells out `dot`'s eight lanes and their combine tree.
const _: () = assert!(vecops::LANES == 8);

/// Scores per chunk of [`StreamTopK`]'s whole-chunk reject.
const REJECT_CHUNK: usize = 8;

/// A streaming sink for one query's scores. The scan calls
/// [`consume`](BlockConsumer::consume) once per cache block with the
/// scores of rows `base .. base + scores.len()`, in ascending row
/// order across calls.
pub trait BlockConsumer {
    /// Digest the scores of one block of rows, where `scores[i]` is
    /// the score of row `base + i`.
    fn consume(&mut self, base: u32, scores: &[f32]);
}

/// Score every row of `table` against `consumers.len()` query vectors
/// (`qvecs` holds them contiguously, `table.cols()` floats each) and
/// stream each query's scores into its consumer.
///
/// Two or more queries are scored in transposed tiles of eight, one
/// query by a [`vecops::dot`] per row; the `scalar-kernels` build
/// always takes the latter. Scores are bit-identical to
/// `vecops::dot(table.row(e), q)` for every entity `e` either way —
/// see the module docs.
pub fn scan_rows<C: BlockConsumer>(table: &Matrix, qvecs: &[f32], consumers: &mut [C]) {
    debug_assert_eq!(qvecs.len(), consumers.len() * table.cols());
    if consumers.len() >= 2 && !vecops::SCALAR_KERNELS {
        scan_tiled(table, qvecs, consumers);
    } else {
        scan_each(table, qvecs, consumers);
    }
}

/// The per-query path: each query's block of scores is one `dot` per
/// row over the same cache-hot block.
// audit:allow(E701): row indices stay below table.rows() (block loop
// bound), query offsets below consumers.len()*dim (the qvecs length
// scan_rows debug-asserts), and scratch offsets below nb <= BLOCK_ROWS
fn scan_each<C: BlockConsumer>(table: &Matrix, qvecs: &[f32], consumers: &mut [C]) {
    let dim = table.cols();
    let rows = table.rows();
    let mut scores = [0.0f32; BLOCK_ROWS];
    let mut base = 0;
    while base < rows {
        let nb = BLOCK_ROWS.min(rows - base);
        for (qi, sink) in consumers.iter_mut().enumerate() {
            let q = &qvecs[qi * dim..(qi + 1) * dim];
            for r in 0..nb {
                scores[r] = vecops::dot(table.row(base + r), q);
            }
            sink.consume(base as u32, &scores[..nb]);
        }
        base += nb;
    }
}

/// The tiled path: queries transposed into tiles of [`QTILE`], each
/// row of a block scored against a whole tile by [`tile_dot`].
// audit:allow(E701): qt is sized tiles*dim and indexed with t < tiles,
// j < dim, i < QTILE; row indices stay below table.rows(); scratch
// offsets stay below QTILE*BLOCK_ROWS (i < QTILE, r < nb <=
// BLOCK_ROWS); consumer indices t*QTILE + i stay below nq (i < live)
fn scan_tiled<C: BlockConsumer>(table: &Matrix, qvecs: &[f32], consumers: &mut [C]) {
    let dim = table.cols();
    let nq = consumers.len();
    let tiles = nq.div_ceil(QTILE);
    // qt[t·dim + j][i] is coordinate j of query t·QTILE + i; the last
    // tile's missing queries stay zero.
    let mut qt = vec![[0.0f32; QTILE]; tiles * dim];
    for qi in 0..nq {
        let (t, i) = (qi / QTILE, qi % QTILE);
        for j in 0..dim {
            qt[t * dim + j][i] = qvecs[qi * dim + j];
        }
    }
    let rows = table.rows();
    // Per-block score scratch, one BLOCK_ROWS stripe per query of a
    // tile: 8 KiB on the stack, no heap traffic in the hot loop.
    let mut scores = [0.0f32; QTILE * BLOCK_ROWS];
    let mut base = 0;
    while base < rows {
        let nb = BLOCK_ROWS.min(rows - base);
        for t in 0..tiles {
            let tile = &qt[t * dim..(t + 1) * dim];
            for r in 0..nb {
                let s = tile_dot(table.row(base + r), tile);
                for i in 0..QTILE {
                    scores[i * BLOCK_ROWS + r] = s[i];
                }
            }
            let live = QTILE.min(nq - t * QTILE);
            for i in 0..live {
                consumers[t * QTILE + i].consume(base as u32, &scores[i * BLOCK_ROWS..][..nb]);
            }
        }
        base += nb;
    }
}

/// One row against one transposed tile (`tile[j][i]` = coordinate `j`
/// of query `i`): entry `i` of the result is `vecops::dot(row, qᵢ)` bit
/// for bit. Accumulator `ak` carries `dot`'s lane `k` for all the
/// tile's queries, and the fold is `dot`'s lane-combine tree plus its
/// remainder sum, entry-wise. The eight accumulators are named, not
/// indexed, so they stay in registers and each [`lane_step`] is one
/// vector multiply and add whatever the optimizer's unrolling budget.
// audit:allow(E701): constant indices 0..LANES into [_; LANES] chunks
// and 0..QTILE into [f32; QTILE] arrays — statically in bounds
#[inline(always)]
fn tile_dot(row: &[f32], tile: &[[f32; QTILE]]) -> [f32; QTILE] {
    const LANES: usize = vecops::LANES;
    debug_assert_eq!(tile.len(), row.len());
    let (body, rest) = row.as_chunks::<LANES>();
    let (tile_body, tile_rest) = tile.as_chunks::<LANES>();
    let z = [0.0f32; QTILE];
    let (mut a0, mut a1, mut a2, mut a3) = (z, z, z, z);
    let (mut a4, mut a5, mut a6, mut a7) = (z, z, z, z);
    for (x, q) in body.iter().zip(tile_body) {
        a0 = lane_step(a0, x[0], &q[0]);
        a1 = lane_step(a1, x[1], &q[1]);
        a2 = lane_step(a2, x[2], &q[2]);
        a3 = lane_step(a3, x[3], &q[3]);
        a4 = lane_step(a4, x[4], &q[4]);
        a5 = lane_step(a5, x[5], &q[5]);
        a6 = lane_step(a6, x[6], &q[6]);
        a7 = lane_step(a7, x[7], &q[7]);
    }
    let mut tail = z;
    for (&x, q) in rest.iter().zip(tile_rest) {
        tail = lane_step(tail, x, q);
    }
    let mut out = z;
    for i in 0..QTILE {
        out[i] =
            ((a0[i] + a4[i]) + (a1[i] + a5[i])) + ((a2[i] + a6[i]) + (a3[i] + a7[i])) + tail[i];
    }
    out
}

/// `acc[i] + x·q[i]` for every query `i` of a tile: one coordinate's
/// step of `dot`'s accumulation, for eight queries at once.
// audit:allow(E701): i < QTILE indexes [f32; QTILE] arrays — statically
// in bounds
#[inline(always)]
fn lane_step(mut acc: [f32; QTILE], x: f32, q: &[f32; QTILE]) -> [f32; QTILE] {
    for i in 0..QTILE {
        acc[i] += x * q[i];
    }
    acc
}

/// One scored candidate, ordered "greater ranks higher": descending
/// score with NaN below every number
/// ([`cmp::nan_lowest_f32`]), ties broken toward the smaller id.
#[derive(Debug, Clone, Copy)]
pub struct Hit {
    /// Row (entity) id of the candidate.
    pub id: u32,
    /// Its score (higher is better).
    pub score: f32,
}

impl PartialEq for Hit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Hit {}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp::nan_lowest_f32(self.score, other.score).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Streaming bounded top-k over one query's scores: a `k`-bounded
/// min-heap plus a forward cursor into a sorted (ascending) filter
/// list, fed block-by-block by [`scan_rows`].
///
/// Once the heap is full, a cached copy of the current worst member
/// rejects non-improving candidates with one float compare — the
/// common case on a large table — before ever touching the heap, and
/// [`consume`](BlockConsumer::consume) skips every chunk of eight
/// scores that holds none reaching it with one vector compare, before
/// the filter cursor walks the chunk.
pub struct StreamTopK<'a> {
    k: usize,
    filt: &'a [u32],
    cursor: usize,
    heap: BinaryHeap<Reverse<Hit>>,
    /// Current worst heap member, valid while `heap.len() == k`.
    worst: Hit,
}

impl<'a> StreamTopK<'a> {
    /// Top-`k` sink skipping the ids in `filt` (sorted ascending).
    pub fn new(k: usize, filt: &'a [u32]) -> Self {
        StreamTopK {
            k,
            filt,
            cursor: 0,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
            worst: Hit {
                id: 0,
                score: f32::NAN,
            },
        }
    }

    /// Offer one candidate.
    #[inline]
    fn offer(&mut self, h: Hit) {
        if self.heap.len() < self.k {
            self.heap.push(Reverse(h));
            if self.heap.len() == self.k {
                if let Some(w) = self.heap.peek() {
                    self.worst = w.0;
                }
            }
            return;
        }
        // Fast reject: against a non-NaN worst member, a candidate
        // scoring strictly below it cannot enter, and a NaN candidate
        // ranks below every number so it cannot either. A NaN worst
        // falls through to the exact total-order compare.
        if !self.worst.score.is_nan() && (h.score < self.worst.score || h.score.is_nan()) {
            return;
        }
        if let Some(w) = self.heap.peek() {
            if h > w.0 {
                self.heap.pop();
                self.heap.push(Reverse(h));
                if let Some(nw) = self.heap.peek() {
                    self.worst = nw.0;
                }
            }
        }
    }

    /// Drain to a best-first vector.
    pub fn into_sorted(self) -> Vec<Hit> {
        // `into_sorted_vec` is ascending in `Reverse<Hit>`, i.e.
        // descending in `Hit` — best first.
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }

    /// Offer the candidates `first, first + 1, …` scoring `scores`,
    /// skipping filtered ids.
    // audit:allow(E701): filt[cursor] is guarded by cursor < filt.len()
    // in both the loop condition and the short-circuit below it
    #[inline]
    fn offer_run(&mut self, first: u32, scores: &[f32]) {
        for (off, &score) in scores.iter().enumerate() {
            let id = first + off as u32;
            // Blocks arrive in ascending row order, so the filter
            // cursor only moves forward.
            while self.cursor < self.filt.len() && self.filt[self.cursor] < id {
                self.cursor += 1;
            }
            if self.cursor < self.filt.len() && self.filt[self.cursor] == id {
                continue;
            }
            self.offer(Hit { id, score });
        }
    }
}

impl BlockConsumer for StreamTopK<'_> {
    fn consume(&mut self, base: u32, scores: &[f32]) {
        if self.k == 0 {
            return;
        }
        let (chunks, rest) = scores.as_chunks::<REJECT_CHUNK>();
        let mut first = base;
        for chunk in chunks {
            // Whole-chunk reject: against a full heap whose worst member
            // is a number, a score below it or NaN cannot enter (the
            // fast reject in `offer`), so a chunk with no score `>=` the
            // worst changes nothing and is skipped; the filter cursor
            // catches up lazily at the next chunk it walks. A NaN worst
            // falls through to `offer`'s exact compare.
            let worst = self.worst.score;
            let skip = self.heap.len() == self.k
                && !worst.is_nan()
                && !chunk.iter().fold(false, |hit, &s| hit | (s >= worst));
            if !skip {
                self.offer_run(first, chunk);
            }
            first += REJECT_CHUNK as u32;
        }
        self.offer_run(first, rest);
    }
}

/// Streaming filtered-rank tally for one evaluation query: counts
/// candidates scoring strictly above / exactly equal to the target's
/// score, skipping filtered ids and the target itself — the streaming
/// form of `eras_train::eval::filtered_rank` (`rank = 1 + #better +
/// #ties/2`, average-tie convention).
pub struct RankTally<'a> {
    target: u32,
    target_score: f32,
    filt: &'a [u32],
    cursor: usize,
    better: u64,
    ties: u64,
}

impl<'a> RankTally<'a> {
    /// Tally for `target` whose score is `target_score`, skipping the
    /// ids in `filt` (sorted ascending; the target is always kept).
    pub fn new(target: u32, target_score: f32, filt: &'a [u32]) -> Self {
        RankTally {
            target,
            target_score,
            filt,
            cursor: 0,
            better: 0,
            ties: 0,
        }
    }

    /// The filtered average-tie rank after the scan.
    pub fn rank(&self) -> f64 {
        1.0 + self.better as f64 + self.ties as f64 / 2.0
    }
}

impl BlockConsumer for RankTally<'_> {
    // audit:allow(E701): filt[cursor] is guarded by cursor < filt.len()
    // in both the loop condition and the short-circuit below it
    fn consume(&mut self, base: u32, scores: &[f32]) {
        for (off, &s) in scores.iter().enumerate() {
            let id = base + off as u32;
            if id == self.target {
                continue;
            }
            while self.cursor < self.filt.len() && self.filt[self.cursor] < id {
                self.cursor += 1;
            }
            if self.cursor < self.filt.len() && self.filt[self.cursor] == id {
                continue;
            }
            if s > self.target_score {
                self.better += 1;
            } else if s == self.target_score {
                self.ties += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Collects every score — the materializing reference consumer.
    struct Collect(Vec<f32>);

    impl BlockConsumer for Collect {
        fn consume(&mut self, base: u32, scores: &[f32]) {
            assert_eq!(base as usize, self.0.len(), "blocks must be in order");
            self.0.extend_from_slice(scores);
        }
    }

    fn table_and_queries(rows: usize, dim: usize, nq: usize) -> (Matrix, Vec<f32>) {
        let mut rng = Rng::seed_from_u64(9);
        let table = Matrix::uniform_init(rows, dim, 1.0, &mut rng);
        let qvecs: Vec<f32> = (0..nq * dim).map(|_| rng.normal()).collect();
        (table, qvecs)
    }

    #[test]
    fn scan_matches_matvec_bitwise() {
        // Row counts straddling the block size, query counts on the
        // one-query path and straddling the eight-query tile (the
        // integration tests add dims with remainder coordinates).
        for (rows, nq) in [(1usize, 1usize), (7, 3), (256, 4), (300, 8), (513, 9)] {
            let dim = 16;
            let (table, qvecs) = table_and_queries(rows, dim, nq);
            let mut sinks: Vec<Collect> = (0..nq).map(|_| Collect(Vec::new())).collect();
            scan_rows(&table, &qvecs, &mut sinks);
            let mut want = vec![0.0f32; rows];
            for (qi, sink) in sinks.iter().enumerate() {
                table.matvec(&qvecs[qi * dim..(qi + 1) * dim], &mut want);
                assert_eq!(sink.0.len(), rows);
                for (e, (&got, &w)) in sink.0.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        w.to_bits(),
                        "rows={rows} nq={nq} q={qi} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_topk_matches_sort_reference() {
        let rows = 400;
        let (table, qvecs) = table_and_queries(rows, 8, 1);
        let mut scores = vec![0.0f32; rows];
        table.matvec(&qvecs, &mut scores);
        // Inject exact ties and a NaN to exercise the total order.
        scores[17] = scores[3];
        scores[200] = scores[3];
        scores[99] = f32::NAN;
        let filt: Vec<u32> = vec![3, 42, 399];
        for k in [1usize, 5, 50, 400, 1000] {
            let mut sink = StreamTopK::new(k, &filt);
            sink.consume(0, &scores);
            let got = sink.into_sorted();
            let mut want: Vec<Hit> = scores
                .iter()
                .enumerate()
                .filter(|(i, _)| filt.binary_search(&(*i as u32)).is_err())
                .map(|(i, &s)| Hit {
                    id: i as u32,
                    score: s,
                })
                .collect();
            want.sort_by(|a, b| b.cmp(a));
            want.truncate(k);
            assert_eq!(got.len(), want.len(), "k={k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "k={k}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn stream_topk_threshold_survives_blockwise_feeding() {
        // Feed the same scores in two blocks; the cached worst-member
        // threshold must not reject candidates that beat the worst.
        let scores: Vec<f32> = (0..100).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut whole = StreamTopK::new(10, &[]);
        whole.consume(0, &scores);
        let mut split = StreamTopK::new(10, &[]);
        split.consume(0, &scores[..37]);
        split.consume(37, &scores[37..]);
        let a = whole.into_sorted();
        let b = split.into_sorted();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut sink = StreamTopK::new(0, &[]);
        sink.consume(0, &[1.0, 2.0, 3.0]);
        assert!(sink.into_sorted().is_empty());
    }

    #[test]
    fn rank_tally_counts_better_and_ties() {
        // scores: e0..e4; target e3 (score 5.0); e1 better, e2 filtered
        // (mirrors the filtered_rank_basic test in eras-train).
        let scores = [1.0f32, 9.0, 7.0, 5.0, 2.0];
        let mut t = RankTally::new(3, scores[3], &[1, 2, 3]);
        t.consume(0, &scores);
        assert_eq!(t.rank(), 1.0);
        let mut u = RankTally::new(3, scores[3], &[3]);
        u.consume(0, &scores);
        assert_eq!(u.rank(), 3.0);
        // Constant scores → average rank.
        let flat = [0.5f32; 10];
        let mut v = RankTally::new(4, flat[4], &[4]);
        v.consume(0, &flat);
        assert_eq!(v.rank(), 1.0 + 9.0 / 2.0);
    }
}
