//! Deterministic data-parallel minibatch training.
//!
//! [`train_minibatch_parallel`] is the step of [`LossMode::Full`] and
//! [`LossMode::NegSampling`]. It wins when one model trains on the
//! pool. ([`LossMode::Sampled`], the objective of the search loops,
//! trains many models at a time on the pool, each on the sequential
//! [`crate::block::train_minibatch`]: running those on this step raised
//! the benchmark's search peak RSS.) A stand-alone search under `Full`
//! or `NegSampling` also trains its candidates here, each in one pool
//! task where this step's dispatches run inline; docs/performance.md
//! ("Concurrent candidate evaluation") records that this costs memory
//! under `Full`, and time under `NegSampling`. Interleaving gradient
//! computation with optimizer application per example would serialise
//! on the optimizer state and, under [`LossMode::Full`], pay an Adagrad
//! sweep over *every* entity row per side. This step restructures the
//! batch instead:
//!
//! 1. **Fixed sharding.** The batch is cut into `ceil(len / 32)` shards
//!    of [`SHARD_TRIPLES`] triples. Shard boundaries depend only on the
//!    batch length — never on the pool size — and shard `s` draws its
//!    negatives from an RNG derived from `(batch_base, s)`, so the work
//!    a shard does is a pure function of the shard index.
//! 2. **Snapshot gradients.** Every shard computes exact gradients
//!    against the batch-start embeddings into its own accumulator
//!    (entity/relation tables with touched-row tracking, so
//!    [`LossMode::NegSampling`] shards stay sparse). No shard writes
//!    anything another shard reads, and each shard's task empties the
//!    shard before it starts. A shard makes three passes over its
//!    triples: it *draws* every side's negative block into a buffer,
//!    *gathers* every entity row its sides read (one load per cache
//!    line, so the misses overlap), then *computes* each side from
//!    rows that are already in cache. [`LossMode::Full`] sides take the
//!    same passes with empty blocks.
//! 3. **Fixed-shape reduction, split by row.** A second pool dispatch
//!    cuts the entity and relation tables into fixed row ranges
//!    (`REDUCE_RANGES` per table). Each range task gathers its rows from
//!    every shard and sums each row in one fixed shape: a stride-doubling
//!    tree within each reduction window (`s[i] += s[i + stride]`, stride
//!    1, 2, 4, …, where a shard that lacks the row counts as a fresh zero
//!    row, so a lone right-hand operand becomes `0.0 + x`), then the
//!    window sums folded in ascending order into a total that starts at
//!    zero. Floating-point addition is not associative; fixing the
//!    *shape* — not just the set of addends — is what makes the sums
//!    bit-identical for every pool size. Rows never mix, so splitting
//!    them by range moves no sum.
//! 4. **Single application, in place.** The same task applies Adagrad
//!    once to each of its rows through a disjoint row-range view of the
//!    optimizer ([`Adagrad::ranges`]). A row that only one shard touched
//!    — most rows, at a million entities — takes a direct path: its sum
//!    is `0.0 + x`, whatever the shard's place in its window.
//!
//! ## Bounded memory under `LossMode::Full`
//!
//! A full-softmax shard is dense: its entity accumulator spans the
//! whole table and its deferred outer products carry one residual per
//! entity per example side. Letting every shard of a large batch hold
//! that at once would cost memory linear in the batch length, so two
//! machine-independent constants bound it instead:
//!
//! - `FULL_FLUSH_SIDES` caps the deferred `p ⊗ q` buffer: a shard
//!   flushes after that many sides, in ascending side order, which
//!   leaves every per-element sum in exactly the same order as one big
//!   flush.
//! - `FULL_LIVE_SHARDS` caps how many dense shard accumulators are
//!   live at once: the batch runs as a sequence of *super-steps* over a
//!   fixed-size window of shard buffers. Each super-step's reduce
//!   dispatch tree-reduces its window and folds it into a running batch
//!   total, which each range task keeps for its own rows; the last
//!   super-step applies it. Window size and step order are constants of
//!   the batch length — never the pool size — so the overall reduction
//!   shape, and therefore every floating-point sum, stays bit-identical
//!   for every thread count.
//!
//! [`LossMode::NegSampling`] shards are sparse: a shard stores only the
//! rows it touches, found through a shard-local index sized by those
//! rows (`RowIndex`), so a shard over a million-entity table costs a
//! couple of hundred kilobytes, not the 4·`N_e`·`d` bytes of a dense
//! accumulator nor a rows-sized map. Every sparse shard of a batch stays
//! live, which bounds the step's gradient memory by the batch's own
//! gradient rows; the batch reduces as windows of `NEG_WINDOW_SHARDS`.
//!
//! The result is bit-identical for every thread count (the pool only
//! decides *which worker* runs a shard or a row range, never what it
//! computes), and the restructuring itself is the throughput win: under
//! `LossMode::Full` the per-side entity sweep collapses from a
//! `sqrt`/`div`-bound Adagrad pass over the whole table to two fused
//! `axpy` passes, with one Adagrad pass per *batch* instead of per
//! side.
//!
//! N3 regularisation is folded into the same batch gradient (evaluated
//! on the batch-start snapshot) rather than applied as a separate
//! post-batch pass like the sequential [`crate::block::apply_n3`].

use crate::block::BlockModel;
use crate::embeddings::Embeddings;
use crate::loss::{Corruption, LossMode};
use crate::negative::{sample_neg_block, NegCtx};
use eras_data::Triple;
use eras_linalg::optim::{Adagrad, AdagradRange};
use eras_linalg::pool::ThreadPool;
use eras_linalg::softmax::{self, neg_sampling_loss_and_residual};
use eras_linalg::{vecops, Rng};
use std::cell::UnsafeCell;
use std::ops::Range;

/// Triples per gradient shard. Shard count is `ceil(batch / 32)` — a
/// function of the batch length only, which is what keeps results
/// independent of the pool size.
pub const SHARD_TRIPLES: usize = 32;

/// Deferred outer-product group size under [`LossMode::Full`]: a shard
/// materialises its `p ⊗ q` sides every this-many sides instead of
/// buffering one residual row per side of the whole shard, capping
/// `p_rows` at `FULL_FLUSH_SIDES · num_entities` floats per shard.
/// Groups flush in ascending side order, so each gradient element
/// accumulates its sides in the same order as a single flush would —
/// the sums are bitwise unchanged.
const FULL_FLUSH_SIDES: usize = 8;

/// Maximum shard accumulators live at once under [`LossMode::Full`],
/// where each accumulator holds a dense `num_entities × dim` gradient
/// table. Batches with more shards run as a sequence of super-steps
/// over a window this wide, so a batch's footprint is bounded by a
/// constant independent of its length. This is a fixed constant — never
/// the pool size — so the reduction shape (and with it every
/// floating-point sum) remains a pure function of the batch length.
const FULL_LIVE_SHARDS: usize = 8;

/// Reduction window of [`LossMode::NegSampling`]: a batch's shards sum
/// as stride-doubling trees over consecutive groups of this many
/// shards, folded in ascending group order. It fixes the reduction
/// *shape* only — every shard of the batch is live at once — and, as a
/// machine-independent constant, keeps that shape a pure function of
/// the batch length. (It was once the live-shard bound, when every
/// shard carried a rows-sized slot map; the pinned step bits keep the
/// shape it gave.)
const NEG_WINDOW_SHARDS: usize = 8;

/// Row ranges per table in the reduce dispatch: range `k` of a
/// `rows`-row table covers rows `k·⌈rows / 64⌉ ..`. The split depends
/// on the table alone and moves no sum (rows reduce independently); it
/// only sets the dispatch's granularity.
const REDUCE_RANGES: usize = 64;

/// Rows a reduce task sums at once in a dense ([`LossMode::Full`])
/// table: each shard's block is one contiguous slice, so the block
/// reduces as one wide row (rows never mix; every sum is per element)
/// while the task's tree operands stay a few tens of kilobytes.
const DENSE_BLOCK_ROWS: usize = 16;

/// Rows per reduce range of a `rows`-row table, and the number of
/// ranges.
fn range_split(rows: usize) -> (usize, usize) {
    let per = rows.div_ceil(REDUCE_RANGES).max(1);
    (per, rows.div_ceil(per))
}

/// Marks an empty [`RowIndex`] cell; no table has `u32::MAX` rows.
const EMPTY_ROW: u32 = u32::MAX;

/// Shard-local row → slot map: open addressing with linear probing,
/// kept at most half full, so its size follows the rows a shard
/// touches — never the table's row count.
#[derive(Default)]
struct RowIndex {
    /// `(row, slot)` cells; the length is zero or a power of two.
    cells: Vec<(u32, u32)>,
    /// `64 − log2(cells.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl RowIndex {
    #[inline]
    fn home(&self, row: u32) -> usize {
        ((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot of `row`, assigning it `fresh` if it has none; the flag
    /// says whether `fresh` was taken.
    #[inline]
    fn slot_or_insert(&mut self, row: u32, fresh: u32) -> (u32, bool) {
        if 2 * (self.len + 1) > self.cells.len() {
            self.grow();
        }
        let mask = self.cells.len() - 1;
        let mut i = self.home(row);
        loop {
            let (r, slot) = self.cells[i];
            if r == row {
                return (slot, false);
            }
            if r == EMPTY_ROW {
                self.cells[i] = (row, fresh);
                self.len += 1;
                return (fresh, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Make room for `n` entries without growing.
    fn reserve(&mut self, n: usize) {
        while 2 * n > self.cells.len() {
            self.grow();
        }
    }

    /// Double the table (at least 64 cells) and re-insert every entry.
    fn grow(&mut self) {
        let cap = (2 * self.cells.len()).max(64);
        let old = std::mem::replace(&mut self.cells, vec![(EMPTY_ROW, 0); cap]);
        self.shift = 64 - cap.trailing_zeros();
        for (row, slot) in old.into_iter().filter(|c| c.0 != EMPTY_ROW) {
            let mut i = self.home(row);
            while self.cells[i].0 != EMPTY_ROW {
                i = (i + 1) & (cap - 1);
            }
            self.cells[i] = (row, slot);
        }
    }

    fn clear(&mut self) {
        self.cells.fill((EMPTY_ROW, 0));
        self.len = 0;
    }
}

/// A gradient table with slot-compressed sparse storage: `grad` holds
/// one `dim`-row per *touched* row (first-touch order) and `index`
/// maps a table row to its slot, so a neg-sampling shard over a
/// million-entity table costs memory proportional to the
/// rows it actually touches, never to the table. [`LossMode::Full`]
/// shards flip to a dense layout ([`GradTable::mark_dense`]) where row
/// `r` lives at offset `r·dim` — the deferred outer-product flush
/// writes the whole table anyway, and a direct offset beats a slot
/// lookup per row there.
#[derive(Default)]
struct GradTable {
    rows: usize,
    dim: usize,
    /// Active storage: `touched.len()·dim` floats (sparse layout) or
    /// `rows·dim` (dense layout).
    grad: Vec<f32>,
    /// Retained buffer for the other layout, so the sparse↔dense flip
    /// allocates once per table lifetime, not once per batch. All-zero
    /// whenever the table is sparse (restored by [`GradTable::reset`]).
    spare: Vec<f32>,
    index: RowIndex,
    /// Touched rows in slot order (sparse layout).
    touched: Vec<u32>,
    dense: bool,
    /// `row << 32 | slot` for every touched row, grouped by reduce
    /// range: range `k`'s are `by_range[range_at[k]..range_at[k + 1]]`
    /// (sparse layout; see [`GradTable::bucket`]).
    by_range: Vec<u64>,
    range_at: Vec<u32>,
    cursor: Vec<u32>,
}

impl GradTable {
    /// Empty the table for a new batch over a `rows × dim` table, and
    /// make room for the at most `touches` rows the batch's shard can
    /// touch, so that a warm table never allocates. A dense table
    /// re-zeroes its buffer and parks it in `spare`, so the next flip
    /// reuses it without reallocating.
    fn reset(&mut self, rows: usize, dim: usize, touches: usize) {
        if self.rows != rows || self.dim != dim {
            *self = GradTable {
                rows,
                dim,
                ..GradTable::default()
            };
        } else {
            if self.dense {
                vecops::zero(&mut self.grad);
                std::mem::swap(&mut self.grad, &mut self.spare);
                self.dense = false;
            }
            self.grad.clear();
            self.touched.clear();
            self.index.clear();
        }
        let touches = touches.min(rows);
        self.grad.reserve(touches * dim);
        self.touched.reserve(touches);
        self.by_range.reserve(touches);
        self.index.reserve(touches);
    }

    /// The gradient row of table row `row`; a row's first touch gives
    /// it a slot holding zeros. In the dense layout every row is live.
    #[inline]
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let dim = self.dim;
        let at = if self.dense {
            row as usize
        } else {
            let (slot, fresh) = self.index.slot_or_insert(row, self.touched.len() as u32);
            if fresh {
                self.touched.push(row);
                self.grad.resize(self.grad.len() + dim, 0.0);
            }
            slot as usize
        };
        &mut self.grad[at * dim..(at + 1) * dim]
    }

    /// Flip to the dense layout: scatter the sparse slots to their
    /// `r·dim` offsets in the (all-zero) spare buffer and swap. The
    /// flip moves values without touching any sum. Idempotent within a
    /// batch (the flag is reset by [`GradTable::reset`]).
    fn mark_dense(&mut self) {
        if self.dense {
            return;
        }
        let dim = self.dim;
        self.spare.resize(self.rows * dim, 0.0);
        for (slot, &r) in self.touched.iter().enumerate() {
            self.spare[r as usize * dim..(r as usize + 1) * dim]
                .copy_from_slice(&self.grad[slot * dim..(slot + 1) * dim]);
        }
        std::mem::swap(&mut self.grad, &mut self.spare);
        self.dense = true;
        self.touched.clear();
    }

    /// Group the touched rows by reduce range (a counting sort on the
    /// range), so that each range task reads only its own rows. Dense
    /// tables are read in blocks of rows instead and skip this.
    fn bucket(&mut self) {
        if self.dense {
            return;
        }
        let (per, ranges) = range_split(self.rows);
        self.range_at.clear();
        self.range_at.resize(ranges + 1, 0);
        for &r in &self.touched {
            self.range_at[r as usize / per + 1] += 1;
        }
        for k in 0..ranges {
            self.range_at[k + 1] += self.range_at[k];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.range_at[..ranges]);
        self.by_range.resize(self.touched.len(), 0);
        for (slot, &r) in self.touched.iter().enumerate() {
            let at = &mut self.cursor[r as usize / per];
            self.by_range[*at as usize] = (r as u64) << 32 | slot as u64;
            *at += 1;
        }
    }

    /// The `row << 32 | slot` entries of reduce range `k`.
    fn range_entries(&self, k: usize) -> &[u64] {
        &self.by_range[self.range_at[k] as usize..self.range_at[k + 1] as usize]
    }

    /// The stored rows at slots `at` — in the dense layout, table rows
    /// `at`.
    fn rows_at(&self, at: Range<usize>) -> &[f32] {
        &self.grad[at.start * self.dim..at.end * self.dim]
    }
}

/// Whether `mode` corrupts the tail side of `triple` this step: both
/// sides under every mode except Bernoulli negative sampling, which
/// draws one side per triple from the relation's fitted tail
/// probability. Returns `(tail_side, head_side)`.
#[inline]
fn sides_for(mode: LossMode, neg: Option<&NegCtx>, t: Triple, rng: &mut Rng) -> (bool, bool) {
    match mode {
        LossMode::NegSampling {
            corruption: Corruption::Bernoulli,
            ..
        } => {
            let p = neg
                .and_then(|n| n.bernoulli.as_ref())
                .map(|b| b.tail_prob(t.rel))
                .unwrap_or(0.5);
            let tail = rng.bernoulli(p);
            (tail, !tail)
        }
        _ => (true, true),
    }
}

/// Floats per 64-byte cache line.
const LINE_FLOATS: usize = 64 / std::mem::size_of::<f32>();

/// Read every 64-byte line of entity row `r` for each `r` in `rows`,
/// folded into [`std::hint::black_box`] so the loads stay. The loads
/// are independent, so their cache misses overlap here instead of
/// stalling the compute pass one side at a time.
fn gather(emb: &Embeddings, rows: &[u32]) {
    let mut fold = 0u32;
    for &r in rows {
        let row = emb.entity.row(r as usize);
        // A row that starts mid-line ends in a line that stepping from
        // its start skips; its last float reads that line.
        for x in row.iter().step_by(LINE_FLOATS).chain(row.last()) {
            fold ^= x.to_bits();
        }
    }
    std::hint::black_box(fold);
}

/// One shard's gradient of `triples` at `emb`, as dense row-major
/// entity and relation tables: the kernels of
/// [`train_minibatch_parallel`] without the reduce and the optimizer,
/// with unfiltered negatives and no N3. The gradient contracts
/// (`crate::contract`) differentiate it.
pub(crate) fn shard_gradient(
    model: &BlockModel,
    emb: &Embeddings,
    triples: &[Triple],
    mode: LossMode,
    rng: &mut Rng,
) -> (Vec<f32>, Vec<f32>) {
    let mut shard = Shard::default();
    shard.accumulate(model, emb, triples, mode, None, 0.0, rng);
    shard.entity.mark_dense();
    shard.relation.mark_dense();
    (shard.entity.grad, shard.relation.grad)
}

/// One shard's accumulators plus its private work buffers.
#[derive(Default)]
struct Shard {
    entity: GradTable,
    relation: GradTable,
    loss: f32,
    /// Loss-term sides accumulated — the batch-mean divisor. Bernoulli
    /// corruption trains one side per triple; every other mode two.
    sides: u32,
    q: Vec<f32>,
    g_q: Vec<f32>,
    scores: Vec<f32>,
    /// Each triple's `(tail_side, head_side)` draw, in batch order.
    plan: Vec<(bool, bool)>,
    /// The entity rows of every trained side, in side order: its
    /// anchor, then its candidates — the target, then its negative
    /// block (empty under [`LossMode::Full`]).
    rows: Vec<u32>,
    /// Deferred `LossMode::Full` outer products: side `s` stores its
    /// residual row `p_s` (one scalar per entity) and query `q_s` here,
    /// and [`Shard::flush_full`] materialises `G += Σ_s p_s ⊗ q_s` in
    /// one table-resident pass per shard instead of a read-modify-write
    /// of the whole gradient table per side.
    p_rows: Vec<f32>,
    q_rows: Vec<f32>,
    n_sides: usize,
    g_q_b: Vec<f32>,
}

impl Shard {
    /// Accumulate exact gradients for `triples` against the snapshot
    /// `emb`: both prediction directions of every triple (one, under
    /// Bernoulli corruption), plus N3 when `n3_lambda > 0`.
    ///
    /// Three passes over the shard's triples: *draw* every side's
    /// negative block (the RNG stream in the order a side-at-a-time
    /// loop consumes it), *gather* every entity row the shard reads so
    /// their cache misses overlap, then *compute* each side.
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &mut self,
        model: &BlockModel,
        emb: &Embeddings,
        triples: &[Triple],
        mode: LossMode,
        neg: Option<&NegCtx>,
        n3_lambda: f32,
        rng: &mut Rng,
    ) {
        // A side reads `stride` entity rows: its anchor, its target and
        // its negative block.
        let stride = 2 + match mode {
            LossMode::NegSampling { negatives, .. } => negatives,
            _ => 0,
        };
        // The previous batch's reduce is over: empty the shard here, on
        // the task that fills it. A triple touches, per side, those rows
        // (every row instead under `Full`), plus two N3 factor rows, and
        // one relation row.
        let touches = triples.len() * (2 * stride + 2);
        self.entity.reset(emb.num_entities(), emb.dim(), touches);
        self.relation
            .reset(emb.num_relations(), emb.dim(), triples.len());
        self.q.resize(emb.dim(), 0.0);
        self.g_q.resize(emb.dim(), 0.0);
        self.g_q_b.resize(emb.dim(), 0.0);
        self.loss = 0.0;
        self.sides = 0;
        if matches!(mode, LossMode::Full) {
            let sides = (2 * triples.len()).min(FULL_FLUSH_SIDES);
            self.p_rows.resize(sides * emb.num_entities(), 0.0);
            self.q_rows.resize(sides * emb.dim(), 0.0);
            self.n_sides = 0;
        }
        self.plan.clear();
        self.plan.reserve(triples.len());
        self.rows.clear();
        self.rows.reserve(2 * triples.len() * stride);

        // Draw: each triple's sides, then each side's filtered negative
        // block, which corrupts the side being predicted.
        for &t in triples {
            let (tail_side, head_side) = sides_for(mode, neg, t, rng);
            self.plan.push((tail_side, head_side));
            for (on, tail, anchor, target) in [
                (tail_side, true, t.head, t.tail),
                (head_side, false, t.tail, t.head),
            ] {
                if !on {
                    continue;
                }
                let at = self.rows.len();
                self.rows.extend([anchor, target]);
                self.rows.resize(at + stride, 0);
                sample_neg_block(
                    anchor,
                    t.rel,
                    target,
                    tail,
                    emb.num_entities(),
                    neg.map(|n| n.filter),
                    rng,
                    &mut self.rows[at + 2..],
                );
            }
        }

        gather(emb, &self.rows);

        // Compute: each side from its rows, then the triple's N3 term.
        let mut at = 0;
        for (i, &t) in triples.iter().enumerate() {
            let (tail_side, head_side) = self.plan[i];
            for (transposed, on) in [(false, tail_side), (true, head_side)] {
                if on {
                    self.loss += self.side(model, emb, transposed, t.rel, at..at + stride, mode);
                    self.sides += 1;
                    at += stride;
                }
            }
            if n3_lambda > 0.0 {
                self.accumulate_n3(emb, t, n3_lambda);
            }
        }
        if matches!(mode, LossMode::Full) {
            self.flush_full(emb.num_entities(), emb.dim());
        }
        self.entity.bucket();
        self.relation.bucket();
    }

    /// One 1-vs-all direction over the side's entity rows
    /// `self.rows[side]` (anchor, target, negative block): residuals
    /// into candidate entity rows, chain rule through `q` into the
    /// anchor and relation rows.
    fn side(
        &mut self,
        model: &BlockModel,
        emb: &Embeddings,
        transposed: bool,
        rel: u32,
        side: Range<usize>,
        mode: LossMode,
    ) -> f32 {
        let (anchor, target) = (self.rows[side.start], self.rows[side.start + 1]);
        let dim = emb.dim();
        let num_entities = emb.num_entities();
        let sf = if transposed {
            model.sf_for_transposed(rel)
        } else {
            model.sf_for(rel)
        };
        let x = emb.entity.row(anchor as usize);
        let r_row = emb.relation.row(rel as usize);
        model.query_with(sf, x, r_row, &mut self.q);

        vecops::zero(&mut self.g_q);
        let loss = match mode {
            LossMode::Full => {
                // Side group full: materialise the deferred outer
                // products before claiming a new slot. Ascending side
                // order per group keeps every element's sum order
                // identical to one big flush.
                if self.n_sides * num_entities >= self.p_rows.len() {
                    self.flush_full(num_entities, dim);
                }
                self.scores.resize(num_entities, 0.0);
                emb.entity.matvec(&self.q, &mut self.scores);
                // Fast softmax: scores become unnormalised exp values;
                // the 1/Σ normalisation folds into each row's gradient
                // scalar below instead of costing its own pass.
                let (loss, inv) = softmax::log_loss_exp_scale(&mut self.scores, target as usize);
                // One pass over the entity table yields g_q (= Eᵀ·p)
                // and records the residual scalars — the per-row grads
                // `p_c·q` are *deferred* to [`Shard::flush_full`], so
                // the gradient table is written once per shard instead
                // of read-modify-written once per side. Rows go two at
                // a time with split g_q accumulators so the two
                // streams stay independent; the combine order is
                // fixed, keeping the result a pure function of the
                // input.
                let s_idx = self.n_sides;
                self.n_sides += 1;
                let p_row = &mut self.p_rows[s_idx * num_entities..(s_idx + 1) * num_entities];
                self.q_rows[s_idx * dim..(s_idx + 1) * dim].copy_from_slice(&self.q);
                {
                    let gq = &mut self.g_q[..dim];
                    let gqb = &mut self.g_q_b[..dim];
                    let mut pi = p_row.chunks_exact_mut(2);
                    let mut ei = emb.entity.as_slice().chunks_exact(2 * dim);
                    let mut si = self.scores.chunks_exact(2);
                    for ((p2, e2), s2) in (&mut pi).zip(&mut ei).zip(&mut si) {
                        let r0 = s2[0] * inv;
                        let r1 = s2[1] * inv;
                        p2[0] = r0;
                        p2[1] = r1;
                        let (e0, e1) = e2.split_at(dim);
                        vecops::axpy(r0, e0, gq);
                        vecops::axpy(r1, e1, gqb);
                    }
                    for ((p, e_row), &s) in pi
                        .into_remainder()
                        .iter_mut()
                        .zip(ei.remainder().chunks_exact(dim))
                        .zip(si.remainder())
                    {
                        let r = s * inv;
                        *p = r;
                        vecops::axpy(r, e_row, gq);
                    }
                    vecops::axpy(1.0, gqb, gq);
                    vecops::zero(gqb);
                }
                // The pass used p (softmax) rather than the residual
                // p − onehot; subtract the one-hot column here.
                p_row[target as usize] -= 1.0;
                vecops::axpy(-1.0, emb.entity.row(target as usize), &mut self.g_q);
                loss
            }
            LossMode::NegSampling {
                gamma,
                adversarial_temp,
                ..
            } => {
                // Slot 0 is the positive, then the negative block.
                let candidates = &self.rows[side.start + 1..side.end];
                self.scores.resize(candidates.len(), 0.0);
                for slot in 0..candidates.len() {
                    let c = candidates[slot] as usize;
                    self.scores[slot] = vecops::dot(&self.q, emb.entity.row(c));
                }
                let loss =
                    neg_sampling_loss_and_residual(&mut self.scores, gamma, adversarial_temp);
                // self.scores now holds the per-candidate ∂L/∂s.
                for slot in 0..candidates.len() {
                    let c = candidates[slot] as usize;
                    let resid = self.scores[slot];
                    vecops::axpy(resid, emb.entity.row(c), &mut self.g_q);
                    vecops::axpy(resid, &self.q, self.entity.row_mut(c as u32));
                }
                loss
            }
            LossMode::Sampled { .. } => {
                unreachable!("train_minibatch_parallel rejects LossMode::Sampled")
            }
        };

        model.backprop_query(
            sf,
            x,
            r_row,
            &self.g_q,
            self.entity.row_mut(anchor),
            self.relation.row_mut(rel),
        );
        loss
    }

    /// N3 gradient `3λ·sign(x)·x²` for the factor rows of `t`,
    /// evaluated on the batch-start snapshot.
    fn accumulate_n3(&mut self, emb: &Embeddings, t: Triple, lambda: f32) {
        for &e in &[t.head, t.tail] {
            let dst = self.entity.row_mut(e);
            for (g, &x) in dst.iter_mut().zip(emb.entity.row(e as usize)) {
                *g += 3.0 * lambda * x * x * x.signum();
            }
        }
        let dst = self.relation.row_mut(t.rel);
        for (g, &x) in dst.iter_mut().zip(emb.relation.row(t.rel as usize)) {
            *g += 3.0 * lambda * x * x * x.signum();
        }
    }

    /// Materialise the deferred `LossMode::Full` entity gradients:
    /// `G_c += Σ_s p_s[c] · q_s`, entity rows outermost so each row
    /// stays cache-resident across all sides of the shard. The side
    /// order `s` is ascending — fixed — so the sums are a pure
    /// function of the shard's input.
    fn flush_full(&mut self, num_entities: usize, dim: usize) {
        if self.n_sides == 0 {
            return;
        }
        self.entity.mark_dense();
        let q_rows = &self.q_rows[..self.n_sides * dim];
        for (c, g_row) in self
            .entity
            .grad
            .chunks_exact_mut(dim)
            .enumerate()
            .take(num_entities)
        {
            for (s, q_s) in q_rows.chunks_exact(dim).enumerate() {
                vecops::axpy(self.p_rows[s * num_entities + c], q_s, g_row);
            }
        }
        self.n_sides = 0;
    }

    fn table(&self, table: Table) -> &GradTable {
        match table {
            Table::Entity => &self.entity,
            Table::Relation => &self.relation,
        }
    }
}

/// Which of a shard's two gradient tables a reduce task covers.
#[derive(Clone, Copy)]
enum Table {
    Entity,
    Relation,
}

/// One reduce task's buffers, reused from batch to batch.
#[derive(Default)]
struct ReduceScratch {
    /// The range's gathered contributions, `(row << 32 | shard, slot)`.
    entries: Vec<(u64, u32)>,
    /// The tree operands of one row's window: one `dim`-row per
    /// contributing shard, and its leaf (shard index in the window).
    operands: Vec<f32>,
    leaves: Vec<usize>,
    /// The reduced gradient of the row being applied.
    sum: Vec<f32>,
    /// Under [`LossMode::Full`] with several super-steps: the running
    /// batch total of this range's rows, and which rows it holds.
    carry: Vec<f32>,
    carried: Vec<bool>,
}

/// Reusable per-shard accumulators for [`train_minibatch_parallel`] —
/// one set per trainer, sized lazily (the sharded step's analogue of
/// [`crate::block::BlockScratch`]).
#[derive(Default)]
pub struct GradShards {
    /// Shard buffers: every shard of a neg-sampling batch, or the window
    /// one [`LossMode::Full`] super-step accumulates into.
    shards: Vec<UnsafeCell<Shard>>,
    /// One scratch per reduce task: entity ranges, then relation ranges.
    reduce: Vec<UnsafeCell<ReduceScratch>>,
}

impl GradShards {
    /// Fresh accumulator set; shards are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

fn grow<T: Default>(cells: &mut Vec<UnsafeCell<T>>, n: usize) {
    while cells.len() < n {
        cells.push(UnsafeCell::new(T::default()));
    }
}

/// Per-task cells shared with the pool: task `k` of a dispatch reaches
/// cell `k` only.
struct TaskCells<'a, T>(&'a [UnsafeCell<T>]);
// SAFETY: cells are reached only through `get_mut`, whose caller is the
// cell's sole accessor, or `get`, whose caller guarantees no writer;
// `T: Send + Sync` lets a `&mut T` move to and a `&T` be shared with
// the executing thread.
// audit:allow(W406): per-index exclusive access under the pool barrier
unsafe impl<T: Send + Sync> Sync for TaskCells<'_, T> {}

impl<T> TaskCells<'_, T> {
    /// Cell `k`, mutably. Accessed through a method so closures capture
    /// the `Sync` wrapper, not its non-Sync field (edition 2021 closures
    /// capture fields precisely).
    ///
    /// # Safety
    ///
    /// The caller must be the sole accessor of cell `k` for the
    /// lifetime of the returned borrow.
    // SAFETY: sound under that contract; a dispatch's task `k` runs on
    // exactly one executor.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, k: usize) -> &mut T {
        // SAFETY: exclusivity is the caller's contract (doc above).
        unsafe { &mut *self.0[k].get() }
    }

    /// Cell `k`, shared.
    ///
    /// # Safety
    ///
    /// No `get_mut` borrow of cell `k` may be live while the returned
    /// borrow is.
    // SAFETY: sound under that contract; shared reads of a cell that no
    // one writes do not race.
    unsafe fn get(&self, k: usize) -> &T {
        // SAFETY: the absence of writers is the caller's contract.
        unsafe { &*self.0[k].get() }
    }
}

/// The reduction shape of one super-step: its shards are
/// `step_base .. step_base + count` of the batch, summed in windows of
/// `window` shards.
struct Pass {
    step_base: usize,
    count: usize,
    window: usize,
    /// The batch's first and last super-step (both for a single one).
    first: bool,
    last: bool,
    dim: usize,
}

/// Sum one window's contributions to a row the way the stride-doubling
/// merge `s[i] += s[i + stride]` (stride 1, 2, 4, …) over the window's
/// shards does. `operands` holds one `dim`-wide row per contributing
/// shard, `leaves` their window positions, ascending. Each level pairs
/// siblings: both present add left + right, a left child alone passes
/// up unchanged, and a right child alone lands in a fresh zero row
/// (`0.0 + x`). The sum ends in `operands[..dim]`.
fn window_tree(operands: &mut [f32], leaves: &mut [usize], dim: usize) {
    let mut n = leaves.len();
    while n > 1 || leaves[0] != 0 {
        let (mut j, mut a) = (0, 0);
        while a < n {
            let parent = leaves[a] >> 1;
            let pair = a + 1 < n && leaves[a + 1] >> 1 == parent;
            if j != a {
                operands.copy_within(a * dim..(a + 1) * dim, j * dim);
            }
            let (head, tail) = operands.split_at_mut((j + 1) * dim);
            let dst = &mut head[j * dim..];
            if pair {
                let src = &tail[(a - j) * dim..(a - j + 1) * dim];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
                a += 2;
            } else {
                if leaves[a] & 1 == 1 {
                    // `0.0 + x`: turns `-0.0` into `+0.0`, like the zero
                    // row a lone right operand used to be added to.
                    for d in dst.iter_mut() {
                        *d += 0.0;
                    }
                }
                a += 1;
            }
            leaves[j] = parent;
            j += 1;
        }
        n = j;
    }
}

/// Fold one row's contributions — `(shard, row)` pairs of this
/// super-step in ascending shard order, each as wide as `total` — into
/// `total`: each window's tree sum in ascending window order, the first
/// landing in a zero total (`0.0 + t`) unless `present` says `total`
/// already holds some. Returns whether `total` holds a sum.
fn reduce_row<'s>(
    contribs: impl Iterator<Item = (usize, &'s [f32])>,
    pass: &Pass,
    operands: &mut Vec<f32>,
    leaves: &mut Vec<usize>,
    total: &mut [f32],
    mut present: bool,
) -> bool {
    let width = total.len();
    let mut fold = |operands: &mut Vec<f32>, leaves: &mut Vec<usize>, present: bool| {
        window_tree(operands, leaves, width);
        let t = &operands[..width];
        if present {
            for (a, &v) in total.iter_mut().zip(t) {
                *a += v;
            }
        } else {
            for (a, &v) in total.iter_mut().zip(t) {
                *a = 0.0 + v;
            }
        }
        operands.clear();
        leaves.clear();
    };
    let mut window = None;
    for (k, x) in contribs {
        let s = pass.step_base + k;
        if window.is_some_and(|w| w != s / pass.window) {
            fold(operands, leaves, present);
            present = true;
        }
        window = Some(s / pass.window);
        operands.extend_from_slice(x);
        leaves.push(s % pass.window);
    }
    if window.is_some() {
        fold(operands, leaves, present);
        present = true;
    }
    present
}

/// Reduce rows `lo..hi` — reduce range `range` of `table` — over the
/// super-step's shards, then apply them through `opt` (a single
/// super-step) or fold them into the range's running total (several;
/// the last one applies the total).
#[allow(clippy::too_many_arguments)]
fn reduce_range(
    shards: &TaskCells<'_, Shard>,
    table: Table,
    range: usize,
    lo: usize,
    hi: usize,
    pass: &Pass,
    scratch: &mut ReduceScratch,
    opt: &mut AdagradRange<'_>,
) {
    // SAFETY: the gradient dispatch is over; until the next batch the
    // shards are only read.
    let shard = |k: usize| unsafe { shards.get(k) }.table(table);
    let dim = pass.dim;
    let ReduceScratch {
        entries,
        operands,
        leaves,
        sum,
        carry,
        carried,
    } = scratch;
    let direct = pass.first && pass.last;
    // The widest row (a dense block) and the most contributions one row
    // can have bound the tree buffers, so a warm task never allocates.
    let width = dim * if shard(0).dense { DENSE_BLOCK_ROWS } else { 1 };
    operands.reserve(pass.count * width);
    leaves.reserve(pass.count);
    sum.reserve(width.saturating_sub(sum.len()));
    if !direct && pass.first {
        carry.clear();
        carry.resize((hi - lo) * dim, 0.0);
        carried.clear();
        carried.resize(hi - lo, false);
    }
    // Reduce `rows` — one row, or a dense block reduced as one wide
    // row — from their `len` contributions, then apply them now or fold
    // them into the carried total.
    let mut finish =
        |rows: Range<usize>, len: usize, contribs: &mut dyn Iterator<Item = (usize, &[f32])>| {
            let (a, b) = ((rows.start - lo) * dim, (rows.end - lo) * dim);
            let (total, present) = if direct {
                sum.resize(b - a, 0.0);
                (&mut sum[..], false)
            } else {
                (&mut carry[a..b], carried[rows.start - lo])
            };
            let held = if len == 1 && !present {
                // Direct path: whatever the shard's place in its window,
                // the tree and the fold make a lone contribution `0.0 + x`
                // (adding `0.0` twice equals adding it once).
                for (_, x) in contribs {
                    for (t, &v) in total.iter_mut().zip(x) {
                        *t = 0.0 + v;
                    }
                }
                true
            } else {
                reduce_row(contribs, pass, operands, leaves, total, present)
            };
            if !direct {
                carried[rows.start - lo..rows.end - lo].fill(held);
            } else if held {
                for (row, g) in rows.zip(total.chunks_exact(dim)) {
                    opt.step_at(row * dim, g);
                }
            }
        };

    if shard(0).dense {
        // A Full-mode entity table: every shard holds every row.
        for block in (lo..hi).step_by(DENSE_BLOCK_ROWS) {
            let end = (block + DENSE_BLOCK_ROWS).min(hi);
            let mut contribs = (0..pass.count).map(|k| (k, shard(k).rows_at(block..end)));
            finish(block..end, pass.count, &mut contribs);
        }
    } else {
        entries.clear();
        let n: usize = (0..pass.count)
            .map(|k| shard(k).range_entries(range).len())
            .sum();
        if entries.capacity() < n {
            // Slack: a range's share of the next batches varies a little.
            entries.reserve(2 * n);
        }
        for k in 0..pass.count {
            for &e in shard(k).range_entries(range) {
                entries.push((e >> 32 << 32 | k as u64, e as u32));
            }
        }
        entries.sort_unstable_by_key(|e| e.0);
        let mut run = entries.as_slice();
        while let Some(&(key, _)) = run.first() {
            let len = run.iter().take_while(|e| e.0 >> 32 == key >> 32).count();
            let mut contribs = run[..len].iter().map(|&(key, slot)| {
                let k = key as u32 as usize;
                (k, shard(k).rows_at(slot as usize..slot as usize + 1))
            });
            let row = (key >> 32) as usize;
            finish(row..row + 1, len, &mut contribs);
            run = &run[len..];
        }
    }

    if pass.last && !direct {
        for (i, _) in carried.iter().enumerate().filter(|&(_, &held)| held) {
            opt.step_at((lo + i) * dim, &carry[i * dim..(i + 1) * dim]);
        }
    }
}

/// One data-parallel pass over a minibatch under [`LossMode::Full`] or
/// [`LossMode::NegSampling`]: shard gradients on the pool, then a
/// second dispatch that reduces and applies them by row range. Returns
/// the mean per-side loss.
///
/// Bit-identical for every pool size — see the module docs for the
/// argument. N3 regularisation (`n3_lambda > 0`) is folded into the
/// batch gradient. `neg` supplies the filtered-negative context for
/// [`LossMode::NegSampling`]; `None` falls back to target-excluded
/// uniform sampling.
///
/// # Panics
///
/// Under [`LossMode::Sampled`], which trains on
/// [`crate::block::train_minibatch`].
#[allow(clippy::too_many_arguments)]
pub fn train_minibatch_parallel(
    model: &BlockModel,
    emb: &mut Embeddings,
    opt_entity: &mut Adagrad,
    opt_relation: &mut Adagrad,
    batch: &[Triple],
    mode: LossMode,
    neg: Option<&NegCtx>,
    n3_lambda: f32,
    rng: &mut Rng,
    pool: &ThreadPool,
    state: &mut GradShards,
) -> f32 {
    // Full-softmax shards are dense, so only a bounded window of them
    // is live at once and the batch runs as super-steps over that
    // window; sparse shards all stay live. `window` fixes the reduction
    // shape. Both are machine-independent constants, keeping the shape
    // a pure function of the batch length.
    let window = match mode {
        LossMode::Full => FULL_LIVE_SHARDS,
        LossMode::NegSampling { .. } => NEG_WINDOW_SHARDS,
        LossMode::Sampled { .. } => panic!(
            "train_minibatch_parallel trains LossMode::Full and LossMode::NegSampling; \
             LossMode::Sampled trains on train_minibatch"
        ),
    };
    if batch.is_empty() {
        return 0.0;
    }
    let dim = emb.dim();
    let num_shards = batch.len().div_ceil(SHARD_TRIPLES);
    let _step = eras_obs::span!("train.step", triples = batch.len(), shards = num_shards);
    let live = match mode {
        LossMode::Full => FULL_LIVE_SHARDS.min(num_shards),
        _ => num_shards,
    };
    let (num_entities, num_relations) = (emb.num_entities(), emb.num_relations());
    let (ent_per, ent_ranges) = range_split(num_entities);
    let (rel_per, rel_ranges) = range_split(num_relations);
    let GradShards { shards, reduce } = state;
    grow(shards, live);
    grow(reduce, ent_ranges + rel_ranges);
    // One parent draw per batch; shard RNGs derive from (base, s) the
    // same way `Rng::fork` mixes streams, so the negative samples a
    // shard draws are a function of the shard index alone.
    let base = rng.next_u64();

    let mut loss = 0.0f32;
    let mut sides = 0u32;
    let mut step_base = 0;
    while step_base < num_shards {
        let count = live.min(num_shards - step_base);
        let pass = Pass {
            step_base,
            count,
            window,
            first: step_base == 0,
            last: step_base + count == num_shards,
            dim,
        };
        {
            let _grad = eras_obs::span!("train.step.grad");
            let emb_ref: &Embeddings = emb;
            let cells = TaskCells(&shards[..count]);
            let cells_ref = &cells;
            pool.run(count, |k| {
                // SAFETY: task `k` is the sole accessor of buffer `k`.
                let shard = unsafe { cells_ref.get_mut(k) };
                let s = step_base + k;
                let lo = s * SHARD_TRIPLES;
                let hi = (lo + SHARD_TRIPLES).min(batch.len());
                let mut srng =
                    Rng::seed_from_u64(base ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                shard.accumulate(
                    model,
                    emb_ref,
                    &batch[lo..hi],
                    mode,
                    neg,
                    n3_lambda,
                    &mut srng,
                );
            });
        }

        // Shard losses take the gradients' shape: a tree per window,
        // windows added in ascending order.
        for win in shards[..count].chunks_mut(window) {
            let mut stride = 1;
            while stride < win.len() {
                let mut i = 0;
                while i + stride < win.len() {
                    let add = win[i + stride].get_mut().loss;
                    win[i].get_mut().loss += add;
                    i += 2 * stride;
                }
                stride *= 2;
            }
            loss += win[0].get_mut().loss;
            sides += win.iter_mut().map(|c| c.get_mut().sides).sum::<u32>();
        }

        let _reduce = eras_obs::span!("train.step.reduce");
        let cells = TaskCells(&shards[..count]);
        let scratch = TaskCells(&reduce[..ent_ranges + rel_ranges]);
        let ent_opt = opt_entity.ranges(emb.entity.as_mut_slice(), ent_per * dim);
        let rel_opt = opt_relation.ranges(emb.relation.as_mut_slice(), rel_per * dim);
        let (cells, scratch, ent_opt, rel_opt, pass) =
            (&cells, &scratch, &ent_opt, &rel_opt, &pass);
        pool.run(ent_ranges + rel_ranges, |k| {
            // SAFETY: task `k` is the sole accessor of scratch `k` and of
            // its table's range view; the shards are only read.
            let scratch = unsafe { scratch.get_mut(k) };
            if k < ent_ranges {
                let lo = k * ent_per;
                let hi = (lo + ent_per).min(num_entities);
                // SAFETY: as above — range `k` has no other view.
                let mut opt = unsafe { ent_opt.range(k) };
                reduce_range(cells, Table::Entity, k, lo, hi, pass, scratch, &mut opt);
            } else {
                let r = k - ent_ranges;
                let lo = r * rel_per;
                let hi = (lo + rel_per).min(num_relations);
                // SAFETY: as above — range `r` has no other view.
                let mut opt = unsafe { rel_opt.range(r) };
                reduce_range(cells, Table::Relation, r, lo, hi, pass, scratch, &mut opt);
            }
        });
        step_base += count;
    }
    // Divide by the sides actually trained: 2·len for every mode but
    // Bernoulli corruption, which draws one side per triple.
    loss / sides.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::evaluate_loss;
    use crate::loss::Corruption;
    use eras_data::FilterIndex;
    use eras_linalg::Adagrad;
    use eras_sf::zoo;

    fn planted(n: usize) -> Vec<Triple> {
        (0..n as u32)
            .map(|i| Triple::new(i % 40, i % 3, (i * 7 + 1) % 40))
            .collect()
    }

    /// Triples spread over `entities` rows, so that most gradient rows
    /// of a batch come from a single shard.
    fn spread(n: usize, entities: usize) -> Vec<Triple> {
        let e = entities as u64;
        (0..n as u64)
            .map(|i| {
                let head = (i * 7_919 + 3) % e;
                let tail = (i * 104_729 + 17) % e;
                Triple::new(head as u32, (i % 3) as u32, tail as u32)
            })
            .collect()
    }

    /// Everything a data-parallel run leaves behind.
    struct Run {
        emb: Embeddings,
        loss: f32,
        opt_e: Adagrad,
        opt_r: Adagrad,
    }

    impl Run {
        /// FNV-1a over the bits of the loss, both tables and both
        /// Adagrad accumulators, chained onto `h`.
        fn hash(&self, mut h: u64) -> u64 {
            let words = std::iter::once(self.loss)
                .chain(self.emb.entity.as_slice().iter().copied())
                .chain(self.emb.relation.as_slice().iter().copied())
                .chain(self.opt_e.accumulator().iter().copied())
                .chain(self.opt_r.accumulator().iter().copied());
            for w in words {
                for b in w.to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
            h
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn run_training(
        pool_size: usize,
        mode: LossMode,
        n3: f32,
        data: &[Triple],
        entities: usize,
        steps: usize,
    ) -> Run {
        let pool = ThreadPool::new(pool_size);
        let mut rng = Rng::seed_from_u64(99);
        let mut emb = Embeddings::init(entities, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 3);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 1e-4);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 1e-4);
        let mut state = GradShards::new();
        let filter = FilterIndex::from_triples(data.iter().copied());
        let neg_ctx = match mode {
            LossMode::NegSampling {
                corruption: Corruption::Bernoulli,
                ..
            } => NegCtx::bernoulli(&filter, data, 3),
            _ => NegCtx::uniform(&filter),
        };
        let neg = matches!(mode, LossMode::NegSampling { .. }).then_some(&neg_ctx);
        let mut loss = 0.0;
        for _ in 0..steps {
            loss = train_minibatch_parallel(
                &model, &mut emb, &mut opt_e, &mut opt_r, data, mode, neg, n3, &mut rng, &pool,
                &mut state,
            );
        }
        Run {
            emb,
            loss,
            opt_e,
            opt_r,
        }
    }

    const FULL: LossMode = LossMode::Full;
    const NEG_UNIFORM: LossMode = LossMode::NegSampling {
        negatives: 4,
        gamma: 6.0,
        adversarial_temp: 1.0,
        corruption: Corruption::Uniform,
    };
    const NEG_BERNOULLI: LossMode = LossMode::NegSampling {
        negatives: 4,
        gamma: 6.0,
        adversarial_temp: 0.0,
        corruption: Corruption::Bernoulli,
    };

    /// Every pool size must reproduce pool 1 bit for bit, and pool 1
    /// must reproduce the pins: one FNV-1a hash per mode over its runs
    /// with N3 on and off, one set per kernel path (`laned`, or
    /// `scalar` under the `scalar-kernels` feature). The pins were taken
    /// from the serial stride-doubling shard merge this module used
    /// before its reduction moved onto the pool; a reduction rewrite
    /// that moves any sum, for every pool size alike, fails here.
    fn assert_bit_identical_across_pool_sizes(
        data: &[Triple],
        entities: usize,
        steps: usize,
        modes: &[LossMode],
        laned: &[u64],
        scalar: &[u64],
    ) {
        let mut got = Vec::new();
        for &mode in modes {
            let mut h = FNV_OFFSET;
            for n3 in [1e-3, 0.0] {
                let reference = run_training(1, mode, n3, data, entities, steps);
                for threads in [2usize, 3, 8] {
                    let run = run_training(threads, mode, n3, data, entities, steps);
                    assert_eq!(
                        reference.emb.entity.as_slice(),
                        run.emb.entity.as_slice(),
                        "entity table diverged at {threads} threads ({mode:?}, n3 {n3})"
                    );
                    assert_eq!(
                        reference.emb.relation.as_slice(),
                        run.emb.relation.as_slice(),
                        "relation table diverged at {threads} threads ({mode:?}, n3 {n3})"
                    );
                    assert_eq!(
                        reference.opt_e.accumulator(),
                        run.opt_e.accumulator(),
                        "entity Adagrad state diverged at {threads} threads ({mode:?}, n3 {n3})"
                    );
                    assert_eq!(
                        reference.opt_r.accumulator(),
                        run.opt_r.accumulator(),
                        "relation Adagrad state diverged at {threads} threads ({mode:?}, n3 {n3})"
                    );
                    assert_eq!(
                        reference.loss.to_bits(),
                        run.loss.to_bits(),
                        "loss diverged at {threads} threads ({mode:?}, n3 {n3})"
                    );
                }
                h = reference.hash(h);
            }
            got.push(h);
        }
        let pinned = if eras_linalg::vecops::SCALAR_KERNELS {
            scalar
        } else {
            laned
        };
        assert_eq!(got, pinned, "pinned step bits moved ({modes:?})");
    }

    #[test]
    fn bit_identical_across_pool_sizes() {
        assert_bit_identical_across_pool_sizes(
            &planted(100),
            40,
            10,
            &[FULL, NEG_UNIFORM, NEG_BERNOULLI],
            &[
                12107767735115302002,
                15642582198556770205,
                15236889486692239453,
            ],
            &[
                13408359156766372616,
                1588856563078862782,
                12466119588395299643,
            ],
        );
    }

    #[test]
    fn bit_identical_across_pool_sizes_with_multiple_super_steps() {
        // 300 triples → 10 shards → two Full-mode super-steps over the
        // 8-wide window (the second with a partial count): the in-step
        // tree plus the cross-step fold must stay a pure function of
        // the batch length, for full and partial windows alike.
        assert!(300usize.div_ceil(SHARD_TRIPLES) > FULL_LIVE_SHARDS);
        assert_bit_identical_across_pool_sizes(
            &planted(300),
            40,
            3,
            &[FULL, NEG_UNIFORM, NEG_BERNOULLI],
            &[
                15199976370169404798,
                10894619073778243375,
                10152131419250626473,
            ],
            &[
                2878230957445943059,
                4522471306089379934,
                10152131419250626473,
            ],
        );
    }

    #[test]
    fn bit_identical_across_pool_sizes_with_mostly_distinct_rows() {
        // 1 024 triples over 50 000 entities: 32 shards whose sampled
        // rows rarely meet, so most reduced rows have a single source
        // shard. (Full mode touches every row from every shard, so the
        // 40-entity cases above already cover it.)
        assert_bit_identical_across_pool_sizes(
            &spread(1024, 50_000),
            50_000,
            2,
            &[NEG_UNIFORM, NEG_BERNOULLI],
            &[10103468872417430728, 9333753245579857504],
            &[10101299106289858510, 9333753245579857504],
        );
    }

    #[test]
    fn full_mode_learns() {
        let pool = ThreadPool::new(4);
        let mut rng = Rng::seed_from_u64(7);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 3);
        let data = planted(60);
        let before = evaluate_loss(&model, &emb, &data);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.2, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.2, 0.0);
        let mut state = GradShards::new();
        for _ in 0..40 {
            train_minibatch_parallel(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                LossMode::Full,
                None,
                0.0,
                &mut rng,
                &pool,
                &mut state,
            );
        }
        let after = evaluate_loss(&model, &emb, &data);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn neg_sampling_mode_learns() {
        let pool = ThreadPool::new(4);
        let mut rng = Rng::seed_from_u64(13);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 3);
        let data = planted(60);
        let filter = FilterIndex::from_triples(data.iter().copied());
        let neg_ctx = NegCtx::uniform(&filter);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.2, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.2, 0.0);
        let mut state = GradShards::new();
        let mode = LossMode::NegSampling {
            negatives: 8,
            gamma: 4.0,
            adversarial_temp: 1.0,
            corruption: Corruption::Uniform,
        };
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            last = train_minibatch_parallel(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                mode,
                Some(&neg_ctx),
                0.0,
                &mut rng,
                &pool,
                &mut state,
            );
            if step == 0 {
                first = last;
            }
        }
        assert!(last < first * 0.8, "neg-sampling loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "LossMode::Sampled trains on train_minibatch")]
    fn sampled_mode_is_rejected() {
        let pool = ThreadPool::new(1);
        let mut rng = Rng::seed_from_u64(11);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::simple(), 3);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.2, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.2, 0.0);
        train_minibatch_parallel(
            &model,
            &mut emb,
            &mut opt_e,
            &mut opt_r,
            &planted(60),
            LossMode::Sampled { negatives: 8 },
            None,
            0.0,
            &mut rng,
            &pool,
            &mut GradShards::new(),
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ThreadPool::new(2);
        let mut rng = Rng::seed_from_u64(0);
        let mut emb = Embeddings::init(8, 2, 8, &mut rng);
        let before = emb.entity.as_slice().to_vec();
        let model = BlockModel::universal(zoo::distmult(4), 2);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 0.0);
        let mut state = GradShards::new();
        let loss = train_minibatch_parallel(
            &model,
            &mut emb,
            &mut opt_e,
            &mut opt_r,
            &[],
            LossMode::Full,
            None,
            0.0,
            &mut rng,
            &pool,
            &mut state,
        );
        assert_eq!(loss, 0.0);
        assert_eq!(emb.entity.as_slice(), &before[..]);
    }
}
