//! Both training steps allocate nothing once warm. The sharded step's
//! shard, index and reduce buffers, and the sequential step's
//! [`BlockScratch`] (which `apply_n3` shares), are sized by the first
//! batches and reused.
//!
//! This binary installs a counting global allocator, so it holds this
//! one test. Allocations are counted per thread, and the sharded step
//! runs on a worker-less pool, which executes every task on the calling
//! thread.

use eras_data::{FilterIndex, Triple};
use eras_linalg::pool::ThreadPool;
use eras_linalg::{Adagrad, Rng};
use eras_sf::zoo;
use eras_train::block::{apply_n3, train_minibatch, BlockScratch};
use eras_train::parallel::{train_minibatch_parallel, GradShards};
use eras_train::{BlockModel, Corruption, Embeddings, LossMode, NegCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations can outlive this thread's locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by six `step`s after two warm-up steps.
fn allocations_when_warm(mut step: impl FnMut() -> f32) -> u64 {
    for _ in 0..2 {
        step();
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..6 {
        assert!(step().is_finite());
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_steps_allocate_nothing() {
    let entities = 500;
    let data: Vec<Triple> = (0..300u32)
        .map(|i| Triple::new(i * 37 % 500, i % 3, (i * 101 + 7) % 500))
        .collect();
    let filter = FilterIndex::from_triples(data.iter().copied());
    let uniform = NegCtx::uniform(&filter);
    let bernoulli = NegCtx::bernoulli(&filter, &data, 3);
    let model = BlockModel::universal(zoo::complex(), 3);
    let pool = ThreadPool::new(1);
    let neg = |corruption| LossMode::NegSampling {
        negatives: 8,
        gamma: 6.0,
        adversarial_temp: 1.0,
        corruption,
    };
    // The sharded step. 300 triples are ten shards: two Full-mode
    // super-steps.
    for (mode, ctx) in [
        (LossMode::Full, None),
        (neg(Corruption::Uniform), Some(&uniform)),
        (neg(Corruption::Bernoulli), Some(&bernoulli)),
    ] {
        for n3 in [0.0, 1e-3] {
            let mut rng = Rng::seed_from_u64(5);
            let mut emb = Embeddings::init(entities, 3, 16, &mut rng);
            let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 1e-4);
            let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 1e-4);
            let mut shards = GradShards::new();
            let allocated = allocations_when_warm(|| {
                train_minibatch_parallel(
                    &model,
                    &mut emb,
                    &mut opt_e,
                    &mut opt_r,
                    &data,
                    mode,
                    ctx,
                    n3,
                    &mut rng,
                    &pool,
                    &mut shards,
                )
            });
            assert_eq!(allocated, 0, "{mode:?} (n3 {n3}) allocated after warm-up");
        }
    }
    // The sequential step, followed by N3 when it is on.
    let mode = LossMode::Sampled { negatives: 8 };
    for n3 in [0.0, 1e-3] {
        let mut rng = Rng::seed_from_u64(5);
        let mut emb = Embeddings::init(entities, 3, 16, &mut rng);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 1e-4);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 1e-4);
        let mut scratch = BlockScratch::new();
        let allocated = allocations_when_warm(|| {
            let loss = train_minibatch(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                mode,
                None,
                &mut rng,
                &mut scratch,
            );
            if n3 > 0.0 {
                apply_n3(&mut emb, &mut opt_e, &mut opt_r, &data, n3, &mut scratch);
            }
            loss
        });
        assert_eq!(allocated, 0, "{mode:?} (n3 {n3}) allocated after warm-up");
    }
}
