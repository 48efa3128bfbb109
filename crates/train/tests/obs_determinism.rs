//! Observability must observe, never participate: training outcomes
//! are bit-identical whether or not a tracer, echo, or profiler is
//! active, at every pool size — and in builds without `obs-hook` the
//! hooks compile out entirely.
//!
//! CI runs this file twice: once with `--features obs-hook` (the
//! traced-vs-untraced comparisons) and once without (the inert
//! checks). The two halves are feature-gated so each build exercises
//! its own contract.

use eras_data::{FilterIndex, Preset};
use eras_linalg::pool::ThreadPool;
use eras_sf::zoo;
use eras_train::trainer::{train_standalone_on, TrainConfig};
use eras_train::{BlockModel, Corruption, LossMode};

/// A neg-sampling run, so that the sharded step (shard tasks and the
/// row-range reduce on the pool) is the one under observation.
fn fast_cfg() -> TrainConfig {
    TrainConfig {
        dim: 16,
        max_epochs: 4,
        eval_every: 2,
        patience: 2,
        batch_size: 128,
        n3: 1e-3,
        loss: LossMode::NegSampling {
            negatives: 8,
            gamma: 6.0,
            adversarial_temp: 1.0,
            corruption: Corruption::Bernoulli,
        },
        ..TrainConfig::default()
    }
}

#[cfg(feature = "obs-hook")]
mod traced {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tracer installation across tests in this binary: the
    /// trace sink and echo flag are process-global.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    /// A shared in-memory sink for asserting on emitted JSONL.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn tracing_and_profiling_never_change_training() {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dataset = Preset::Tiny.build(11);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let cfg = fast_cfg();

        // Reference run: hooks compiled in, but no tracer installed.
        let pool = ThreadPool::new(1);
        let reference = train_standalone_on(&model, &dataset, &filter, &cfg, &pool);

        for threads in [1usize, 4] {
            // Full observability plane active: JSONL tracer + sampling
            // profiler, across single- and multi-threaded pools.
            let sink = SharedBuf::default();
            let traced = {
                let _guard = eras_obs::trace::install_writer(Box::new(sink.clone()));
                let profiler =
                    eras_obs::profile::start_sampler(std::time::Duration::from_millis(2));
                let pool = ThreadPool::new(threads);
                let outcome = train_standalone_on(&model, &dataset, &filter, &cfg, &pool);
                let _ = profiler.stop();
                outcome
            };
            assert_eq!(
                reference.embeddings.entity.as_slice(),
                traced.embeddings.entity.as_slice(),
                "entity embeddings drifted with tracing on ({threads} threads)"
            );
            assert_eq!(
                reference.embeddings.relation.as_slice(),
                traced.embeddings.relation.as_slice(),
                "relation embeddings drifted with tracing on ({threads} threads)"
            );
            assert_eq!(reference.final_loss, traced.final_loss);
            assert_eq!(reference.test.mrr, traced.test.mrr);
            assert_eq!(reference.best_valid.mrr, traced.best_valid.mrr);
            assert_eq!(reference.epochs_run, traced.epochs_run);

            // And the run actually produced a well-formed trace.
            let text = String::from_utf8(sink.0.lock().unwrap().clone()).expect("utf-8 trace");
            let records = eras_obs::summary::parse_trace(&text).expect("well-formed JSONL");
            assert!(
                records
                    .iter()
                    .any(|r| r.kind == "span" && r.name == "train.epoch"),
                "expected train.epoch spans in the trace"
            );
            assert!(
                records
                    .iter()
                    .any(|r| r.kind == "span" && r.name == "train.step"),
                "expected the sharded step's train.step spans in the trace"
            );
            assert!(
                records
                    .iter()
                    .any(|r| r.kind == "event" && r.name == "train.progress"),
                "expected train.progress events in the trace"
            );
        }
    }

    #[test]
    fn uninstalled_tracer_emits_nothing_and_costs_no_records() {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // With hooks compiled in but no sink installed, spans are
        // skipped at the `enabled()` branch: nothing accumulates.
        assert!(!eras_obs::trace::enabled());
        let _span = eras_obs::span!("test.noop", k = 1u64);
        eras_obs::event!("test.noop_event");
        assert!(!eras_obs::trace::enabled());
    }
}

#[cfg(not(feature = "obs-hook"))]
mod inert {
    use super::*;

    #[test]
    fn hooks_compile_out_without_the_feature() {
        // The macros expand to constant-false branches; installs are
        // no-ops returning inert guards.
        assert!(!eras_obs::trace::enabled());
        let _writer = eras_obs::trace::install_writer(Box::new(std::io::sink()));
        let _echo = eras_obs::trace::install_echo();
        assert!(
            !eras_obs::trace::enabled(),
            "installs must be inert without obs-hook"
        );
        let _span = eras_obs::span!("test.noop", k = 1u64);
        eras_obs::event!("test.noop_event");
    }

    #[test]
    fn training_runs_clean_with_inert_hooks() {
        // The instrumented trainer works identically when every hook
        // is compiled out; metrics (always on) still accumulate.
        let dataset = Preset::Tiny.build(11);
        let filter = FilterIndex::build(&dataset);
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let pool = ThreadPool::new(2);
        let epochs_before = eras_obs::metrics::global().counter("train.epochs").get();
        let outcome = train_standalone_on(&model, &dataset, &filter, &fast_cfg(), &pool);
        assert!(outcome.final_loss.is_finite());
        let epochs_after = eras_obs::metrics::global().counter("train.epochs").get();
        assert!(
            epochs_after >= epochs_before + outcome.epochs_run as u64,
            "the epoch counter must tick even in inert builds"
        );
    }
}
