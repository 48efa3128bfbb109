//! ERAS search hyperparameters (Section V-A2 of the paper), plus the
//! structured configuration diagnostics behind `eras audit`'s config
//! pass: every check emits a [`ConfigDiagnostic`] with a stable code
//! (`E3xx` errors, `W3xx` warnings — catalogued in `docs/audit.md`), a
//! severity, and the offending field path, so bad configurations fail in
//! milliseconds with a machine-readable report instead of mid-run.

use eras_train::trainer::TrainConfig;
use eras_train::LossMode;
use std::fmt;

/// How bad a configuration finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never fails validation.
    Info,
    /// Suspicious but runnable; fails `eras audit --deny warnings`.
    Warning,
    /// The run would be wrong or would panic; always fails validation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structured finding from configuration validation.
#[derive(Debug, Clone)]
pub struct ConfigDiagnostic {
    /// Stable diagnostic code (`E301`, `W321`, …).
    pub code: &'static str,
    /// Severity level.
    pub severity: Severity,
    /// Dotted path of the offending field (e.g. `retrain.dim`).
    pub field: &'static str,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl fmt::Display for ConfigDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.field, self.message
        )
    }
}

/// Collector used by the validation passes below.
struct Diags(Vec<ConfigDiagnostic>);

impl Diags {
    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        field: &'static str,
        message: String,
    ) {
        self.0.push(ConfigDiagnostic {
            code,
            severity,
            field,
            message,
        });
    }

    fn error(&mut self, code: &'static str, field: &'static str, message: String) {
        self.push(code, Severity::Error, field, message);
    }

    fn warn(&mut self, code: &'static str, field: &'static str, message: String) {
        self.push(code, Severity::Warning, field, message);
    }
}

/// Structured diagnostics for a stand-alone [`TrainConfig`], reported
/// under a field-path prefix (`""` for a bare config, `"retrain."` when
/// embedded in an [`ErasConfig`]).
fn train_config_diagnostics(cfg: &TrainConfig, prefix: &'static str, out: &mut Diags) {
    // Field paths are static so diagnostics stay allocation-light; the
    // two possible prefixes are known at compile time.
    let path = |bare: &'static str, prefixed: &'static str| -> &'static str {
        if prefix.is_empty() {
            bare
        } else {
            prefixed
        }
    };
    if cfg.dim == 0 {
        out.error(
            "E303",
            path("dim", "retrain.dim"),
            "embedding dimension must be positive".into(),
        );
    }
    if !(cfg.lr.is_finite() && cfg.lr > 0.0) {
        out.error(
            "E305",
            path("lr", "retrain.lr"),
            format!("learning rate must be finite and positive, got {}", cfg.lr),
        );
    }
    if !(cfg.l2.is_finite() && cfg.l2 >= 0.0) {
        out.error(
            "E306",
            path("l2", "retrain.l2"),
            format!("L2 penalty must be finite and non-negative, got {}", cfg.l2),
        );
    }
    if !(cfg.n3.is_finite() && cfg.n3 >= 0.0) {
        out.error(
            "E306",
            path("n3", "retrain.n3"),
            format!(
                "N3 strength must be finite and non-negative, got {}",
                cfg.n3
            ),
        );
    }
    if !(cfg.decay_rate.is_finite() && cfg.decay_rate > 0.0) {
        out.error(
            "E305",
            path("decay_rate", "retrain.decay_rate"),
            format!(
                "learning-rate decay must be finite and positive, got {}",
                cfg.decay_rate
            ),
        );
    } else if cfg.decay_rate > 1.0 {
        out.warn(
            "W323",
            path("decay_rate", "retrain.decay_rate"),
            format!(
                "decay_rate {} > 1 grows the learning rate every epoch",
                cfg.decay_rate
            ),
        );
    }
    for (value, bare, prefixed) in [
        (cfg.batch_size, "batch_size", "retrain.batch_size"),
        (cfg.max_epochs, "max_epochs", "retrain.max_epochs"),
        (cfg.eval_every, "eval_every", "retrain.eval_every"),
        (cfg.patience, "patience", "retrain.patience"),
    ] {
        if value == 0 {
            out.error(
                "E303",
                path(bare, prefixed),
                "count must be positive".into(),
            );
        }
    }
    if let LossMode::Sampled { negatives } = cfg.loss {
        if negatives == 0 {
            out.error(
                "E310",
                path("loss", "retrain.loss"),
                "sampled loss mode needs at least one negative".into(),
            );
        }
    }
}

/// Everything Algorithm 2 needs besides the dataset.
#[derive(Debug, Clone)]
pub struct ErasConfig {
    /// Blocks per embedding `M` (the paper fixes 4; Figure 7 sweeps 3–5).
    pub m: usize,
    /// Relation groups `N` (Figure 6 sweeps 1–5; `N = 1` is ERAS^{N=1}).
    pub n_groups: usize,
    /// Shared-embedding dimension during search.
    pub dim: usize,
    /// Search epochs (outer iterations of Algorithm 2).
    pub epochs: usize,
    /// Training minibatch size for the shared-embedding updates.
    pub batch_size: usize,
    /// Architectures sampled per controller update (`U` in Eqs. 7/9).
    pub u_samples: usize,
    /// Architectures sampled per *embedding* minibatch (the `U` of Eq. 9).
    /// 1 gives the cheap ENAS-style single-sample estimator; larger values
    /// average the gradient over several sampled scoring functions by
    /// replaying the minibatch, which is the paper's literal formulation.
    pub emb_samples: usize,
    /// Controller (REINFORCE / dif) updates performed per epoch.
    pub ctrl_updates_per_epoch: usize,
    /// Validation minibatch size for one-shot rewards.
    pub val_batch: usize,
    /// Adagrad learning rate for the shared embeddings.
    pub emb_lr: f32,
    /// L2 penalty on embeddings.
    pub emb_l2: f32,
    /// Adam learning rate for the LSTM controller.
    pub ctrl_lr: f32,
    /// Controller hidden width.
    pub ctrl_hidden: usize,
    /// Controller token-embedding width.
    pub ctrl_embed: usize,
    /// REINFORCE baseline decay.
    pub baseline_decay: f64,
    /// Initial logit bias on the Zero op. Positive values start the
    /// policy in the sparse-grid regime where good scoring functions live
    /// (DistMult: 4/16 non-zero, ComplEx: 8/16).
    pub zero_op_bias: f32,
    /// Sampling temperature for exploration during search.
    pub temperature: f32,
    /// Loss mode for shared-embedding training: the sampled loss (the
    /// "cheap" inner loop) is the only one its sequential step trains;
    /// any other is a config error (`E311`).
    pub search_loss: LossMode,
    /// Run EM re-clustering every this many epochs.
    pub em_every: usize,
    /// Architectures sampled when deriving the final `{f_n}` (step 8,
    /// `K`).
    pub derive_k: usize,
    /// How many of the top one-shot candidates get a short stand-alone
    /// screening run ([`ErasConfig::screen_epochs`] of the retrain)
    /// before the final winner is chosen; the winner's run then
    /// continues to the full retrain. This is Table IX's "evaluation"
    /// phase.
    pub derive_screen: usize,
    /// Keep an elite archive of the best architectures seen during search
    /// and offer them as derivation candidates. An implementation choice
    /// of this reproduction (see DESIGN.md); the `ablation_impl` bench
    /// measures its effect.
    pub use_archive: bool,
    /// Configuration for the final stand-alone retraining (step 12).
    pub retrain: TrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for ErasConfig {
    fn default() -> Self {
        ErasConfig {
            m: 4,
            n_groups: 3,
            dim: 32,
            epochs: 30,
            batch_size: 256,
            u_samples: 4,
            emb_samples: 1,
            ctrl_updates_per_epoch: 4,
            val_batch: 64,
            emb_lr: 0.1,
            emb_l2: 1e-4,
            ctrl_lr: 0.01,
            ctrl_hidden: 32,
            ctrl_embed: 16,
            baseline_decay: 0.9,
            zero_op_bias: 2.0,
            temperature: 1.0,
            search_loss: LossMode::sampled_default(),
            em_every: 1,
            derive_k: 8,
            derive_screen: 3,
            use_archive: true,
            retrain: TrainConfig::default(),
            seed: 0,
        }
    }
}

impl ErasConfig {
    /// A configuration small enough for unit tests and the quickstart
    /// example (a few seconds on the `Tiny` preset).
    pub fn fast() -> Self {
        ErasConfig {
            dim: 16,
            epochs: 10,
            batch_size: 128,
            u_samples: 4,
            emb_samples: 1,
            ctrl_updates_per_epoch: 6,
            val_batch: 48,
            derive_k: 6,
            derive_screen: 3,
            use_archive: true,
            retrain: TrainConfig {
                dim: 16,
                max_epochs: 20,
                eval_every: 5,
                patience: 3,
                ..TrainConfig::default()
            },
            ..ErasConfig::default()
        }
    }

    /// Epochs each short-listed candidate trains before the winner is
    /// picked: a third of the retrain budget, at least 3 and at least
    /// `retrain.eval_every` (a screen shorter than the validation
    /// interval never validates, and every candidate would score 0),
    /// rounded down to the last validation (later epochs cannot change
    /// a candidate's score), but never more than the retrain itself.
    pub fn screen_epochs(&self) -> usize {
        let retrain = &self.retrain;
        let every = retrain.eval_every.max(1);
        let budget = (retrain.max_epochs / 3).max(3).max(every);
        (budget - budget % every).min(retrain.max_epochs)
    }

    /// Structured validation: every internal-consistency check as a
    /// [`ConfigDiagnostic`] with a stable code, severity, and field path.
    /// An empty result means the configuration is clean; [`Self::validate`]
    /// is the backwards-compatible first-error wrapper.
    pub fn diagnostics(&self) -> Vec<ConfigDiagnostic> {
        let mut out = Diags(Vec::new());
        if self.m == 0 {
            out.error("E304", "m", "block count M must be positive".into());
        } else {
            if !self.dim.is_multiple_of(self.m) {
                out.error(
                    "E301",
                    "dim",
                    format!("dim {} not divisible by M={}", self.dim, self.m),
                );
            }
            if !self.retrain.dim.is_multiple_of(self.m) {
                out.error(
                    "E302",
                    "retrain.dim",
                    format!(
                        "retrain dim {} not divisible by M={}",
                        self.retrain.dim, self.m
                    ),
                );
            }
            if self.m > 6 {
                // M! · 2^M canonicalization work per candidate explodes
                // past M = 6 (Section IV-B fixes M = 4).
                out.warn(
                    "W324",
                    "m",
                    format!(
                        "M={} makes canonicalization enumerate M!·2^M grid symmetries",
                        self.m
                    ),
                );
            }
        }
        for (value, field) in [
            (self.n_groups, "n_groups"),
            (self.dim, "dim"),
            (self.epochs, "epochs"),
            (self.batch_size, "batch_size"),
            (self.u_samples, "u_samples"),
            (self.emb_samples, "emb_samples"),
            (self.ctrl_updates_per_epoch, "ctrl_updates_per_epoch"),
            (self.val_batch, "val_batch"),
            (self.ctrl_hidden, "ctrl_hidden"),
            (self.ctrl_embed, "ctrl_embed"),
            (self.em_every, "em_every"),
            (self.derive_k, "derive_k"),
            (self.derive_screen, "derive_screen"),
        ] {
            if value == 0 {
                out.error("E303", field, "count must be positive".into());
            }
        }
        for (ok, field, value) in [
            (
                self.emb_lr.is_finite() && self.emb_lr > 0.0,
                "emb_lr",
                self.emb_lr,
            ),
            (
                self.ctrl_lr.is_finite() && self.ctrl_lr > 0.0,
                "ctrl_lr",
                self.ctrl_lr,
            ),
            (
                self.temperature.is_finite() && self.temperature > 0.0,
                "temperature",
                self.temperature,
            ),
        ] {
            if !ok {
                out.error(
                    "E305",
                    field,
                    format!("must be finite and positive, got {value}"),
                );
            }
        }
        if !(self.emb_l2.is_finite() && self.emb_l2 >= 0.0) {
            out.error(
                "E306",
                "emb_l2",
                format!(
                    "L2 penalty must be finite and non-negative, got {}",
                    self.emb_l2
                ),
            );
        }
        if !(self.baseline_decay.is_finite() && (0.0..1.0).contains(&self.baseline_decay)) {
            out.error(
                "E308",
                "baseline_decay",
                format!("must be in [0, 1), got {}", self.baseline_decay),
            );
        }
        if !self.zero_op_bias.is_finite() {
            out.error(
                "E307",
                "zero_op_bias",
                format!("must be finite, got {}", self.zero_op_bias),
            );
        }
        match self.search_loss {
            LossMode::Sampled { negatives: 0 } => out.error(
                "E310",
                "search_loss",
                "sampled loss mode needs at least one negative".into(),
            ),
            LossMode::Sampled { .. } => {}
            other => out.error(
                "E311",
                "search_loss",
                format!("the shared-embedding step trains the sampled loss only, got {other:?}"),
            ),
        }
        if self.derive_screen > self.derive_k && self.derive_k > 0 {
            out.warn(
                "W321",
                "derive_screen",
                format!(
                    "screening {} candidates but only {} are sampled (derive_k)",
                    self.derive_screen, self.derive_k
                ),
            );
        }
        if self.em_every > self.epochs && self.epochs > 0 {
            out.warn(
                "W322",
                "em_every",
                format!(
                    "re-clustering every {} epochs never happens in a {}-epoch search",
                    self.em_every, self.epochs
                ),
            );
        }
        train_config_diagnostics(&self.retrain, "retrain.", &mut out);
        out.0
    }

    /// Validate internal consistency (dim divisible by M, etc.).
    ///
    /// Backwards-compatible wrapper over [`Self::diagnostics`]: reports
    /// the first error-severity finding.
    pub fn validate(&self) -> Result<(), String> {
        match self
            .diagnostics()
            .into_iter()
            .find(|d| d.severity == Severity::Error)
        {
            Some(d) => Err(format!("[{}] {}: {}", d.code, d.field, d.message)),
            None => Ok(()),
        }
    }
}

/// Structured diagnostics for a bare [`TrainConfig`] (field paths without
/// the `retrain.` prefix).
pub fn train_diagnostics(cfg: &TrainConfig) -> Vec<ConfigDiagnostic> {
    let mut out = Diags(Vec::new());
    train_config_diagnostics(cfg, "", &mut out);
    out.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ErasConfig::default().validate().is_ok());
        assert!(ErasConfig::fast().validate().is_ok());
    }

    #[test]
    fn validation_catches_indivisible_dim() {
        let cfg = ErasConfig {
            dim: 30,
            ..ErasConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_counts() {
        let cfg = ErasConfig {
            n_groups: 0,
            ..ErasConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_configs_have_no_diagnostics() {
        assert!(ErasConfig::default().diagnostics().is_empty());
        assert!(ErasConfig::fast().diagnostics().is_empty());
        assert!(train_diagnostics(&TrainConfig::default()).is_empty());
    }

    #[test]
    fn diagnostics_carry_codes_and_fields() {
        let cfg = ErasConfig {
            dim: 30,
            ..ErasConfig::default()
        };
        let diags = cfg.diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E301");
        assert_eq!(diags[0].field, "dim");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("30"));
        // The wrapper surfaces the code too.
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("E301"), "{err}");
    }

    #[test]
    fn diagnostics_report_every_finding_not_just_the_first() {
        let cfg = ErasConfig {
            dim: 30,
            n_groups: 0,
            emb_lr: f32::NAN,
            baseline_decay: 1.5,
            ..ErasConfig::default()
        };
        let codes: Vec<&str> = cfg.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E301"), "{codes:?}");
        assert!(codes.contains(&"E303"), "{codes:?}");
        assert!(codes.contains(&"E305"), "{codes:?}");
        assert!(codes.contains(&"E308"), "{codes:?}");
    }

    #[test]
    fn retrain_findings_use_prefixed_field_paths() {
        let cfg = ErasConfig {
            retrain: TrainConfig {
                dim: 30,
                lr: -1.0,
                ..TrainConfig::default()
            },
            ..ErasConfig::default()
        };
        let diags = cfg.diagnostics();
        assert!(diags
            .iter()
            .any(|d| d.code == "E302" && d.field == "retrain.dim"));
        assert!(diags
            .iter()
            .any(|d| d.code == "E305" && d.field == "retrain.lr"));
    }

    #[test]
    fn warnings_do_not_fail_validate() {
        let cfg = ErasConfig {
            derive_screen: 50,
            ..ErasConfig::default()
        };
        let diags = cfg.diagnostics();
        assert!(diags.iter().any(|d| d.code == "W321"));
        assert!(diags.iter().all(|d| d.severity < Severity::Error));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_negative_sampled_loss_is_an_error() {
        let cfg = ErasConfig {
            search_loss: LossMode::Sampled { negatives: 0 },
            ..ErasConfig::default()
        };
        assert!(cfg.diagnostics().iter().any(|d| d.code == "E310"));
    }

    #[test]
    fn unsampled_search_loss_is_an_error() {
        let cfg = ErasConfig {
            search_loss: LossMode::Full,
            ..ErasConfig::default()
        };
        assert!(cfg.diagnostics().iter().any(|d| d.code == "E311"));
    }

    #[test]
    fn display_format_is_stable() {
        let d = ConfigDiagnostic {
            code: "E301",
            severity: Severity::Error,
            field: "dim",
            message: "dim 30 not divisible by M=4".into(),
        };
        assert_eq!(
            d.to_string(),
            "error [E301] dim: dim 30 not divisible by M=4"
        );
    }
}
