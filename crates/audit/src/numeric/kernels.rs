//! Kernel-side numeric checks, built on the flow pass's token model.
//!
//! Three contracts tie the abstract SF certificates to the concrete
//! `eras-linalg` kernels:
//!
//! 1. **`exp_approx_shifted` shift domain** — `exp_approx` clamps its
//!    *argument*, but the sweep computes `x − shift` first, so a caller
//!    that can pass a non-finite shift manufactures NaN before the
//!    clamp helps. Every non-test call site must saturate or test the
//!    shift (a `clamp`/`is_finite` guard earlier in the same body) or
//!    carry a justified `audit:allow(E801)` note.
//! 2. **Scan accumulation** — the fused entity-table scan accumulates
//!    per-row dot products whose partial sums are bounded by the
//!    certified search-space score envelope; with headroom, that bound
//!    must sit far inside the `f32` range.
//! 3. **`StreamTopK` NaN discipline** — the streaming top-k's cached
//!    worst-member threshold starts as a NaN sentinel; the fast reject
//!    in `offer` and the whole-chunk reject in `consume` must each test
//!    `is_nan` before trusting it, or a NaN threshold silently rejects
//!    every candidate.

use crate::diag::Finding;
use crate::flow::parse::{parse, FileModel};
use crate::flow::{load_workspace, site_allowed};
use eras_core::Severity;
use std::path::Path;

/// Factor of headroom demanded between the certified accumulation
/// bound and `f32::MAX` (covers tile partials and reduction order).
const SCAN_HEADROOM: f64 = 4.0;

/// Run the kernel checks over parsed `(path, source)` fixtures — the
/// gate tests' entry point.
pub fn check_sources(sources: &[(&str, &str)], score_envelope: f64) -> Vec<Finding> {
    let files: Vec<FileModel> = sources.iter().map(|(p, s)| parse(p, s)).collect();
    check_models(&files, score_envelope)
}

/// Run the kernel checks over the workspace rooted at `root`.
pub fn check_workspace(root: &Path, score_envelope: f64) -> Vec<Finding> {
    check_models(&load_workspace(root), score_envelope)
}

/// Run all three checks over already-parsed files.
pub fn check_models(files: &[FileModel], score_envelope: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_exp_shift_callers(files, &mut findings);
    check_stream_topk(files, &mut findings);
    check_scan_envelope(score_envelope, &mut findings);
    findings
}

/// Contract 1: every non-test `exp_approx_shifted` call site keeps the
/// shift finite.
fn check_exp_shift_callers(files: &[FileModel], findings: &mut Vec<Finding>) {
    for file in files {
        for f in &file.fns {
            if f.is_test || f.name == "exp_approx_shifted" {
                continue;
            }
            let Some(body) = f.body.clone() else { continue };
            for i in body.clone() {
                if !file.toks[i].is_ident("exp_approx_shifted") {
                    continue;
                }
                if file.toks.get(i + 1).map(|t| t.is_punct("(")) != Some(true) {
                    continue; // import or mention, not a call
                }
                if file.is_test_tok(i) {
                    continue;
                }
                let line = file.toks[i].line;
                // A shift saturated or tested for finiteness anywhere
                // earlier in the caller's body counts as the guard (the
                // shift is built there); otherwise a justified note.
                let guarded = file.toks[body.start..i]
                    .iter()
                    .any(|t| t.is_ident("clamp") || t.is_ident("is_finite"))
                    || site_allowed(file, line, "E801", true);
                if guarded {
                    findings.push(Finding {
                        code: "I800",
                        severity: Severity::Info,
                        pass: "numeric",
                        location: format!("{}:{line}", file.path),
                        message: format!(
                            "exp_approx_shifted caller `{}` saturates its shift before \
                             the fused sweep",
                            f.name
                        ),
                    });
                } else {
                    findings.push(Finding {
                        code: "E801",
                        severity: Severity::Error,
                        pass: "numeric",
                        location: format!("{}:{line}", file.path),
                        message: format!(
                            "`{}` calls exp_approx_shifted with an unguarded shift: an \
                             infinite fold result (empty or ±∞ scores) makes `x − shift` \
                             NaN before the argument clamp; saturate with `clamp` or test \
                             `is_finite` first",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Contract 3: `StreamTopK`'s cached threshold is NaN-guarded.
fn check_stream_topk(files: &[FileModel], findings: &mut Vec<Finding>) {
    for file in files {
        let fns: Vec<_> = files_fns_of(file, "StreamTopK");
        if fns.is_empty() {
            continue;
        }
        let mut ok = true;
        for (name, must_have) in [("offer", "is_nan"), ("consume", "is_nan"), ("new", "NAN")] {
            let Some(f) = fns.iter().find(|f| f.name == name) else {
                continue;
            };
            let has = f
                .body
                .clone()
                .map(|b| file.toks[b].iter().any(|t| t.is_ident(must_have)))
                .unwrap_or(false);
            if !has {
                ok = false;
                findings.push(Finding {
                    code: "E802",
                    severity: Severity::Error,
                    pass: "numeric",
                    location: format!("{}:{}", file.path, f.sig_line),
                    message: format!(
                        "StreamTopK::{name} lacks the `{must_have}` threshold discipline: \
                         the cached worst-member sentinel starts as NaN, and an unguarded \
                         fast-reject against it drops every candidate"
                    ),
                });
            }
        }
        if ok && fns.iter().any(|f| f.name == "offer") {
            findings.push(Finding {
                code: "I800",
                severity: Severity::Info,
                pass: "numeric",
                location: file.path.clone(),
                message: "StreamTopK thresholds are NaN-free by construction (sentinel \
                          init + is_nan-guarded fast and chunk rejects)"
                    .to_string(),
            });
        }
    }
}

fn files_fns_of<'a>(file: &'a FileModel, self_ty: &str) -> Vec<&'a crate::flow::parse::FnDef> {
    file.fns
        .iter()
        .filter(|f| f.self_ty.as_deref() == Some(self_ty) && !f.is_test)
        .collect()
}

/// Contract 2: block accumulation in the fused scan cannot overflow at
/// the certified score envelope.
fn check_scan_envelope(score_envelope: f64, findings: &mut Vec<Finding>) {
    // Every accumulator in `scan_rows` (each lane of the transposed
    // eight-query tile, its remainder sums and the lane-combine tree's
    // partial sums included) holds a partial sum of per-coordinate
    // products whose absolute total is the all-cells-positive envelope,
    // so the envelope bounds each one.
    if score_envelope.is_finite() && score_envelope * SCAN_HEADROOM < f32::MAX as f64 {
        findings.push(Finding {
            code: "I800",
            severity: Severity::Info,
            pass: "numeric",
            location: "linalg/src/scan.rs".to_string(),
            message: format!(
                "scan block accumulation cannot overflow: certified envelope \
                 |score| ≤ {score_envelope:.3e}, {SCAN_HEADROOM}× headroom inside f32 range"
            ),
        });
    } else {
        findings.push(Finding {
            code: "E801",
            severity: Severity::Error,
            pass: "numeric",
            location: "linalg/src/scan.rs".to_string(),
            message: format!(
                "scan block accumulation can overflow f32: certified envelope \
                 |score| ≤ {score_envelope:.3e} leaves less than {SCAN_HEADROOM}× headroom"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_kernels_certify() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check_workspace(&root, 2048.0);
        let errors: Vec<_> = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "kernel contracts violated: {errors:?}");
        // The one shipped caller is guarded, and StreamTopK certifies.
        assert!(findings
            .iter()
            .any(|f| f.code == "I800" && f.message.contains("saturates its shift")));
        assert!(findings
            .iter()
            .any(|f| f.code == "I800" && f.message.contains("StreamTopK")));
    }

    #[test]
    fn unguarded_shift_caller_is_flagged() {
        let src = r#"
pub fn sweep(xs: &mut [f32], shift: f32) {
    exp_approx_shifted(xs, shift);
}
"#;
        let findings = check_sources(&[("crates/linalg/src/fix.rs", src)], 100.0);
        assert!(findings.iter().any(|f| f.code == "E801"), "{findings:?}");
    }

    #[test]
    fn guarded_and_allowed_shift_callers_pass() {
        let guarded = r#"
pub fn sweep(xs: &mut [f32], shift: f32) {
    let shift = shift.clamp(f32::MIN, f32::MAX);
    exp_approx_shifted(xs, shift);
}
"#;
        let f1 = check_sources(&[("crates/linalg/src/a.rs", guarded)], 100.0);
        assert!(!f1.iter().any(|f| f.code == "E801"), "{f1:?}");
        let allowed = "pub fn sweep(xs: &mut [f32], s: f32) {\n    // audit:".to_string()
            + "allow(E801): shift proven finite by caller contract\n    exp_approx_shifted(xs, s);\n}\n";
        let f2 = check_sources(&[("crates/linalg/src/b.rs", &allowed)], 100.0);
        assert!(!f2.iter().any(|f| f.code == "E801"), "{f2:?}");
    }

    #[test]
    fn naked_stream_topk_fast_reject_is_flagged() {
        let src = r#"
impl<'a> StreamTopK<'a> {
    pub fn new(k: usize) -> Self {
        StreamTopK { k, worst: Hit { id: 0, score: f32::NAN } }
    }
    fn offer(&mut self, h: Hit) {
        if h.score < self.worst.score {
            return;
        }
        self.heap.push(h);
    }
}
"#;
        let findings = check_sources(&[("crates/linalg/src/scan.rs", src)], 100.0);
        assert!(
            findings
                .iter()
                .any(|f| f.code == "E802" && f.message.contains("offer")),
            "{findings:?}"
        );
    }

    #[test]
    fn naked_stream_topk_chunk_reject_is_flagged() {
        let src = r#"
impl<'a> StreamTopK<'a> {
    pub fn new(k: usize) -> Self {
        StreamTopK { k, worst: Hit { id: 0, score: f32::NAN } }
    }
    fn offer(&mut self, h: Hit) {
        if !self.worst.score.is_nan() && h.score < self.worst.score {
            return;
        }
        self.heap.push(h);
    }
}
impl BlockConsumer for StreamTopK<'_> {
    fn consume(&mut self, base: u32, scores: &[f32]) {
        for chunk in scores.chunks_exact(8) {
            if self.heap.len() == self.k && !chunk.iter().any(|&s| s >= self.worst.score) {
                continue;
            }
            self.offer_run(base, chunk);
        }
    }
}
"#;
        let findings = check_sources(&[("crates/linalg/src/scan.rs", src)], 100.0);
        assert!(
            findings
                .iter()
                .any(|f| f.code == "E802" && f.message.contains("consume")),
            "{findings:?}"
        );
        assert!(
            !findings
                .iter()
                .any(|f| f.code == "E802" && f.message.contains("offer")),
            "{findings:?}"
        );
    }

    #[test]
    fn scan_envelope_check_is_numeric() {
        let mut ok = Vec::new();
        check_scan_envelope(2048.0, &mut ok);
        assert!(ok.iter().all(|f| f.code == "I800"));
        let mut bad = Vec::new();
        check_scan_envelope(1e38, &mut bad);
        assert!(bad.iter().any(|f| f.code == "E801"));
    }
}
