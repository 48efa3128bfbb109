//! Pass 4 — source lints.
//!
//! A small, purpose-built scanner over the workspace's Rust sources for
//! the failure modes this codebase has actually hit:
//!
//! - `E401` — NaN-unsafe comparison: `partial_cmp(..)` immediately
//!   unwrapped/expected in the same statement. One NaN mid-search turns
//!   this into a panic; `eras_linalg::cmp` has the total-order
//!   replacements.
//! - `W402` — `unwrap()` in non-test code of the numeric hot-path
//!   crates, where a panic kills a multi-hour run.
//! - `W403` — non-deterministic seeding (`SystemTime::now`,
//!   `thread_rng`, `from_entropy`) anywhere: every experiment in the
//!   reproduction must be replayable from a `u64` seed.
//! - `W405` — raw `std::thread` spawn/scope outside
//!   `eras_linalg::pool`: ad-hoc threading bypasses the shared pool's
//!   deterministic chunking and the `ERAS_THREADS` override, and
//!   oversubscribes the machine when it nests inside pooled work.
//!   Blocking-IO threads (e.g. socket accept loops) are legitimate and
//!   carry an `audit:allow(W405)` note (trailing, or on the line
//!   directly above the spawn).
//! - `W406` — unjustified `unsafe impl Send`/`Sync` in library code
//!   outside `eras_linalg::pool`: hand-rolled thread-safety claims are
//!   exactly what the sched pass exists to check, so each one must say
//!   why it is sound in an `audit:allow(W406): <why>` note (trailing,
//!   or on the comment line directly above the impl).
//! - `W705` — ad-hoc timing or logging (`Instant::now()`, `eprintln!`)
//!   in the obs-instrumented crates (`linalg`, `train`, `serve`,
//!   `search`, `core`): wall-clock reads belong on `eras_obs::clock`
//!   (`Stopwatch`, `monotonic_us`) and progress output on the
//!   `eras_obs::event!` layer, so every timing/logging site flows
//!   through the observability plane. Suppression requires a
//!   *justified* note — `audit:allow(W705): <why>` — trailing or on
//!   the line directly above.
//!
//! The lints run on the token stream produced by [`crate::flow::lex`]
//! (via [`crate::flow::parse`]), so comments never match, string and
//! char literals are opaque data, and `#[cfg(test)]` regions are
//! skipped structurally. `tests/`, `benches/` and `examples/` trees are
//! not walked at all. A finding can be suppressed with a same-line
//! `// audit:allow(E401)` comment carrying the code (for `W405` and
//! `W406`, the line directly above also counts).

use crate::diag::Finding;
use crate::flow::line_allows;
use crate::flow::parse::{self, FileModel};
use eras_core::Severity;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose non-test code counts as hot path for `W402`. `serve`
/// qualifies: a panicking worker thread takes down an online query
/// server, not just an experiment.
const HOT_PATH_CRATES: &[&str] = &[
    "linalg", "sf", "train", "core", "ctrl", "search", "rules", "serve",
];

/// The one file allowed to touch `std::thread` directly: the shared
/// pool's own worker spawning.
fn is_pool_source(display_path: &str) -> bool {
    display_path
        .replace('\\', "/")
        .ends_with("linalg/src/pool.rs")
}

/// Crates whose `src/` trees are instrumented through `eras-obs` and
/// therefore subject to `W705`. Narrower than [`HOT_PATH_CRATES`]:
/// only the crates that actually carry spans/metrics today, so the
/// lint never demands instrumentation a crate has no obs dependency
/// to satisfy.
const OBS_INSTRUMENTED_PREFIXES: &[&str] = &[
    "crates/linalg/src",
    "crates/train/src",
    "crates/serve/src",
    "crates/search/src",
    "crates/core/src",
];

fn is_obs_instrumented(display_path: &str) -> bool {
    let p = display_path.replace('\\', "/");
    OBS_INSTRUMENTED_PREFIXES.iter().any(|pre| p.contains(pre))
}

/// Does the source line of 1-based `line` carry an `audit:allow` note
/// for `code`? With `above`, the line directly above also counts.
fn allowed(file: &FileModel, line: u32, code: &str, above: bool) -> bool {
    if line_allows(file.line_text(line), code, false) {
        return true;
    }
    above && line > 1 && line_allows(file.line_text(line - 1), code, false)
}

/// Like [`allowed`] (trailing or line above), but the note must carry
/// a justification: `audit:allow(CODE): <why>`.
fn allowed_justified(file: &FileModel, line: u32, code: &str) -> bool {
    if line_allows(file.line_text(line), code, true) {
        return true;
    }
    line > 1 && line_allows(file.line_text(line - 1), code, true)
}

/// Is token `i` the method name of a `.name(` call?
fn is_method_call(file: &FileModel, i: usize) -> bool {
    i > 0
        && file.toks[i - 1].is_punct(".")
        && file
            .toks
            .get(i + 1)
            .is_some_and(|t| t.is_punct("(") || t.is_punct("::"))
}

/// Token-level lints over one parsed file. `hot_path` enables `W402`.
fn lint_model(file: &FileModel, hot_path: bool) -> Vec<Finding> {
    let toks = &file.toks;
    let obs_crate = is_obs_instrumented(&file.path);
    let mut findings = Vec::new();
    // Lines with a `partial_cmp` call: E401 owns those statements, so
    // W402 does not double-report the unwrap that E401 already flags.
    let mut cmp_lines: Vec<u32> = Vec::new();

    for i in 0..toks.len() {
        if file.is_test_tok(i) {
            continue;
        }
        let t = &toks[i];

        // E401: partial_cmp unwrapped/expected in the same statement.
        if t.is_ident("partial_cmp") {
            cmp_lines.push(t.line);
            let unwrapped = toks[i + 1..]
                .iter()
                .enumerate()
                .take_while(|(_, u)| !u.is_punct(";"))
                .any(|(k, u)| {
                    (u.is_ident("unwrap") || u.is_ident("expect"))
                        && is_method_call(file, i + 1 + k)
                });
            if unwrapped && !allowed(file, t.line, "E401", false) {
                findings.push(Finding {
                    code: "E401",
                    severity: Severity::Error,
                    pass: "lint",
                    location: format!("{}:{}", file.path, t.line),
                    message: "NaN-unsafe comparison: partial ordering unwrapped in the same \
                              statement; use the total orderings in eras_linalg::cmp"
                        .to_string(),
                });
            }
        }

        // W402: hot-path unwrap().
        if hot_path
            && t.is_ident("unwrap")
            && is_method_call(file, i)
            && !cmp_lines.contains(&t.line)
            && !allowed(file, t.line, "W402", false)
        {
            findings.push(Finding {
                code: "W402",
                severity: Severity::Warning,
                pass: "lint",
                location: format!("{}:{}", file.path, t.line),
                message: "unwrap() in hot-path code: a panic here kills a long training or \
                          search run; handle the None/Err or document with audit:allow(W402)"
                    .to_string(),
            });
        }

        // W403: non-deterministic seeding sources.
        let nondet: Option<&str> = if t.is_ident("thread_rng") {
            Some("thread_rng")
        } else if t.is_ident("from_entropy") {
            Some("from_entropy")
        } else if t.is_ident("SystemTime")
            && toks.get(i + 1).is_some_and(|u| u.is_punct("::"))
            && toks.get(i + 2).is_some_and(|u| u.is_ident("now"))
        {
            Some("SystemTime::now")
        } else {
            None
        };
        if let Some(pat) = nondet {
            if !allowed(file, t.line, "W403", false) {
                findings.push(Finding {
                    code: "W403",
                    severity: Severity::Warning,
                    pass: "lint",
                    location: format!("{}:{}", file.path, t.line),
                    message: format!(
                        "non-deterministic source `{pat}`: experiments must be replayable \
                         from an explicit u64 seed"
                    ),
                });
            }
        }

        // W705: ad-hoc timing/logging in obs-instrumented crates.
        if obs_crate {
            let adhoc: Option<(&str, &str)> = if t.is_ident("Instant")
                && toks.get(i + 1).is_some_and(|u| u.is_punct("::"))
                && toks.get(i + 2).is_some_and(|u| u.is_ident("now"))
            {
                Some((
                    "Instant::now()",
                    "route timing through eras_obs::clock (Stopwatch, monotonic_us)",
                ))
            } else if t.is_ident("eprintln") && toks.get(i + 1).is_some_and(|u| u.is_punct("!")) {
                Some((
                    "eprintln!",
                    "emit an eras_obs::event! (echoed to stderr while tracing is active)",
                ))
            } else {
                None
            };
            if let Some((pat, fix)) = adhoc {
                if !allowed_justified(file, t.line, "W705") {
                    findings.push(Finding {
                        code: "W705",
                        severity: Severity::Warning,
                        pass: "lint",
                        location: format!("{}:{}", file.path, t.line),
                        message: format!(
                            "ad-hoc `{pat}` in an obs-instrumented crate: {fix}, so the site \
                             shows up in traces and `/metrics`; justify exceptions with \
                             audit:allow(W705): <why>"
                        ),
                    });
                }
            }
        }

        if is_pool_source(&file.path) {
            continue;
        }

        // W405: raw thread spawn/scope outside the pool.
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|u| u.is_punct("::"))
            && toks
                .get(i + 2)
                .is_some_and(|u| u.is_ident("spawn") || u.is_ident("scope"))
            && !allowed(file, t.line, "W405", true)
        {
            let what = &toks[i + 2].text;
            findings.push(Finding {
                code: "W405",
                severity: Severity::Warning,
                pass: "lint",
                location: format!("{}:{}", file.path, t.line),
                message: format!(
                    "raw `thread::{what}` outside eras_linalg::pool: route CPU-parallel work \
                     through the shared ThreadPool (deterministic chunking, ERAS_THREADS); \
                     blocking-IO threads may document with audit:allow(W405)"
                ),
            });
        }

        // W406: hand-rolled Send/Sync claims outside the pool.
        if t.is_ident("unsafe") && toks.get(i + 1).is_some_and(|u| u.is_ident("impl")) {
            let claims_thread_safety = toks[i + 2..]
                .iter()
                .take_while(|u| !u.is_punct("{") && !u.is_punct(";"))
                .any(|u| u.is_ident("Send") || u.is_ident("Sync"));
            if claims_thread_safety && !allowed(file, t.line, "W406", true) {
                findings.push(Finding {
                    code: "W406",
                    severity: Severity::Warning,
                    pass: "lint",
                    location: format!("{}:{}", file.path, t.line),
                    message: "hand-rolled thread-safety claim outside eras_linalg::pool: \
                              this is exactly what `eras audit --pass sched` model-checks; \
                              state why it is sound with audit:allow(W406): <why>, and add \
                              a sched model if the protocol is new"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// Lint one file's contents. `hot_path` enables `W402`.
pub fn lint_source(display_path: &str, src: &str, hot_path: bool) -> Vec<Finding> {
    lint_model(&parse::parse(display_path, src), hot_path)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Every `.rs` file the lint pass walks for the workspace rooted at
/// `root`, paired with its hot-path flag: the crate `src/` directories
/// plus the facade's `src/` — `tests/`, `benches/` and `examples/` hold
/// test code by construction. Public so the audit gate tests can assert
/// that a crate is actually covered rather than silently skipped.
pub fn workspace_sources(root: &Path) -> Vec<(PathBuf, bool)> {
    let mut src_dirs: Vec<(PathBuf, bool)> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for krate in crates {
            let name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let hot = HOT_PATH_CRATES.contains(&name.as_str());
            src_dirs.push((krate.join("src"), hot));
        }
    }
    src_dirs.push((root.join("src"), false));

    let mut sources = Vec::new();
    for (dir, hot) in src_dirs {
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files);
        sources.extend(files.into_iter().map(|f| (f, hot)));
    }
    sources
}

/// Lint every `src/` tree in the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (file, hot) in workspace_sources(root) {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        let display = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        findings.extend(lint_source(&display, &src, hot));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    // The lints run on the lexed token stream, where comments vanish
    // and string literals are opaque `Str` tokens — so unlike the old
    // line scanner, these fixtures can spell patterns out plainly
    // without tripping the lint on this file's own source.

    #[test]
    fn flags_nan_unsafe_comparison() {
        let src = "fn f(xs: &[f32]) {\n    let m = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let findings = lint_source("x.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "E401");
        assert!(findings[0].location.ends_with(":2"));
    }

    #[test]
    fn flags_multiline_statement() {
        let src = "fn f(xs: &[f32]) {\n    let m = xs.iter().max_by(|a, b| a.partial_cmp(b))\n        .expect(\"nan\");\n}\n";
        let findings = lint_source("x.rs", src, false);
        assert!(findings.iter().any(|f| f.code == "E401"), "{findings:?}");
    }

    #[test]
    fn unwrapping_a_later_statement_is_not_e401() {
        // The statement scan stops at `;`: an unwrap in the next
        // statement does not belong to the partial_cmp expression.
        let src = "fn f(a: f32, b: f32, o: Option<u32>) {\n    let c = a.partial_cmp(&b);\n    let v = o.unwrap();\n}\n";
        let findings = lint_source("x.rs", src, false);
        assert!(findings.iter().all(|f| f.code != "E401"), "{findings:?}");
    }

    #[test]
    fn comments_and_tests_are_skipped() {
        let src = "fn f() {\n    // a.partial_cmp(b).unwrap()\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g(xs: &[f32]) {\n        \
                   let m = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap());\n    }\n}\n";
        let findings = lint_source("x.rs", src, true);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "fn f(a: &f32, b: &f32) {\n    let m = a.partial_cmp(b).unwrap(); \
                   // audit:allow(E401): input is NaN-free by construction\n}\n";
        let findings = lint_source("x.rs", src, false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hot_path_unwrap_is_warned() {
        let src = "fn f(o: Option<u32>) {\n    let v = o.unwrap();\n}\n";
        assert!(lint_source("x.rs", src, false).is_empty());
        let findings = lint_source("x.rs", src, true);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W402");
    }

    #[test]
    fn unwrap_as_a_plain_ident_is_not_a_call() {
        // A local named `unwrap`, or `Option::unwrap` passed as a path,
        // is not a `.unwrap()` call site.
        let src = "fn f(unwrap: u32) -> u32 {\n    unwrap + 1\n}\n";
        assert!(lint_source("x.rs", src, true).is_empty());
    }

    #[test]
    fn nondeterminism_is_warned() {
        let src = "fn f() {\n    let t = SystemTime::now();\n}\n";
        let findings = lint_source("x.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W403");
    }

    #[test]
    fn raw_thread_spawn_is_warned_outside_the_pool() {
        let src = "fn f() {\n    std::thread::spawn(|| work());\n}\n";
        let findings = lint_source("crates/serve/src/http.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W405");

        let src = "fn g() {\n    thread::scope(|s| {});\n}\n";
        let findings = lint_source("crates/train/src/eval.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W405");
    }

    #[test]
    fn pool_source_is_exempt_from_raw_thread_lint() {
        let src = "fn f() {\n    std::thread::spawn(|| work());\n}\n";
        let findings = lint_source("crates/linalg/src/pool.rs", src, false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn raw_thread_allow_comment_suppresses() {
        let src = "fn f() {\n    std::thread::spawn(|| accept_loop()); \
                   // audit:allow(W405): blocking IO thread\n}\n";
        let findings = lint_source("crates/serve/src/http.rs", src, false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn string_literals_are_data_not_code() {
        // With the real lexer a pattern inside a string literal is an
        // opaque `Str` token: `//` inside it does not start a comment,
        // and lint patterns inside it do not fire. (The old line
        // scanner flagged these; the token stream is more precise.)
        let src = "fn f() -> &'static str {\n    \"https://example.com // not a comment\"\n}\n";
        assert!(lint_source("x.rs", src, true).is_empty());
        let src = "fn f() -> &'static str {\n    r\"thread_rng\"\n}\n";
        assert!(lint_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn raw_string_does_not_hide_the_rest_of_the_line() {
        // A `//` inside a raw string once swallowed everything after it
        // on the line, hiding real code from every lint.
        let src =
            "fn f(o: Option<&str>) {\n    let v = o.filter(|s| s != r\"a//b\").unwrap();\n}\n";
        let findings = lint_source("x.rs", src, true);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W402");
    }

    #[test]
    fn char_literal_quote_does_not_desync_the_lexer() {
        // '"' is a char literal, not the start of a string: everything
        // after it is still code the lints must see.
        let src = "fn f(o: Option<u32>) {\n    let q = '\"';\n    let v = o.unwrap();\n}\n";
        let findings = lint_source("x.rs", src, true);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W402");
        assert!(findings[0].location.ends_with(":3"), "{findings:?}");
    }

    #[test]
    fn hashed_and_byte_raw_strings_are_handled() {
        let src = "fn f() -> (&'static str, &'static [u8]) {\n    let t = SystemTime::now();\n    \
                   (r#\"say \"hi\" // ok\"#, br\"x//y\")\n}\n";
        let findings = lint_source("x.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W403");
        assert!(findings[0].location.ends_with(":2"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let src = "fn f(var: u8) -> String {\n    format!(\"{var}\") // trailing comment\n}\n";
        assert!(lint_source("x.rs", src, true).is_empty());
    }

    #[test]
    fn unjustified_unsafe_impl_is_warned() {
        let src = "struct Handle(*mut u8);\nunsafe impl Send for Handle {}\n";
        let findings = lint_source("crates/search/src/sharded.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W406");

        let src = "struct Handle(*mut u8);\nunsafe impl Sync for Handle {}\n";
        let findings = lint_source("crates/train/src/parallel.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W406");
    }

    #[test]
    fn justified_unsafe_impl_is_allowed_trailing_or_above() {
        let src = "struct Handle(*mut u8);\nunsafe impl Send for Handle {} \
                   // audit:allow(W406): owner-only mutation\n";
        assert!(lint_source("x.rs", src, false).is_empty());

        let src = "struct Handle(*mut u8);\n// audit:allow(W406): nodes are immutable after \
                   publish\nunsafe impl Send for Handle {}\n";
        assert!(lint_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn adhoc_timing_is_warned_in_obs_instrumented_crates() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let findings = lint_source("crates/train/src/trainer.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W705");
        assert!(findings[0].location.ends_with(":2"));
        let findings = lint_source("crates/core/src/algorithm.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        // The same source outside the instrumented crates is fine.
        assert!(lint_source("crates/bench/src/timing.rs", src, false).is_empty());
        assert!(lint_source("crates/cli/src/commands.rs", src, false).is_empty());
    }

    #[test]
    fn adhoc_stderr_logging_is_warned_in_obs_instrumented_crates() {
        let src = "fn f(epoch: usize) {\n    eprintln!(\"epoch {epoch}\");\n}\n";
        let findings = lint_source("crates/serve/src/http.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "W705");
        assert!(lint_source("crates/audit/src/lint.rs", src, false).is_empty());
    }

    #[test]
    fn w705_requires_a_justified_allow() {
        // A bare allow (no `: <why>`) does NOT suppress W705.
        let src = "fn f() {\n    let t = Instant::now(); // audit:allow(W705)\n}\n";
        let findings = lint_source("crates/search/src/evaluator.rs", src, false);
        assert_eq!(findings.len(), 1, "{findings:?}");

        let src = "fn f() {\n    let t = Instant::now(); \
                   // audit:allow(W705): one-shot startup banner, not a hot path\n}\n";
        assert!(lint_source("crates/search/src/evaluator.rs", src, false).is_empty());

        // Justification on the line directly above also counts.
        let src = "fn f() {\n    // audit:allow(W705): fault-injection timestamps stay \
                   out of traces\n    eprintln!(\"x\");\n}\n";
        assert!(lint_source("crates/linalg/src/faults.rs", src, false).is_empty());
    }

    #[test]
    fn pool_source_is_exempt_from_unsafe_impl_lint() {
        let src = "struct Handle(*mut u8);\nunsafe impl Send for Handle {}\n";
        let findings = lint_source("crates/linalg/src/pool.rs", src, false);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
