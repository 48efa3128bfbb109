//! End-to-end tests of the `eras` binary.

use std::process::Command;

fn eras() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eras"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = eras().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn unknown_command_is_an_error() {
    let out = eras().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn stats_runs_on_tiny_preset() {
    let out = eras()
        .args(["stats", "--preset", "tiny", "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tiny-synth"));
    assert!(stdout.contains("symmetric"));
}

#[test]
fn stats_rejects_unknown_preset() {
    let out = eras().args(["stats", "--preset", "nope"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

#[test]
fn generate_then_train_from_tsv_roundtrip() {
    let dir = std::env::temp_dir().join(format!("eras_cli_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = eras()
        .args([
            "generate",
            "--preset",
            "tiny",
            "--seed",
            "4",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("train.txt").exists());

    // Train briefly on the generated files, saving embeddings.
    let emb_path = dir.join("emb.bin");
    let out = eras()
        .args([
            "train",
            "--data",
            dir.to_str().unwrap(),
            "--model",
            "distmult",
            "--dim",
            "16",
            "--epochs",
            "3",
            "--save",
            emb_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MRR"), "{stdout}");
    assert!(emb_path.exists());
    // The saved file parses back.
    let emb = eras_train::io::load(&emb_path).expect("valid embedding file");
    assert_eq!(emb.dim(), 16);

    // `eval` reloads the embeddings and reports metrics.
    let out = eras()
        .args([
            "eval",
            "--data",
            dir.to_str().unwrap(),
            "--model",
            "distmult",
            "--embeddings",
            emb_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("MRR"));

    // Shape mismatch (different dataset) is rejected cleanly.
    let out = eras()
        .args([
            "eval",
            "--preset",
            "wn18rr",
            "--embeddings",
            emb_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not match"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A run shorter than the validation interval validates at its last
/// epoch: `eras train` echoes a progress line (stderr) for it.
#[test]
fn short_training_run_validates() {
    let out = eras()
        .args(["train", "--preset", "tiny", "--dim", "16", "--epochs", "5"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("[train.progress] epoch=5 "), "{stderr}");
}

/// A stand-alone search whose candidates train for fewer epochs than
/// the validation interval still ranks them on a validation MRR, so
/// its best candidate scores above zero.
#[test]
fn short_autosf_search_validates_its_candidates() {
    let out = eras()
        .args([
            "search",
            "--preset",
            "tiny",
            "--method",
            "autosf",
            "--epochs",
            "3",
            "--dim",
            "16",
            "--evaluations",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let best: f64 = stdout
        .lines()
        .find_map(|l| l.split("best stand-alone valid MRR ").nth(1))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no best valid MRR line: {stdout}"));
    assert!(best > 0.0, "{stdout}");
}

/// A sampled-ranking candidate count of 0 is outside input, not a bug:
/// both commands must refuse it with an error naming the flag (exit 1),
/// never a panic (exit 101) — and `train` before any training runs.
#[test]
fn zero_ranking_candidates_is_an_error_not_a_panic() {
    for (command, flag, rest) in [
        ("eval", "--sampled", &[][..]),
        (
            "train",
            "--sampled-eval",
            &["--dim", "8", "--epochs", "1"][..],
        ),
    ] {
        let out = eras()
            .args([command, "--preset", "tiny"])
            .args(rest)
            .args([flag, "0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: need at least one ranking candidate")),
            "{command}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("training"),
            "{command} must fail before training"
        );
    }
}

/// A removed training flag must fail and name its replacement: the
/// parser keeps any `--flag`, so ignoring it would train the default
/// loss and report its MRR as if the flag had applied.
#[test]
fn removed_training_flags_are_errors_naming_the_replacement() {
    for command in ["train", "search"] {
        for (flag, replacement) in [
            ("full-loss", "use `--loss full`"),
            ("parallel", "the loss now picks the training step"),
        ] {
            let out = eras()
                .args([command, "--preset", "tiny", "--dim", "8", "--epochs", "1"])
                .arg(format!("--{flag}"))
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} --{flag}: {stderr}");
            assert!(
                stderr.contains(&format!("--{flag} was removed: {replacement}")),
                "{command} --{flag}: {stderr}"
            );
            assert!(
                String::from_utf8_lossy(&out.stdout).is_empty(),
                "{command} --{flag} must fail before training"
            );
        }
    }
}

/// A misspelt or foreign flag fails before any work, naming the flag
/// and the command: `eras train --epoch 2` used to train the default 40
/// epochs and exit 0.
#[test]
fn unknown_flags_are_errors_naming_the_flag_and_command() {
    for (args, message) in [
        (
            &["train", "--preset", "tiny", "--epoch", "2"][..],
            "unknown flag --epoch for `eras train`",
        ),
        (
            &["search", "--preset", "tiny", "--threads", "2"][..],
            "unknown flag --threads for `eras search`",
        ),
        (
            &["stats", "--preset", "tiny", "--out", "x", "--dim", "8"][..],
            "unknown flags --dim, --out for `eras stats`",
        ),
        (
            &["obs", "report", "--trace", "none.jsonl", "--tpo", "3"][..],
            "unknown flag --tpo for `eras obs report`",
        ),
    ] {
        let out = eras().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).is_empty(),
            "{args:?} must fail before any work"
        );
    }
}

/// A malformed `--checkpoint-every` is an error, not the default.
#[test]
fn malformed_checkpoint_every_is_an_error() {
    let dir = std::env::temp_dir().join(format!("eras-ckpt-every-{}", std::process::id()));
    let out = eras()
        .args(["train", "--preset", "tiny", "--dim", "8", "--epochs", "1"])
        .args(["--checkpoint", dir.join("run.ckpt").to_str().unwrap()])
        .args(["--checkpoint-every", "often", "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--checkpoint-every: cannot parse `often`"),
        "{stderr}"
    );
    assert!(!dir.exists(), "no checkpoint may be written");
}

#[test]
fn checkpoint_every_without_checkpoint_is_an_error() {
    let out = eras()
        .args(["train", "--preset", "tiny", "--dim", "8", "--epochs", "1"])
        .args(["--checkpoint-every", "1", "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--checkpoint-every requires --checkpoint FILE"),
        "{stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("test: MRR"),
        "the run must not train"
    );
}

#[test]
fn rules_command_mines_rules() {
    let out = eras()
        .args(["rules", "--preset", "tiny", "--seed", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mined"), "{stdout}");
    assert!(stdout.contains("MRR"));
}

#[test]
fn audit_runs_clean_on_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let out = eras()
        .args([
            "audit",
            "--deny",
            "warnings",
            "--sf-samples",
            "16",
            "--root",
            root.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "audit must pass on the shipped repo:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("passes run: sf, numeric, grad, config, lint, flow, sched"),
        "{stdout}"
    );
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn audit_catches_seeded_lint_violation_with_json_output() {
    let dir = std::env::temp_dir().join(format!("eras_audit_it_{}", std::process::id()));
    let src = dir.join("crates/train/src");
    std::fs::create_dir_all(&src).unwrap();
    // Reassembled from fragments so this test file stays lint-clean.
    let bad = [
        "pub fn f(xs: &mut [f32]) {\n    xs.sort_by(|a, b| a.",
        "partial_",
        "cmp(b).unw",
        "rap());\n}\n",
    ]
    .concat();
    std::fs::write(src.join("lib.rs"), bad).unwrap();
    let out = eras()
        .args([
            "audit",
            "--pass",
            "lint",
            "--format",
            "json",
            "--root",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !out.status.success(),
        "seeded violation must fail the audit"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E401"), "{stdout}");
    assert!(stdout.contains("\"errors\": 1"), "{stdout}");
}

#[test]
fn audit_rejects_unknown_pass() {
    let out = eras().args(["audit", "--pass", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown pass"));
}

#[test]
fn audit_rejects_unknown_pass_in_equals_form() {
    // `--pass=shed` used to parse as a bare flag literally named
    // `pass=shed`, silently running the full default audit instead of
    // erroring — a typo masquerading as a clean gate.
    let out = eras().args(["audit", "--pass=shed"]).output().unwrap();
    assert!(
        !out.status.success(),
        "typo'd pass must fail, not be ignored"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown pass"), "{stderr}");
    for name in ["sf", "grad", "config", "lint", "sched"] {
        assert!(
            stderr.contains(name),
            "valid passes must be listed: {stderr}"
        );
    }
}

#[test]
fn train_snapshot_query_and_serve_roundtrip() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join(format!("eras_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("tiny.eras");

    // 1. Train on the tiny preset and export a serving snapshot.
    let out = eras()
        .args([
            "train",
            "--preset",
            "tiny",
            "--model",
            "complex",
            "--dim",
            "16",
            "--epochs",
            "3",
            "--seed",
            "9",
            "--snapshot",
            snap_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("saved serving snapshot"));
    let snap = eras_train::io::load_snapshot(&snap_path).expect("valid snapshot file");
    assert_eq!(snap.embeddings.dim(), 16);
    assert!(!snap.known.is_empty());

    // 2. One-shot query against the snapshot.
    let out = eras()
        .args([
            "query",
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--head",
            "ent_00000",
            "--relation",
            "rel_000_symmetric",
            "--k",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = eras_data::Json::parse(&stdout).expect("query prints JSON");
    let results = json
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results");
    assert_eq!(results.len(), 5);
    assert_eq!(results[0].get("rank").and_then(|r| r.as_usize()), Some(1));

    // Unknown entity exits non-zero with a clear message.
    let out = eras()
        .args([
            "query",
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--head",
            "no-such-entity",
            "--relation",
            "rel_000_symmetric",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown entity"));

    // 3. Serve over HTTP on an ephemeral port; the first stdout line
    // announces the bound address.
    let mut child = eras()
        .args([
            "serve",
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut first_line = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut first_line)
        .expect("reads bound address");
    let addr = first_line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {first_line:?}"))
        .to_string();

    let do_request = |payload: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            stream,
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )
        .expect("send");
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .expect("read");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    };

    let (status, body) =
        do_request(r#"{"head":"ent_00000","relation":"rel_000_symmetric","k":10}"#);
    let json = eras_data::Json::parse(&body).expect("JSON response body");
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(status, 200, "{body}");
    let results = json
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results");
    assert_eq!(results.len(), 10);
    assert_eq!(results[0].get("rank").and_then(|r| r.as_usize()), Some(1));
    assert_eq!(json.get("filtered").and_then(|f| f.as_bool()), Some(true));
}
