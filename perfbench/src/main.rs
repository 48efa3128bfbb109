//! End-to-end and per-layer benchmark of the ERAS workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads run in-process against the library's public entry
//! points (see `README.md` for why each exists):
//!
//! - `search`: ERAS against AutoSF on `wn18rr-synth` (the paper's
//!   Table IX pair),
//! - `neg-1m`: negative-sampling training steps and sampled ranking on
//!   the one-million-entity preset,
//! - `serve-http`: a 100k-entity snapshot served over loopback HTTP,
//!   open-loop single queries then closed-loop batches.
//!
//! The seed and `--seconds` fix all the work; elapsed time never cuts
//! an operation short. Timings are estimated within the run from many
//! repetitions, with the fastest repetition or a latency quantile. The
//! last line of standard output is the JSON result.

mod neg;
mod report;
mod search;
mod serve;
mod stats;
mod tracefold;

use report::Outcome;
use std::process::ExitCode;

/// One run's settings, from the command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// Traced run: install a JSONL sink and report per-layer metrics.
    pub trace: bool,
}

const USAGE: &str = "usage: eras-perfbench --workload <search|neg-1m|serve-http> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let cfg = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !(1..=600).contains(&cfg.seconds) {
        return Err(format!(
            "--seconds must be within 1..=600, not {}",
            cfg.seconds
        ));
    }
    Ok(cfg)
}

/// The git commit of the checkout the benchmark runs in, read from
/// `.git` in the working directory; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts that must match before two results are
/// compared.
fn provenance(cfg: &Config) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = env!("PERFBENCH_RUSTFLAGS");
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"pool_threads\":{},\"lanes\":{},\"target_cpu_native\":{},\"rustflags\":\"{flags}\",\
         \"rustc\":\"{}\",\"commit\":\"{}\"}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        eras_linalg::pool::ThreadPool::global().parallelism(),
        eras_linalg::vecops::LANES,
        flags.contains("target-cpu=native"),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Config, &mut Outcome) = match cfg.workload.as_str() {
        "search" => search::run,
        "neg-1m" => neg::run,
        "serve-http" => serve::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", provenance(&cfg));
    let mut out = Outcome::default();
    run(&cfg, &mut out);
    match report::peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.error("no VmHWM in /proc/self/status".into()),
    }
    out.print(cfg.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg = parse_args(&args("--workload neg-1m --seed 9 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("neg-1m", 9, 20, true)
        );
        assert!(parse_args(&args("--workload search --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload search --seed x --seconds 5")).is_err());
        assert!(parse_args(&args("--workload search --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1 --seconds 5")).is_err());
        assert!(parse_args(&args("--workload search --seed")).is_err());
    }
}
