//! `eras` — command-line interface to the ERAS reproduction.
//!
//! ```text
//! eras stats    --preset wn18rr [--seed 7]
//! eras generate --preset wn18rr --out DIR [--seed 7]
//! eras train    (--preset NAME | --data DIR) --model complex
//!               [--dim 32] [--epochs 40] [--save FILE] [--seed 7]
//! eras search   (--preset NAME | --data DIR) [--method eras|autosf|random|tpe]
//!               [--groups 3] [--epochs 20] [--seed 7]
//! eras rules    (--preset NAME | --data DIR) [--seed 7]
//! eras audit    [--pass sf,numeric,grad,config,lint,sched] [--format json] [--deny warnings]
//! eras serve    --snapshot FILE [--addr 127.0.0.1:8080] [--workers 4]
//! eras query    --snapshot FILE (--head E | --tail E) --relation R [--k 10]
//! eras obs      report --trace FILE [--top 10]
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! workspace dependency-free.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    // `eras obs` takes a bare subcommand token (`report`) before its
    // `--key value` pairs, which `Args::parse` would reject — route it
    // before the flat parse.
    if command == "obs" {
        return match commands::obs(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match args::Args::parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        name => match commands::COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => command.run(&parsed),
            None => Err(format!("unknown command `{name}`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
