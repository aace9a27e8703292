//! The exaclim end-to-end benchmark. See README.md.
//!
//! ```text
//! bench run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench calibrate --runs N [--out FILE] [--write-bounds]
//! bench compare <a.json> <b.json>
//! ```

mod adapter;
mod json;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod train;

use run::RunArgs;

fn usage() -> i32 {
    eprintln!(
        "usage: bench run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      bench calibrate --runs N [--out FILE] [--write-bounds]\n\
         \x20      bench compare <a.json> <b.json>"
    );
    2
}

/// `--key value` pairs and bare flags after the subcommand.
fn option<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    run::clear_exaclim_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => {
            let rest = &args[1..];
            let smoke = rest.iter().any(|a| a == "--smoke");
            let parsed = (|| {
                Some(RunArgs {
                    workload: option(rest, "--workload")?.to_string(),
                    seed: option(rest, "--seed").map_or(Some(1), |s| s.parse().ok())?,
                    seconds: option(rest, "--seconds")
                        .map_or(Some(if smoke { 1.0 } else { 10.0 }), |s| s.parse().ok())?,
                    trace: matches!(option(rest, "--trace"), Some("1")),
                    smoke,
                })
            })();
            match parsed {
                Some(a) if a.workload == "all" => report::run_all(&a),
                Some(a) => run::run(&a),
                None => usage(),
            }
        }
        Some("calibrate") => {
            let rest = &args[1..];
            match option(rest, "--runs").and_then(|n| n.parse::<usize>().ok()) {
                Some(runs) if runs >= 2 => report::calibrate(
                    runs,
                    option(rest, "--out"),
                    rest.iter().any(|a| a == "--write-bounds"),
                ),
                _ => usage(),
            }
        }
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2]),
        _ => usage(),
    };
    std::process::exit(code);
}
