//! Many runs at once: `run --workload all`, `calibrate` (the spread of
//! every end-to-end metric over seeds, and the bounds that follow from
//! it) and `compare` (two such sets of runs against those bounds).
//!
//! Every run is a process of its own, so peak memory and lazy
//! initialisation are each workload's own.

use crate::json::{parse, Value};
use crate::run::{
    bench_dir, contract_metrics, contract_workloads, host_fingerprint, read_contract, RunArgs,
};
use crate::stats::{calibrated_bound, median, spread, verdict, worsening, Better, Verdict};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The largest bound the contract allows, which set-up time gets.
const BOUND_CAP: f64 = 0.25;

/// The bound a metric gets when its measured spread asks for no more.
fn floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => BOUND_CAP,
        "throughput_per_s" | "op_p50_ms" => 0.05,
        _ => 0.10,
    }
}

/// Runs one workload in a child process, passing its output through.
/// Returns the parsed last line.
fn run_child(args: &RunArgs, quiet: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ])
    .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !quiet {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{} seed {}: exited with {status}",
            args.workload, args.seed
        ));
    }
    parse(&last).map_err(|e| {
        format!(
            "{} seed {}: last line is not a result: {e}",
            args.workload, args.seed
        )
    })
}

fn is_correct(result: &Value) -> bool {
    matches!(result.get("correct"), Some(Value::Bool(true)))
}

/// `run --workload all`: every workload of the contract, one after another.
pub fn run_all(args: &RunArgs) -> i32 {
    let contract = match read_contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for workload in contract_workloads(&contract) {
        match run_child(
            &RunArgs {
                workload: workload.clone(),
                ..args.clone()
            },
            false,
        ) {
            Ok(result) if is_correct(&result) => {}
            Ok(_) => {
                eprintln!("bench: {workload}: outputs are not correct");
                code = 1;
            }
            Err(e) => {
                eprintln!("bench: {e}");
                code = 1;
            }
        }
    }
    code
}

/// `calibrate --runs N`: every workload at seeds 1..=N, untraced. Writes
/// every value, each metric's spread per workload, the bound that
/// follows, and the host, to `out`; with `write_bounds`, also the bounds
/// into `BENCHMARK.json`.
pub fn calibrate(runs: usize, out: Option<&str>, write_bounds: bool) -> i32 {
    let mut contract = match read_contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}");
            return 2;
        }
    };
    let seconds = contract
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(10.0);
    let metrics: Vec<String> = contract_metrics(&contract, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mut by_workload = Vec::new();
    let mut worst = vec![0.0f64; metrics.len()];
    for workload in contract_workloads(&contract) {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
        for seed in 1..=runs as u64 {
            let args = RunArgs {
                workload: workload.clone(),
                seed,
                seconds,
                trace: false,
                smoke: false,
            };
            let result = match run_child(&args, true) {
                Ok(r) if is_correct(&r) => r,
                Ok(_) => {
                    eprintln!("bench: {workload} seed {seed}: outputs are not correct");
                    return 1;
                }
                Err(e) => {
                    eprintln!("bench: {e}");
                    return 1;
                }
            };
            for (m, name) in metrics.iter().enumerate() {
                let v = result
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .and_then(|x| x.get("value"))
                    .and_then(Value::as_f64);
                values[m].push(v.unwrap_or(f64::NAN));
            }
            eprintln!("calibrate: {workload} seed {seed} done");
        }
        let mut members = Vec::new();
        for (m, name) in metrics.iter().enumerate() {
            let s = spread(&values[m]);
            println!(
                "{workload} {name} median {} spread {:.4}",
                median(&values[m]),
                s
            );
            worst[m] = worst[m].max(s);
            members.push((
                name.clone(),
                Value::obj([
                    (
                        "values",
                        Value::Arr(values[m].iter().map(|&v| Value::Num(v)).collect()),
                    ),
                    ("median", Value::Num(median(&values[m]))),
                    ("spread", Value::Num(s)),
                ]),
            ));
        }
        by_workload.push((workload, Value::Obj(members)));
    }

    let mut code = 0;
    let mut bounds = Vec::new();
    for (m, name) in metrics.iter().enumerate() {
        let bound = calibrated_bound(floor(name), worst[m], BOUND_CAP);
        println!("bound {name} {bound} (widest spread {:.4})", worst[m]);
        // Set-up is judged on the drift of its median, not on its spread.
        if name != "setup_s" && 3.0 * worst[m] > bound {
            println!("bound {name}: the spread is more than a third of the bound, so small regressions will read unresolved");
        }
        if name != "setup_s" && worst[m] > bound {
            println!("bound {name}: the spread exceeds the widest bound the contract allows; this metric cannot gate on this host");
            code = 1;
        }
        bounds.push((name.clone(), Value::Num(bound)));
    }

    let file = Value::obj([
        ("host", host_fingerprint()),
        ("runs", Value::Num(runs as f64)),
        ("seconds", Value::Num(seconds)),
        ("bounds", Value::Obj(bounds.clone())),
        ("workloads", Value::Obj(by_workload)),
    ]);
    let out = out.map_or_else(
        || bench_dir().join("out/calibration.json"),
        std::path::PathBuf::from,
    );
    if let Err(e) = std::fs::create_dir_all(out.parent().unwrap_or(&out))
        .and_then(|()| std::fs::write(&out, file.to_pretty()))
    {
        eprintln!("bench: {}: {e}", out.display());
        return 2;
    }
    println!("wrote {}", out.display());

    if write_bounds && code == 0 {
        if let Some(Value::Arr(entries)) = contract.get_mut("end_to_end") {
            for entry in entries {
                let name = entry
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                if let (Some((_, b)), Some(slot)) = (
                    bounds.iter().find(|(n, _)| *n == name),
                    entry.get_mut("bound"),
                ) {
                    *slot = b.clone();
                }
            }
        }
        let path = bench_dir().join("../BENCHMARK.json");
        if let Err(e) = std::fs::write(&path, contract.to_pretty()) {
            eprintln!("bench: {}: {e}", path.display());
            return 2;
        }
        println!("wrote bounds into {}", path.display());
    }
    code
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let arr = file
        .get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    Some(arr.iter().filter_map(Value::as_f64).collect())
}

/// `compare a.json b.json`: two files written by `calibrate`, `a` the
/// base. One row per workload and end-to-end metric, judged against the
/// bound in `BENCHMARK.json`. Exit code 1 if any row is `worse`.
pub fn compare(a: &str, b: &str) -> i32 {
    let (contract, base, new) = match (read_contract(), load(a), load(b)) {
        (Ok(c), Ok(a), Ok(b)) => (c, a, b),
        (c, a, b) => {
            for e in [c.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("bench: {e}");
            }
            return 2;
        }
    };
    println!(
        "{:<20} {:<17} {:>14} {:>14} {:>8} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "new/base",
        "worse by",
        "bound",
        "spread a",
        "spread b"
    );
    let mut any_worse = false;
    for workload in contract_workloads(&contract) {
        for entry in contract
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let text = |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or("");
            let (metric, bound) = (
                text("name"),
                entry.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            );
            let Some(better) = Better::parse(text("better")) else {
                continue;
            };
            let (Some(va), Some(vb)) = (
                values_of(&base, &workload, metric),
                values_of(&new, &workload, metric),
            ) else {
                println!("{workload:<20} {metric:<17} missing from one of the files");
                any_worse = true;
                continue;
            };
            let v = verdict(&va, &vb, better, bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            let sp = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
            println!(
                "{workload:<20} {metric:<17} {ma:>14.4} {mb:>14.4} {:>8.4} {:>+8.2}% {:>6.0}% {:>7.2}% {:>7.2}%  {}",
                mb / ma,
                100.0 * worsening(ma, mb, better),
                100.0 * bound,
                100.0 * sp(&va),
                100.0 * sp(&vb),
                v.label()
            );
        }
    }
    i32::from(any_worse)
}
