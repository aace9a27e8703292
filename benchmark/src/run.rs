//! `bench run`: one workload, one process. Prints every metric as
//! `workload metric value unit`, writes `out/<workload>.json` (and the
//! spans of a traced run), checks the program's outputs, and ends with the
//! one-line JSON result the driver reads.

use crate::adapter::{self, TrainKind};
use crate::json::Value;
use crate::trace::{to_jsonl, Span, TraceSink};
use crate::{serve, train};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The benchmark's own directory, as built.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, parsed. It names every metric and its unit.
pub fn read_contract() -> Result<Value, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit)` of every metric in section `key` of the contract.
pub fn contract_metrics(contract: &Value, key: &str) -> Vec<(String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    contract
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

pub fn contract_workloads(contract: &Value) -> Vec<String> {
    contract_metrics(contract, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// Every workload and metric name, checked against the contract's rule:
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit,
/// at most 64 of them, each name used once.
fn check_names(contract: &Value) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for (name, _) in contract_metrics(contract, section) {
            let ok = !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !ok {
                return Err(format!(
                    "BENCHMARK.json {section}: {name:?} is not a valid name"
                ));
            }
            if !seen.insert(name.clone()) {
                return Err(format!("BENCHMARK.json: the name {name:?} is used twice"));
            }
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the work: for `check.sh`, not for measuring.
    pub smoke: bool,
}

impl RunArgs {
    /// Sets up several times over and records the median time as
    /// `setup_s`: at least three times, and up to seven while all of them
    /// together stay under two seconds, so that cheap set-ups get the
    /// steadier median; once in a smoke run. `retire` disposes of the
    /// previous set-up, untimed, before the next one is built.
    pub fn set_up<T>(
        &self,
        outcome: &mut Outcome,
        mut retire: impl FnMut(T),
        mut build: impl FnMut() -> T,
    ) -> T {
        let mut times_s: Vec<f64> = Vec::new();
        let mut current = None;
        let more = |t: &[f64]| match (self.smoke, t.len()) {
            (true, n) => n < 1,
            (false, n) => n < 3 || (n < 7 && t.iter().sum::<f64>() < 2.0),
        };
        while more(&times_s) {
            if let Some(old) = current.take() {
                retire(old);
            }
            let t0 = std::time::Instant::now();
            current = Some(build());
            times_s.push(t0.elapsed().as_secs_f64());
        }
        outcome.setup_s = crate::stats::median(&times_s);
        outcome.note("setups", times_s.len() as f64);
        current.expect("at least one set-up")
    }

    /// Time each per-layer probe may spend repeating its call.
    pub fn probe_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 5 } else { 50 })
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, passed, what was compared)` of every correctness check.
    pub checks: Vec<(String, bool, String)>,
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    /// Per-layer metrics; empty unless traced.
    pub layer: Vec<(String, f64)>,
    /// Extra facts for `out/<workload>.json` (hashes, sample counts).
    pub notes: Vec<(String, Value)>,
    pub table: String,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: &str) {
        self.checks
            .push((name.to_string(), passed, detail.to_string()));
    }

    pub fn note(&mut self, name: &str, v: f64) {
        self.notes.push((name.to_string(), Value::Num(v)));
    }

    pub fn note_str(&mut self, name: &str, v: String) {
        self.notes.push((name.to_string(), Value::Str(v)));
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// What the numbers were measured on.
pub fn host_fingerprint() -> Value {
    let repo = bench_dir().join("..");
    Value::obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("simd", Value::Str(adapter::simd_level().to_string())),
        (
            "kernel_pool_width",
            Value::Num(adapter::kernel_pool_width() as f64),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(command_line(
                "git",
                &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// Removes every `EXACLIM_*` variable: the crates read eight of them, and
/// a benchmark whose numbers depend on the caller's shell is not one.
pub fn clear_exaclim_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("EXACLIM_"))
        .collect();
    for name in names {
        // Called first thing in `main`, before any thread exists.
        std::env::remove_var(name);
    }
}

/// Runs one workload; returns the process exit code.
pub fn run(args: &RunArgs) -> i32 {
    let contract = match read_contract().and_then(|c| check_names(&c).map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}");
            return 2;
        }
    };
    if !contract_workloads(&contract).contains(&args.workload) {
        eprintln!(
            "bench: unknown workload {:?}; BENCHMARK.json names {:?}",
            args.workload,
            contract_workloads(&contract)
        );
        return 2;
    }
    let out_dir = bench_dir().join("out");
    let work = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("bench: {}: {e}", work.display());
        return 2;
    }

    let sink = args.trace.then(TraceSink::new);
    let outcome = match TrainKind::parse(&args.workload) {
        Some(kind) => train::run(kind, args, &work, sink.as_ref()),
        None => serve::run(&args.workload, args, &work, sink.as_ref()),
    };
    let _ = std::fs::remove_dir_all(&work);
    report(args, &contract, &out_dir, outcome)
}

fn report(args: &RunArgs, contract: &Value, out_dir: &Path, outcome: Outcome) -> i32 {
    let w = &args.workload;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let measured: Vec<(String, f64)> = if args.trace {
        outcome.layer
    } else {
        vec![
            ("setup_s".into(), outcome.setup_s),
            ("throughput_per_s".into(), outcome.throughput_per_s),
            ("op_p50_ms".into(), outcome.op_p50_ms),
            ("op_tail_ms".into(), outcome.op_tail_ms),
            ("peak_rss_mb".into(), peak_rss_mb()),
        ]
    };

    // Every metric the contract names is printed exactly once; a layer
    // this workload does not exercise reads 0. A measured name the
    // contract lacks means the two have drifted apart: refuse.
    let named = contract_metrics(contract, section);
    let mut drifted = false;
    for (name, _) in &measured {
        if !named.iter().any(|(n, _)| n == name) {
            eprintln!("bench: {w} measured {name}, which BENCHMARK.json {section} does not name");
            drifted = true;
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in &named {
        let value = measured
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        println!("{w} {name} {value} {unit}");
        let valid = value.is_finite() && (args.trace || value > 0.0);
        if !valid {
            eprintln!("bench: {w} {name} = {value} is not a usable measurement");
            drifted = true;
        }
        metrics.push((
            name.clone(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.clone())),
            ]),
        ));
    }
    if !outcome.table.is_empty() {
        println!("\n{}", outcome.table);
    }
    for (name, passed, detail) in &outcome.checks {
        println!(
            "{w} check {name} {} ({detail})",
            if *passed { "ok" } else { "FAILED" }
        );
    }
    let correct =
        !drifted && outcome.failed == 0 && outcome.checks.iter().all(|(_, passed, _)| *passed);
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{w} failed_share {share} ratio ({} of {})",
        outcome.failed, outcome.attempted
    );

    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    let checks = outcome.checks.iter().map(|(name, passed, detail)| {
        Value::obj([
            ("name", Value::Str(name.clone())),
            ("passed", Value::Bool(*passed)),
            ("detail", Value::Str(detail.clone())),
        ])
    });
    let file = Value::obj([
        ("workload", Value::Str(w.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("host", host_fingerprint()),
        ("result", result.clone()),
        ("checks", Value::Arr(checks.collect())),
        ("notes", Value::Obj(outcome.notes)),
    ]);
    let stem = if args.trace {
        format!("{w}.traced")
    } else {
        w.clone()
    };
    let written =
        std::fs::write(out_dir.join(format!("{stem}.json")), file.to_pretty()).and_then(|()| {
            if args.trace {
                std::fs::write(
                    out_dir.join(format!("trace-{w}.jsonl")),
                    to_jsonl(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("bench: writing results under {}: {e}", out_dir.display());
        return 2;
    }
    println!("{}", result.to_compact());
    0
}
