//! The training workloads: set-up, the timed window of fixed-size chunks,
//! the correctness checks, and the per-layer numbers of a traced run.
//!
//! A chunk is one call of the trainer for a fixed number of steps from a
//! freshly built model, so at one seed every chunk does the same
//! arithmetic: its final loss and parameter hash must repeat exactly, in
//! this run and the next. Chunks repeat until `--seconds` have passed;
//! timings are pooled over chunks and reported as medians.

use crate::adapter::{train_setup, Census, ChunkOut, TrainKind, TrainSetup};
use crate::run::{Outcome, RunArgs};
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::{render_table, Row, TraceSink};
use std::path::Path;
use std::time::{Duration, Instant};

/// The parts of a step the table accounts for, and their columns in a row.
const COLUMNS: [&str; 6] = [
    "pipeline.next_batch",
    "models.forward",
    "models.backward",
    "distrib.comm_exposed",
    "distrib.optim_exposed",
    "pipeline.on_step_timing",
];
const WAIT: usize = 0;
const FORWARD: usize = 1;
const BACKWARD: usize = 2;
const COMM_EXPOSED: usize = 3;
const OPTIM_EXPOSED: usize = 4;
const ON_STEP_TIMING: usize = 5;

struct Timed {
    /// Step times of the timed steps, milliseconds.
    step_ms: Vec<f64>,
    samples_per_s: f64,
}

fn timed(out: &ChunkOut, kind: TrainKind) -> Timed {
    let spec = kind.spec();
    let bounds = &out.entries[spec.warm_steps..];
    let step_ms: Vec<f64> = bounds
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    let wall = (*bounds.last().expect("entries") - bounds[0]).as_secs_f64();
    let samples = (spec.ranks * spec.local_batch * step_ms.len()) as f64;
    Timed {
        step_ms,
        samples_per_s: samples / wall,
    }
}

fn tail_loss(losses: &[f64]) -> f64 {
    let last = &losses[losses.len().saturating_sub(10)..];
    last.iter().sum::<f64>() / last.len() as f64
}

pub fn run(kind: TrainKind, args: &RunArgs, dir: &Path, sink: Option<&TraceSink>) -> Outcome {
    let spec = kind.spec();
    let mut outcome = Outcome::default();

    // Set-up ends with a short untimed training run, which fills the
    // buffer pool and faults the working set in.
    let data_dir = dir.join("setup");
    let setup = args.set_up(
        &mut outcome,
        |old: TrainSetup| {
            drop(old);
            let _ = std::fs::remove_dir_all(&data_dir);
        },
        || {
            std::fs::create_dir_all(&data_dir).expect("create the set-up directory");
            let built = train_setup(kind, args.seed, &data_dir);
            built.chunk(spec.warm_steps, None, 0);
            built
        },
    );

    // The window: whole chunks until the time is up. A traced run
    // alternates plain and traced chunks, so both see the same machine.
    let steps = spec.warm_steps + spec.timed_steps;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced): (Vec<ChunkOut>, Vec<ChunkOut>) = (Vec::new(), Vec::new());
    let mut chunk_no = 0;
    loop {
        let trace_this = sink.is_some() && chunk_no % 2 == 1;
        let out = setup.chunk(steps, sink.filter(|_| trace_this), chunk_no * steps);
        if trace_this { &mut traced } else { &mut plain }.push(out);
        chunk_no += 1;
        let both = sink.is_none() || !traced.is_empty();
        if Instant::now() >= deadline && both {
            break;
        }
    }

    // End to end, from the untraced chunks only.
    let plain_timed: Vec<Timed> = plain.iter().map(|c| timed(c, kind)).collect();
    let pooled: Vec<f64> = plain_timed
        .iter()
        .flat_map(|t| t.step_ms.iter().copied())
        .collect();
    outcome.throughput_per_s = median(
        &plain_timed
            .iter()
            .map(|t| t.samples_per_s)
            .collect::<Vec<_>>(),
    );
    outcome.op_p50_ms = median(&pooled);
    outcome.op_tail_ms = percentile(&pooled, spec.tail);
    outcome.note("timed_steps", pooled.len() as f64);
    outcome.note("chunks", (plain.len() + traced.len()) as f64);
    outcome.note("tail_percentile", spec.tail);
    outcome.note(
        "supported_percentile",
        supported_percentile(pooled.len()).unwrap_or(0.0),
    );

    // Correctness.
    let all: Vec<&ChunkOut> = plain.iter().chain(&traced).collect();
    let first = all[0];
    let final_loss = tail_loss(&first.losses);
    for c in &all {
        outcome.attempted += c.losses.len() as u64;
        let bad = c.losses.iter().filter(|l| !l.is_finite()).count() as u64;
        outcome.failed += if c.consistent {
            bad
        } else {
            c.losses.len() as u64
        };
    }
    outcome.check(
        "replicas_consistent",
        all.iter().all(|c| c.consistent),
        "every rank ends every step with identical parameters",
    );
    outcome.check(
        "loss_finite",
        all.iter().all(|c| !c.diverged),
        "no step produced a non-finite loss",
    );
    if spec.must_learn {
        outcome.check(
            "loss_falls",
            final_loss < first.losses[0],
            &format!("final {final_loss:.6} vs first step {:.6}", first.losses[0]),
        );
    }
    outcome.check(
        "chunks_repeat_bitwise",
        all.iter().all(|c| {
            c.param_hash == first.param_hash
                && tail_loss(&c.losses).to_bits() == final_loss.to_bits()
        }),
        &format!(
            "parameter hash {:016x} and final loss identical in all {} chunks, traced or not",
            first.param_hash,
            all.len()
        ),
    );
    if let (Some(auto), Some(pinned)) = (
        setup.delivered_hash(64, true),
        setup.delivered_hash(64, false),
    ) {
        outcome.check(
            "ingest_content_worker_invariant",
            auto == pinned,
            &format!("first 64 samples hash {auto:016x} autoscaled, {pinned:016x} with one reader"),
        );
    }
    outcome.note_str("param_hash", format!("{:016x}", first.param_hash));
    outcome.note("final_loss", final_loss);
    outcome.note("first_loss", first.losses[0]);

    let Some(sink) = sink else { return outcome };

    // Per layer, from the traced chunks: one row per timed step of rank 0.
    let mut layer = |name: &str, v: f64| outcome.layer.push((name.to_string(), v));
    let mut rows = Vec::new();
    let mut census = Census::default();
    for (k, c) in traced.iter().enumerate() {
        let global = (2 * k + 1) * steps;
        for (j, &wall) in timed(c, kind).step_ms.iter().enumerate() {
            let i = spec.warm_steps + j;
            let parts = [
                c.waits_s[i],
                c.forward_s[i],
                c.backward_s[i],
                c.exposed_comm_s[i],
                c.optim_exposed_s[i],
                c.feedback_s[i],
            ];
            rows.push(Row {
                id: format!("0:{}", global + i),
                wall_ms: wall,
                parts_ms: parts.iter().map(|s| s * 1e3).collect(),
            });
        }
        if let Some(cs) = &c.census {
            census.add(cs);
        }
    }
    let column = |c: usize| rows.iter().map(|r| r.parts_ms[c]).collect::<Vec<f64>>();
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mean = |f: &dyn Fn(&ChunkOut) -> f64| mean_of(&traced.iter().map(f).collect::<Vec<_>>());
    let step_ms: Vec<f64> = rows.iter().map(|r| r.wall_ms).collect();
    let (wait_ms, fwd_ms, bwd_ms) = (column(WAIT), column(FORWARD), column(BACKWARD));
    let (exposed_ms, feedback_ms) = (
        mean_of(&column(COMM_EXPOSED)),
        mean_of(&column(ON_STEP_TIMING)),
    );
    let busy_ms = mean(&|c| c.comm_busy_s_per_step) * 1e3;
    let traced_p50 = median(&step_ms);
    layer("distrib.step_ms", traced_p50);
    layer("distrib.step_p90_ms", percentile(&step_ms, 0.90));
    layer(
        "distrib.other_ms",
        mean_of(&rows.iter().map(Row::remainder_ms).collect::<Vec<_>>()),
    );
    layer(
        "distrib.control_msgs_per_step",
        mean(&|c| c.control_msgs_per_step),
    );
    layer("distrib.exposed_comm_ms", exposed_ms);
    layer("distrib.comm_busy_ms", busy_ms);
    let overlap = if busy_ms > 0.0 {
        (1.0 - exposed_ms / busy_ms).clamp(0.0, 1.0)
    } else {
        0.0
    };
    layer("distrib.overlap_fraction", overlap);
    layer("distrib.optim_exposed_ms", mean_of(&column(OPTIM_EXPOSED)));
    layer(
        "distrib.optim_busy_ms",
        mean(&|c| c.optim_busy_s_per_step) * 1e3,
    );
    layer(
        "distrib.allreduce_launches_per_step",
        mean(&|c| c.allreduce_launches_per_step),
    );
    layer(
        "distrib.wire_bytes_per_step",
        mean(&|c| c.wire_bytes_per_step),
    );
    layer("distrib.final_loss", final_loss);

    let (fwd, bwd) = (median(&fwd_ms), median(&bwd_ms));
    let model_flops: f64 = census.flops.iter().sum::<f64>() / census.ops;
    layer("models.forward_ms", fwd);
    layer("models.backward_ms", bwd);
    layer("models.params", setup.model_params() as f64);
    layer(
        "models.train_flops_per_sample",
        setup
            .spec_train_flops_per_sample()
            .unwrap_or(model_flops / spec.local_batch as f64),
    );
    layer(
        "models.achieved_gflops",
        model_flops / 1e9 / ((fwd + bwd) / 1e3),
    );
    for (name, v) in census.per_op() {
        layer(&name, v);
    }

    layer("pipeline.next_batch_wait_ms_p50", median(&wait_ms));
    layer(
        "pipeline.next_batch_wait_ms_p95",
        percentile(&wait_ms, 0.95),
    );
    layer(
        "pipeline.wait_share",
        wait_ms.iter().sum::<f64>() / step_ms.iter().sum::<f64>(),
    );
    layer("pipeline.on_step_timing_ms", feedback_ms);
    layer(
        "pipeline.step_share",
        (wait_ms.iter().sum::<f64>() + feedback_ms * rows.len() as f64)
            / step_ms.iter().sum::<f64>(),
    );
    layer(
        "pipeline.workers_final",
        traced.last().map_or(0.0, |c| c.workers_final as f64),
    );

    layer(
        "bench.trace_overhead_pct",
        (traced_p50 / outcome.op_p50_ms - 1.0) * 100.0,
    );
    for (name, v) in setup
        .setup_metrics
        .iter()
        .chain(&setup.probes(dir, args.probe_budget()))
    {
        layer(name, *v);
    }

    outcome.table = render_table(
        "rank 0, traced timed steps: self time of each part, milliseconds\n(unaccounted = loss, cast, control-plane coordinate, loss all-reduce, replica audit: distrib.other_ms)",
        &COLUMNS,
        &rows,
        12,
    );
    outcome.spans = sink.snapshot();
    outcome
}
