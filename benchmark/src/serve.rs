//! The serving workloads: an open-loop Poisson generator at three fixed
//! rates, and one closed-loop client pushing full frames through
//! `infer_tiled`. Same server, same checkpoint, two ways of using the
//! batcher.

use crate::adapter::{
    census_start, census_stop, serve_setup, Census, Metrics, RequestRecord, ServeSetup, ServeStats,
    WARM_FRAMES,
};
use crate::run::{Outcome, RunArgs};
use crate::stats::{
    arrival_schedule, backlog_growing, goodput, median, percentile, phase_passes,
    supported_percentile, PhaseOutcome,
};
use crate::trace::{render_table, Row, TraceSink};
use std::path::Path;
use std::time::{Duration, Instant};

/// Offered rates, requests per second, and the share of the window each
/// gets. The first carries the latency metrics: low enough that three
/// requests in four find a free replica, so the median and the upper
/// quartile sit inside one mode of the latency distribution and repeat
/// (at 40 req/s the upper quartile straddles "served at once" and "queued
/// behind a batch" and read 24 to 36 ms from one seed to the next). The
/// second is loaded but sustainable; the third is half again what the two
/// replicas can serve, so the server saturates and the completion rate is
/// its capacity. Fixed once from the seed tree (unloaded latency ≈ 17 ms,
/// saturation ≈ 100 req/s on this 2-core host), then frozen.
const RATES: [f64; 3] = [30.0, 60.0, 150.0];
const SHARES: [f64; 3] = [0.55, 0.25, 0.20];
/// A request later than this has missed.
const LIMIT_MS: f64 = 100.0;
/// The latency percentile the limit applies to. It is a per-layer
/// diagnostic: one 200 ms stall of the host delays a dozen requests and
/// moves it from 45 ms to 130 ms, so it cannot gate.
const TAIL: f64 = 0.95;
/// The latency percentile reported end to end as the tail: the highest
/// that repeats on this host.
const STEADY_TAIL: f64 = 0.75;
/// Backlog growth over half a phase that a stable queue does not show:
/// two full batches (`ServeConfig::default().max_batch` is 8).
const BACKLOG_SLACK: usize = 16;
/// A reply that takes longer than this after the last request was due
/// counts as unanswered.
const GRACE_S: f64 = 1.0;
/// Replies checked bit for bit against a direct forward of the checkpoint.
const CHECKED_REPLIES: usize = 16;
/// The tail of frame time reported end to end: a window holds about
/// forty frames, so p75 is the highest percentile with ten beyond it.
const FRAME_TAIL: f64 = 0.75;

pub fn run(workload: &str, args: &RunArgs, dir: &Path, sink: Option<&TraceSink>) -> Outcome {
    let mut outcome = Outcome::default();
    let setup = args.set_up(
        &mut outcome,
        |old: ServeSetup| {
            old.shutdown();
        },
        || serve_setup(args.seed, dir),
    );
    match workload {
        "serve_poisson" => poisson(setup, args, dir, sink, outcome),
        "serve_tiled" => tiled(setup, args, dir, sink, outcome),
        other => {
            panic!("BENCHMARK.json names workload {other}, which the benchmark does not implement")
        }
    }
}

struct Phase {
    records: Vec<RequestRecord>,
    latency_ms: Vec<f64>,
    outcome: PhaseOutcome,
}

impl Phase {
    /// Replies per second from the first request's due time to the last reply.
    fn completions_per_s(&self) -> f64 {
        let last = self
            .records
            .iter()
            .map(|r| r.completed_s)
            .fold(0.0, f64::max);
        self.records.len() as f64 / (last - self.records[0].due_s)
    }
}

fn summarize(rate: f64, records: Vec<RequestRecord>, reference: &[u64]) -> Phase {
    let latency_ms: Vec<f64> = records
        .iter()
        .map(|r| (r.completed_s - r.due_s) * 1e3)
        .collect();
    let last_due = records.last().map_or(0.0, |r| r.due_s);
    let ok = |r: &RequestRecord| {
        r.shape_ok
            && r.completed_s <= last_due + GRACE_S
            && reference
                .get(r.input)
                .is_none_or(|&want| want == r.reply_hash)
    };
    let failed = records.iter().filter(|r| !ok(r)).count() as u64;
    let within = records
        .iter()
        .zip(&latency_ms)
        .filter(|(r, &l)| ok(r) && l <= LIMIT_MS)
        .count();
    let backlog_at = |t: f64| {
        records
            .iter()
            .filter(|r| r.due_s <= t && r.completed_s > t)
            .count()
    };
    let outcome = PhaseOutcome {
        rate,
        within_limit_per_s: rate * within as f64 / records.len() as f64,
        tail_ms: percentile(&latency_ms, TAIL),
        failed,
        backlog_mid: backlog_at(records[records.len() / 2].due_s),
        backlog_end: backlog_at(last_due),
    };
    Phase {
        records,
        latency_ms,
        outcome,
    }
}

fn poisson(
    setup: ServeSetup,
    args: &RunArgs,
    dir: &Path,
    sink: Option<&TraceSink>,
    mut outcome: Outcome,
) -> Outcome {
    let (reference, direct_forward_ms) =
        setup.reference_hashes(CHECKED_REPLIES.min(setup.request_pool()));

    // A traced run splits the first rate's share into an untraced and a
    // traced half, so tracing overhead is measured within one run.
    let mut plan: Vec<(usize, f64, bool)> = Vec::new();
    for (k, (&rate, &share)) in RATES.iter().zip(&SHARES).enumerate() {
        let n = (rate * share * args.seconds).round().max(4.0);
        if sink.is_some() && k == 0 {
            plan.push((k, n / 2.0, false));
            plan.push((k, n / 2.0, true));
        } else {
            plan.push((k, n, sink.is_some()));
        }
    }
    let mut phases: Vec<(usize, bool, Phase)> = Vec::new();
    let mut census = Census::default();
    let mut next_id = 0;
    for (i, &(k, n, traced)) in plan.iter().enumerate() {
        let due = arrival_schedule(
            args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64),
            RATES[k],
            n as usize,
        );
        if traced {
            census_start();
        }
        let records = setup.open_loop(&due, next_id, sink.filter(|_| traced));
        if traced {
            census.add(&census_stop(records.len()));
        }
        next_id += records.len();
        phases.push((k, traced, summarize(RATES[k], records, &reference)));
    }

    let base_latency: Vec<f64> = phases
        .iter()
        .filter(|(k, traced, _)| *k == 0 && !traced)
        .flat_map(|(_, _, p)| p.latency_ms.iter().copied())
        .collect();
    // One phase per rate for the goodput rule: the untraced one where both exist.
    let of_rate = |k: usize| {
        &phases
            .iter()
            .find(|(pk, _, _)| *pk == k)
            .expect("every rate ran")
            .2
    };
    let per_rate: Vec<PhaseOutcome> = (0..RATES.len()).map(|k| of_rate(k).outcome).collect();
    // End to end: latency where the load is sustainable, throughput where
    // it is not. (Goodput under the limit moves in steps of a whole rate,
    // so it reads the same on every run until it jumps by a third: it is
    // a per-layer diagnostic, `serve.goodput_rps`.)
    outcome.throughput_per_s = of_rate(2).completions_per_s();
    outcome.op_p50_ms = median(&base_latency);
    outcome.op_tail_ms = percentile(&base_latency, STEADY_TAIL);
    for (_, _, p) in &phases {
        outcome.attempted += p.records.len() as u64;
        // Overload is offered on purpose; a late reply there is the
        // measurement. Failures count at the sustainable rates.
        if p.outcome.rate < RATES[2] {
            outcome.failed += p.outcome.failed;
        }
    }
    let checked: usize = phases
        .iter()
        .map(|(_, _, p)| {
            p.records
                .iter()
                .filter(|r| r.input < reference.len())
                .count()
        })
        .sum();
    let mismatched: usize = phases
        .iter()
        .map(|(_, _, p)| {
            p.records
                .iter()
                .filter(|r| {
                    reference
                        .get(r.input)
                        .is_some_and(|&want| want != r.reply_hash)
                })
                .count()
        })
        .sum();
    outcome.check(
        "replies_match_direct_forward",
        mismatched == 0 && checked >= CHECKED_REPLIES.min(outcome.attempted as usize),
        &format!("{checked} replies to {} distinct inputs hash-equal to an eval-mode forward of the same checkpoint", reference.len()),
    );
    outcome.check(
        "reply_shapes",
        phases
            .iter()
            .all(|(_, _, p)| p.records.iter().all(|r| r.shape_ok)),
        "every reply is 1x3x32x32",
    );
    outcome.note("base_rate_samples", base_latency.len() as f64);
    outcome.note("tail_percentile", STEADY_TAIL);
    outcome.note(
        "supported_percentile",
        supported_percentile(base_latency.len()).unwrap_or(0.0),
    );
    outcome.note("goodput_rps", goodput(&per_rate, LIMIT_MS, BACKLOG_SLACK));
    for p in &per_rate {
        outcome.note(&format!("r{}_p95_ms", p.rate), p.tail_ms);
        outcome.note(
            &format!("r{}_passes", p.rate),
            f64::from(u8::from(phase_passes(p, LIMIT_MS, BACKLOG_SLACK))),
        );
        outcome.note(
            &format!("r{}_backlog_growing", p.rate),
            f64::from(u8::from(backlog_growing(p, BACKLOG_SLACK))),
        );
    }

    let Some(sink) = sink else {
        setup.shutdown();
        return outcome;
    };

    let probes = setup.probes(dir, args.probe_budget());
    let setup_metrics = setup.setup_metrics.clone();
    let stats = setup.shutdown();
    let mut layer = |name: &str, v: f64| outcome.layer.push((name.to_string(), v));
    let traced_base: Vec<f64> = phases
        .iter()
        .filter(|(k, t, _)| *k == 0 && *t)
        .flat_map(|(_, _, p)| p.latency_ms.iter().copied())
        .collect();
    let all_records = || phases.iter().flat_map(|(_, _, p)| p.records.iter());
    let late_ms: Vec<f64> = all_records()
        .map(|r| (r.submitted_s - r.due_s).max(0.0) * 1e3)
        .collect();
    let queue_wait: Vec<f64> = base_latency
        .iter()
        .chain(&traced_base)
        .map(|l| (l - stats.service_ms_p50).max(0.0))
        .collect();
    layer("serve.queue_wait_ms_p95", percentile(&queue_wait, TAIL));
    layer(
        "serve.goodput_rps",
        goodput(&per_rate, LIMIT_MS, BACKLOG_SLACK),
    );
    layer("serve.latency_p95_ms_r1", per_rate[0].tail_ms);
    layer("serve.latency_p95_ms_r2", per_rate[1].tail_ms);
    layer("serve.latency_p95_ms_r3", per_rate[2].tail_ms);
    layer("serve.backlog_end_r3", per_rate[2].backlog_end as f64);
    layer("serve.generator_late_ms_p95", percentile(&late_ms, TAIL));
    layer("models.forward_ms", direct_forward_ms);
    let overhead = median(&traced_base) / outcome.op_p50_ms - 1.0;
    shared_layers(
        &mut layer,
        &stats,
        &census,
        overhead,
        &setup_metrics,
        &probes,
    );

    let rows: Vec<Row> = phases
        .iter()
        .filter(|(_, traced, _)| *traced)
        .flat_map(|(_, _, p)| p.records.iter())
        .enumerate()
        .map(|(i, r)| Row {
            id: i.to_string(),
            wall_ms: (r.completed_s - r.due_s) * 1e3,
            parts_ms: vec![
                (r.submitted_s - r.due_s) * 1e3,
                (r.completed_s - r.submitted_s) * 1e3,
            ],
        })
        .collect();
    outcome.table = render_table(
        "traced requests, all three rates: latency from the instant each was due, milliseconds",
        &["bench.generator_late", "serve.queue_batch_forward"],
        &rows,
        12,
    );
    outcome.spans = sink.snapshot();
    outcome
}

/// The per-layer metrics both serving workloads report the same way: the
/// server's own counters, the kernel census, tracing overhead, and what
/// set-up and the probes measured.
fn shared_layers(
    layer: &mut impl FnMut(&str, f64),
    stats: &ServeStats,
    census: &Census,
    trace_overhead: f64,
    setup_metrics: &Metrics,
    probes: &Metrics,
) {
    layer("serve.service_ms_p50", stats.service_ms_p50);
    layer("serve.service_ms_p95", stats.service_ms_p95);
    layer("serve.mean_batch", stats.mean_batch);
    layer("serve.full_flush_share", stats.full_flush_share);
    layer("serve.deadline_flush_share", stats.deadline_flush_share);
    layer("serve.queue_high", stats.queue_high);
    for (name, v) in census.per_op() {
        layer(&name, v);
    }
    layer("bench.trace_overhead_pct", trace_overhead * 100.0);
    for (name, v) in setup_metrics.iter().chain(probes) {
        layer(name, *v);
    }
}

fn tiled(
    setup: ServeSetup,
    args: &RunArgs,
    dir: &Path,
    sink: Option<&TraceSink>,
    mut outcome: Outcome,
) -> Outcome {
    /// Frames between switching tracing on and off in a traced run.
    const BLOCK: usize = 4;
    let tiles = setup.tiles_per_frame();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut hashes = Vec::new();
    let mut census = Census::default();
    let t_window = Instant::now();
    let mut frame_no = 0usize;
    loop {
        let traced = sink.is_some() && (frame_no / BLOCK) % 2 == 1;
        if traced && frame_no.is_multiple_of(BLOCK) {
            census_start();
        }
        let t0 = Instant::now();
        let (ms, hash) = setup.tiled_frame();
        if let Some(sink) = sink.filter(|_| traced) {
            sink.record(
                "frame",
                "serve",
                "",
                frame_no.to_string(),
                t0,
                Instant::now(),
            );
        }
        if traced && frame_no % BLOCK == BLOCK - 1 {
            census.add(&census_stop(BLOCK));
        }
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
        hashes.push(hash);
        frame_no += 1;
        let whole_blocks = frame_no.is_multiple_of(2 * BLOCK);
        if Instant::now() >= deadline && (sink.is_none() || whole_blocks) {
            break;
        }
    }
    let window_s = t_window.elapsed().as_secs_f64();

    outcome.op_p50_ms = median(&plain_ms);
    outcome.op_tail_ms = percentile(&plain_ms, FRAME_TAIL);
    // Closed loop, one client: capacity is the window rate while a frame
    // is in flight. Medians, so one stalled frame does not set the number.
    outcome.throughput_per_s = tiles as f64 / (outcome.op_p50_ms / 1e3);
    outcome.attempted = frame_no as u64;
    outcome.check(
        "frame_hash_stable",
        hashes.iter().all(|&h| h == hashes[0]),
        &format!("{} frames of one input blend to hash {:016x}, however the batcher grouped their windows", hashes.len(), hashes[0]),
    );
    outcome.check(
        "queue_drained",
        setup.queue_depth() == 0,
        "no window left queued after the last frame",
    );
    outcome.note("frames", frame_no as f64);
    outcome.note("window_s", window_s);
    outcome.note("tail_percentile", FRAME_TAIL);
    outcome.note(
        "supported_percentile",
        supported_percentile(plain_ms.len()).unwrap_or(0.0),
    );

    let Some(sink) = sink else {
        setup.shutdown();
        return outcome;
    };

    let probes = setup.probes(dir, args.probe_budget());
    let setup_metrics = setup.setup_metrics.clone();
    let stats = setup.shutdown();
    let mut layer = |name: &str, v: f64| outcome.layer.push((name.to_string(), v));
    layer("serve.tiles_per_frame", tiles as f64);
    let overhead = median(&traced_ms) / outcome.op_p50_ms - 1.0;
    shared_layers(
        &mut layer,
        &stats,
        &census,
        overhead,
        &setup_metrics,
        &probes,
    );

    // From outside, a frame is one call. What the replicas report at
    // shutdown is spread evenly over the frames they served; the rest of
    // a frame's wall time (crop, queue, blend, idle replica) is unaccounted.
    let frames_served = (frame_no + WARM_FRAMES) as f64;
    let service_share_ms = stats.service_total_s * 1e3 / stats.replicas as f64 / frames_served;
    let rows: Vec<Row> = traced_ms
        .iter()
        .enumerate()
        .map(|(i, &ms)| Row {
            id: i.to_string(),
            wall_ms: ms,
            parts_ms: vec![service_share_ms],
        })
        .collect();
    outcome.table = render_table(
        "traced frames: wall time of infer_tiled, milliseconds\n(serve.replica_busy = batch service time summed over replicas / replicas / frames served)",
        &["serve.replica_busy"],
        &rows,
        12,
    );
    outcome.spans = sink.snapshot();
    outcome
}
