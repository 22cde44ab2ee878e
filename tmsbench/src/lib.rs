//! Workload benchmark for the trace → timing-model pipeline.
//!
//! One command runs one named workload for a fixed wall time and prints,
//! as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). README.md in this
//! directory has the metric catalogue and why each workload exists.

pub mod inputs;
pub mod layers;
pub mod stats;
pub mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Co-deployed generated apps through the pipelined Fig. 2 flow.
    Live,
    /// Fused decode + synthesis of in-memory city recordings.
    Replay,
    /// Per-window synthesis and drift judgment on faulted apps.
    Monitor,
    /// The sharded multi-tenant ingestion service.
    Fleet,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::Live,
        Workload::Replay,
        Workload::Monitor,
        Workload::Fleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Live => "live",
            Workload::Replay => "replay",
            Workload::Monitor => "monitor",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the generated inputs are. `Smoke` exists for the
/// benchmark's own tests, which run unoptimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// One small world per workload.
    Smoke,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall seconds the measurement loop runs.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    pub size: Size,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Exact counters of a traced run (empty for `--trace 0`).
    pub counters: Option<layers::Counters>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Minimum set-up repetitions, and the wall time that ends repetition
/// once the minimum is met (at most [`MAX_SETUPS`]).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_TARGET_SECS: f64 = 0.5;

/// Generates the inputs and sets them up, repeatedly; returns the last
/// set-up and the median set-up time.
fn setup_repeatedly(opts: &Options) -> (inputs::Inputs, workloads::Prepared, f64, usize) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = inputs::generate(opts.workload, opts.seed, opts.size);
        let prepared = workloads::setup(opts.workload, &inputs);
        times.push(t.elapsed().as_secs_f64());
        let total: f64 = times.iter().sum();
        if times.len() >= MAX_SETUPS || (times.len() >= MIN_SETUPS && total >= SETUP_TARGET_SECS) {
            return (inputs, prepared, stats::median(&times), times.len());
        }
    }
}

/// Runs one workload and collects its report.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn run_untraced(opts: &Options) -> Report {
    let (inputs, prepared, setup_s, setups) = setup_repeatedly(opts);
    let m = workloads::measure(opts.workload, &inputs, &prepared, opts.seconds);
    let mut verdicts = m.verdicts_us.clone();
    verdicts.sort_by(f64::total_cmp);
    let tail = stats::tail_quantile(verdicts.len());
    let attempted = m.attempted + prepared.attempted;
    let failed = m.failed + prepared.failed;
    let busy = m.busy.as_secs_f64();
    let metrics = vec![
        metric("events_per_s", m.events as f64 / busy, "ev/s"),
        metric("setup_s", setup_s, "s"),
        metric("verdict_p50_us", stats::quantile(&verdicts, 0.5), "us"),
        metric("verdict_p99_us", stats::quantile(&verdicts, tail), "us"),
        metric(
            "peak_rss_mib",
            stats::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
    ];
    let notes = vec![
        format!(
            "{}: {} jobs, {} events in {busy:.3} s of timed work; setup median of {setups}",
            opts.workload.name(),
            m.jobs,
            m.events
        ),
        format!(
            "verdicts: {} samples; verdict_p99_us reports p{}",
            verdicts.len(),
            (tail * 100.0).round()
        ),
        format!(
            "error_rate: {} ({failed} of {attempted} segments failed)",
            failed as f64 / attempted.max(1) as f64
        ),
    ];
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        counters: None,
    }
}

fn run_traced(opts: &Options) -> Report {
    let inputs = inputs::generate(opts.workload, opts.seed, opts.size);
    let prepared = workloads::setup(opts.workload, &inputs);
    let t = layers::run(&inputs, &prepared.directories, opts.seconds);
    let (s, c) = (&t.spans, &t.counters);
    let per_event = |d: Duration| d.as_nanos() as f64 / s.events.max(1) as f64;
    let mean = |d: Duration, n: u64, scale: f64| d.as_secs_f64() * scale / n.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let coverage = ratio(
        s.sequential_layers().as_secs_f64(),
        s.traced_wall.as_secs_f64(),
    );
    let count = |name, v: u64| metric(name, v as f64, "count");
    let seconds = |d: Duration| d.as_secs_f64();
    let metrics = vec![
        metric("ros2.run_bare_ns_per_event", per_event(s.bare_run), "ns"),
        metric(
            "ebpf.probe_ns_per_event",
            per_event(s.traced_run) - per_event(s.bare_run),
            "ns",
        ),
        metric("ebpf.drain_ns_per_event", per_event(s.drain), "ns"),
        metric("trace.sort_ns_per_event", per_event(s.sort), "ns"),
        metric("core.feed_ns_per_event", per_event(s.feed), "ns"),
        metric("core.replay_ns_per_event", per_event(s.replay), "ns"),
        metric("trace.codec.decode_ns_per_event", per_event(s.decode), "ns"),
        metric("trace.codec.encode_ns_per_event", per_event(s.encode), "ns"),
        metric(
            "trace.codec.bytes_per_event",
            ratio(c.encoded_bytes as f64, c.trace_events as f64),
            "B",
        ),
        metric("core.model_ms", mean(s.model, s.models, 1e3), "ms"),
        metric(
            "core.window_feed_us",
            mean(s.window_feed, s.windows, 1e6),
            "us",
        ),
        metric(
            "core.window_model_us",
            mean(s.window_model, s.windows, 1e6),
            "us",
        ),
        metric("monitor.observe_us", mean(s.observe, s.windows, 1e6), "us"),
        metric(
            "monitor.baseline_ms",
            mean(s.baseline, s.baselines, 1e3),
            "ms",
        ),
        metric(
            "util.spsc.consumer_wait_ns_per_event",
            per_event(s.consumer_wait),
            "ns",
        ),
        metric(
            "util.spsc.pipeline_speedup",
            ratio(seconds(s.sequential_wall), seconds(s.pipelined_wall)),
            "ratio",
        ),
        metric("layers.coverage", coverage, "ratio"),
        metric(
            "bench.span_overhead",
            ratio(seconds(s.traced_wall), seconds(s.sequential_wall)),
            "ratio",
        ),
        count("trace.events", c.trace_events),
        count("sched.events", c.sched_events),
        count("sched.heap_pushes", c.heap_pushes),
        count("sched.stale_pops", c.stale_pops),
        count("sched.switches", c.switches),
        metric(
            "sched.rebalance_skip_ratio",
            ratio(
                c.rebalance_skipped as f64,
                (c.rebalance_runs + c.rebalance_skipped) as f64,
            ),
            "ratio",
        ),
        count("ebpf.kernel_seen", c.kernel_seen),
        count("ebpf.kernel_exported", c.kernel_exported),
        metric("ebpf.trace_bytes", c.trace_bytes as f64, "B"),
        count("core.peak_watermark", c.peak_watermark),
        count("core.retained_entries", c.retained_entries),
        count("core.model_vertices", c.model_vertices),
        count("core.model_edges", c.model_edges),
        count("monitor.alerts", c.alerts),
        count("monitor.faults_detected", c.faults_detected),
        count("fleet.segments", c.fleet_segments),
        metric(
            "fleet.dedup_ratio",
            ratio(c.fleet_alerts as f64, c.fleet_causes as f64),
            "ratio",
        ),
        count(
            "fleet.peak_session_watermark",
            c.fleet_peak_session_watermark,
        ),
        metric(
            "fleet.peak_baseline_bytes",
            c.fleet_peak_baseline_bytes as f64,
            "B",
        ),
        count(
            "fleet.peak_retained_episodes",
            c.fleet_peak_retained_episodes,
        ),
    ];
    // Layer-sum self-check: the sequential layer spans must account for
    // the sequential traced wall time within 10 %.
    let covered = (0.9..=1.1).contains(&coverage);
    let attempted = t.attempted + prepared.attempted + 1;
    let failed = t.failed + prepared.failed + u64::from(!covered);
    let notes = vec![
        format!(
            "{} traced: {} trace events probed, {} windows; {} faults detected of {} injected",
            opts.workload.name(),
            s.events,
            s.windows,
            c.faults_detected,
            c.faults_injected
        ),
        format!(
            "layers.coverage {coverage:.4} (self-check 0.9..=1.1: {})",
            if covered { "ok" } else { "FAILED" }
        ),
        format!(
            "error_rate: {} ({failed} of {attempted} checks failed)",
            failed as f64 / attempted as f64
        ),
    ];
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        counters: Some(t.counters),
    }
}
