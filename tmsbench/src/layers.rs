//! The traced side: per-layer attribution. Every public call into a
//! layer is wrapped in a span from this file, over the same generated
//! worlds the end-to-end loop runs, so no span sits inside the library.
//!
//! For each world the probe runs:
//!
//! 1. a bare run — tracers never started — of an identical world
//!    (sched + executor + DDS);
//! 2. the Fig. 2 loop by hand, sequentially: start tracers / `run_for` /
//!    stop, `collect_segment_into`, `sort_by_time`, `feed_segment`, and
//!    `model()` once, each in its own span;
//! 3. the same flow untraced through `trace_segments_sequential` and
//!    through the pipelined transport (the single-thread baseline and
//!    the two-thread pipeline);
//! 4. encode, decode-only and fused replay of the collected segments;
//! 5. the monitoring flow over the collected segments.
//!
//! Per-event costs are divided by the trace events of step 2.

use crate::inputs::{Inputs, WorldSpec};
use crate::workloads::{detected_faults, fleet_failures};
use rtms_core::SynthesisSession;
use rtms_fleet::TenantDirectory;
use rtms_monitor::{Baseline, Monitor, MonitorConfig};
use rtms_trace::{SegmentReader, SegmentWriter, TraceSegment};
use std::time::{Duration, Instant};

/// Exact counters: totals over one pass of the inputs, identical on
/// every run with the same seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// Trace events collected.
    pub trace_events: u64,
    /// `SimStats` of the traced worlds.
    pub sched_events: u64,
    pub heap_pushes: u64,
    pub stale_pops: u64,
    pub switches: u64,
    pub rebalance_runs: u64,
    pub rebalance_skipped: u64,
    /// Kernel tracer filter: scheduler events seen / exported.
    pub kernel_seen: u64,
    pub kernel_exported: u64,
    /// Bytes accepted into the perf buffers.
    pub trace_bytes: u64,
    /// Encoded segment-file bytes.
    pub encoded_bytes: u64,
    /// Largest session memory watermark of any world.
    pub peak_watermark: u64,
    /// Entries retained by the sessions after the run.
    pub retained_entries: u64,
    /// Vertices and edges of the synthesized models.
    pub model_vertices: u64,
    pub model_edges: u64,
    /// Monitoring flow over the collected segments.
    pub alerts: u64,
    pub faults_injected: u64,
    pub faults_detected: u64,
    /// Fleet runs (`fleet` only).
    pub fleet_segments: u64,
    pub fleet_alerts: u64,
    pub fleet_causes: u64,
    pub fleet_peak_session_watermark: u64,
    pub fleet_peak_baseline_bytes: u64,
    pub fleet_peak_retained_episodes: u64,
    /// Model digests of every world, in input order.
    pub digests: Vec<u64>,
}

/// Accumulated span time per layer, over every probed world.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Trace events of the probed worlds (the per-event divisor).
    pub events: u64,
    pub bare_run: Duration,
    pub traced_run: Duration,
    pub drain: Duration,
    pub sort: Duration,
    pub feed: Duration,
    pub model: Duration,
    pub models: u64,
    /// Wall time of the hand-driven sequential loop (step 2).
    pub traced_wall: Duration,
    /// Untraced sequential and pipelined walls (step 3).
    pub sequential_wall: Duration,
    pub pipelined_wall: Duration,
    pub consumer_wait: Duration,
    pub encode: Duration,
    pub decode: Duration,
    pub replay: Duration,
    pub baseline: Duration,
    pub baselines: u64,
    pub window_feed: Duration,
    pub window_model: Duration,
    pub observe: Duration,
    pub windows: u64,
}

impl Spans {
    /// Sum of the sequential layer spans of step 2.
    pub fn sequential_layers(&self) -> Duration {
        self.traced_run + self.drain + self.sort + self.feed + self.model
    }
}

/// Result of a traced run.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Spans,
    pub counters: Counters,
    pub attempted: u64,
    pub failed: u64,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Probes every input world until `seconds` have passed (at least one
/// pass). Counters come from the first pass only.
pub fn run(inputs: &Inputs, directories: &[TenantDirectory], seconds: f64) -> Traced {
    let mut traced = Traced::default();
    for (config, dir) in inputs.fleets.iter().zip(directories) {
        fleet_counters(config, dir, &mut traced);
    }
    let start = Instant::now();
    let mut pass = 0;
    loop {
        for spec in &inputs.worlds {
            let counters = (pass == 0).then_some(&mut traced.counters);
            let (attempted, failed) =
                probe_world(spec, &inputs.monitor, &mut traced.spans, counters);
            traced.attempted += attempted;
            traced.failed += failed;
        }
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return traced;
        }
    }
}

fn fleet_counters(config: &rtms_fleet::FleetConfig, dir: &TenantDirectory, traced: &mut Traced) {
    let c = &mut traced.counters;
    let segments = (config.tenants * config.plan().total_segments) as u64;
    traced.attempted += segments;
    let Ok(outcome) = rtms_fleet::run(config) else {
        traced.failed += segments;
        return;
    };
    traced.failed += fleet_failures(config, dir, &outcome);
    let r = &outcome.report;
    c.fleet_segments += r.segments;
    c.fleet_alerts += r.alerts;
    c.fleet_causes += r.distinct_causes;
    c.fleet_peak_session_watermark = c
        .fleet_peak_session_watermark
        .max(r.peak_session_watermark as u64);
    c.fleet_peak_baseline_bytes = c
        .fleet_peak_baseline_bytes
        .max(r.peak_baseline_bytes as u64);
    c.fleet_peak_retained_episodes = c
        .fleet_peak_retained_episodes
        .max(r.peak_retained_episodes as u64);
}

/// Probes one world (steps 1–5 of the module docs). Returns
/// `(attempted, failed)` segment checks: every path's model must equal
/// the hand-driven loop's, and every injected fault must be detected.
fn probe_world(
    spec: &WorldSpec,
    monitor_config: &MonitorConfig,
    s: &mut Spans,
    counters: Option<&mut Counters>,
) -> (u64, u64) {
    // 1. Bare run, stepped like the segmented runs.
    let mut world = spec.build();
    world.announce_nodes();
    let end = world.now() + spec.total;
    while world.now() < end {
        let step = spec.segment.min(end - world.now());
        timed(&mut s.bare_run, || world.run_for(step));
    }

    // 2. The Fig. 2 loop, one span per public call.
    let mut world = spec.build();
    let mut session = SynthesisSession::new();
    let mut segments: Vec<TraceSegment> = Vec::with_capacity(spec.segments());
    let wall = Instant::now();
    world.announce_nodes();
    let end = world.now() + spec.total;
    while world.now() < end {
        let step = spec.segment.min(end - world.now());
        timed(&mut s.traced_run, || {
            world.start_runtime_tracers();
            world.run_for(step);
            world.stop_runtime_tracers();
        });
        // A fresh slab per window (the windows are kept for steps 4 and
        // 5), sized like the previous one so the drain span does not
        // time buffer growth.
        let mut segment = TraceSegment::with_index(segments.len());
        if let Some(prev) = segments.last() {
            segment.reserve(prev.ros_events().len(), prev.sched_events().len());
        }
        timed(&mut s.drain, || world.collect_segment_into(&mut segment));
        timed(&mut s.sort, || segment.sort_by_time());
        timed(&mut s.feed, || session.feed_segment(&segment));
        segments.push(segment);
    }
    let model = timed(&mut s.model, || session.model());
    s.traced_wall += wall.elapsed();
    s.models += 1;
    let events: u64 = segments.iter().map(|seg| seg.len() as u64).sum();
    s.events += events;
    let reference = model.digest();
    let n = segments.len() as u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |same: bool| {
        attempted += n;
        if !same {
            failed += n;
        }
    };

    // 3. Untraced sequential and pipelined runs of identical worlds.
    let mut seq_world = spec.build();
    let mut seq = SynthesisSession::new();
    let t = Instant::now();
    seq_world.trace_segments_sequential(spec.total, spec.segment, |segment| {
        seq.feed_segment(segment)
    });
    let seq_model = seq.model();
    s.sequential_wall += t.elapsed();
    check(seq_model.digest() == reference);

    let mut pipe_world = spec.build();
    let mut pipe = SynthesisSession::new();
    let mut last_return: Option<Instant> = None;
    let wait = &mut s.consumer_wait;
    let t = Instant::now();
    pipe_world.trace_segments_pipelined(spec.total, spec.segment, |segment| {
        let entry = Instant::now();
        if let Some(r) = last_return {
            *wait += entry - r;
        }
        pipe.feed_segment(segment);
        last_return = Some(Instant::now());
    });
    let pipe_model = pipe.model();
    s.pipelined_wall += t.elapsed();
    check(pipe_model.digest() == reference);

    // 4. Encode, decode only, fused replay.
    let (file, file_stats) = timed(&mut s.encode, || {
        let mut writer = SegmentWriter::new(Vec::new()).expect("in-memory header");
        for segment in &segments {
            writer.write_segment(segment).expect("in-memory encode");
        }
        writer.finish().expect("in-memory finish")
    });
    let mut scratch = TraceSegment::new();
    let decoded = timed(&mut s.decode, || -> Result<u64, rtms_trace::CodecError> {
        let mut reader = SegmentReader::new(file.as_slice())?;
        let mut n = 0;
        while reader.read_segment_into(&mut scratch)? {
            n += scratch.len() as u64;
        }
        Ok(n)
    });
    check(decoded.ok() == Some(events));
    let mut replayed = SynthesisSession::new();
    let fed = timed(&mut s.replay, || {
        SegmentReader::new(file.as_slice()).and_then(|mut reader| replayed.feed_reader(&mut reader))
    });
    check(fed.is_ok() && replayed.model().digest() == reference);

    // 5. Monitoring flow over the collected segments.
    let baseline_segments = spec.baseline_segments().min(segments.len());
    let mut learn = SynthesisSession::new();
    for segment in &segments[..baseline_segments] {
        learn.feed_segment(segment);
    }
    let mut monitor = timed(&mut s.baseline, || {
        Monitor::with_config(Baseline::from_dag(&learn.model()), monitor_config.clone())
    });
    s.baselines += 1;
    let mut alerts = Vec::new();
    for segment in &segments[baseline_segments..] {
        let window = timed(&mut s.window_feed, || {
            let mut window = SynthesisSession::with_names(learn.names().clone());
            window.feed_segment(segment);
            window
        });
        let snapshot = timed(&mut s.window_model, || window.model());
        let raised = timed(&mut s.observe, || monitor.observe(&snapshot, spec.segment));
        alerts.extend(raised.into_iter().map(|a| (segment.index(), a)));
        s.windows += 1;
    }
    let detected = detected_faults(spec, &alerts);
    attempted += n;
    failed += (spec.truth.len() - detected) as u64;

    if let Some(c) = counters {
        let stats = world.simulator().stats();
        let (seen, exported) = world.kernel_filter_stats();
        c.trace_events += events;
        c.sched_events += stats.events;
        c.heap_pushes += stats.heap_pushes;
        c.stale_pops += stats.stale_pops;
        c.switches += stats.switches;
        c.rebalance_runs += stats.rebalance_runs;
        c.rebalance_skipped += stats.rebalance_skipped;
        c.kernel_seen += seen;
        c.kernel_exported += exported;
        c.trace_bytes += world.trace_volume_bytes() as u64;
        c.encoded_bytes += file_stats.bytes;
        c.peak_watermark = c.peak_watermark.max(session.peak_watermark() as u64);
        c.retained_entries += session.retained_entries() as u64;
        c.model_vertices += model.vertices().len() as u64;
        c.model_edges += model.edges().len() as u64;
        c.alerts += alerts.len() as u64;
        c.faults_injected += spec.truth.len() as u64;
        c.faults_detected += detected as u64;
        c.digests.push(reference);
    }
    (attempted, failed)
}
