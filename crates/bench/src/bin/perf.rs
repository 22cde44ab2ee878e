//! Perf baseline: throughput of the trace→synthesis pipeline over a fixed
//! scenario matrix, as a machine-readable record of the repo's speed.
//!
//! Each scenario co-deploys `apps` generated applications (seeded, so the
//! matrix is identical across machines and commits) and measures, in
//! events per wall-clock second:
//!
//! - **collect** — segmented trace collection only
//!   ([`Ros2World::trace_segments_sequential`] into a dropped segment);
//! - **synthesize** — feeding pre-collected segments through a
//!   [`SynthesisSession`] and reading the model;
//! - **end-to-end** — the full pipeline ([`Ros2World::trace_segments`],
//!   which overlaps collection and synthesis when a second core exists);
//! - **replay** — decoding a recorded binary segment file (see
//!   `docs/TRACE_FORMAT.md`) and synthesizing from it, the
//!   record-once/analyze-many path. Replay skips the simulation
//!   entirely, so its throughput over the e2e number
//!   (`replay_over_e2e`) is the payoff of recording a run.
//!
//! ## Replay columns (bench_format ≥ 2)
//!
//! Three report fields describe the record/replay economics; they are
//! documented here and in docs/EXPERIMENTS.md ("Reading the replay
//! columns"), which cross-links back:
//!
//! - `replay_events_per_sec` / `default_replay_events_per_sec` — events
//!   per second synthesizing from the recorded file (decode + feed,
//!   fastest of ≥5 reps).
//! - `encoded_bytes` — size of the recorded segment file for the
//!   scenario, i.e. what a stored run costs on disk (about 9 B/event).
//! - `replay_over_e2e` — `default_replay / default_e2e`. CI fails if
//!   this ratio drops below **1.5**: replaying a recording must stay
//!   decisively faster than re-simulating, or recording loses its point.
//!
//! ## Fleet columns (bench_format ≥ 4)
//!
//! The report's `fleet` object tracks the sharded multi-tenant ingestion
//! service (`rtms-fleet`, see docs/FLEET.md) on a fixed small scenario —
//! 64 tenants (4 faulted) on 2 shards:
//!
//! - `fleet_events_per_sec` — aggregate ingestion throughput across all
//!   shards. CI fails if this drops more than 2x below the committed
//!   baseline, like the e2e column.
//! - `fleet_p50_ingest_us` / `fleet_p99_ingest_us` — ingest-to-model
//!   latency percentiles (producer handoff → shard has folded the
//!   segment into the tenant's model and judged it). Informational.
//! - `fleet_dedup_ratio` — alerts per distinct cause in the cross-tenant
//!   rollup; gated above 1 (the faulted tenants share one faulty image,
//!   so causes must collapse).
//!
//! ## Scheduler columns (bench_format ≥ 5)
//!
//! The report's `sim` object profiles the discrete-event scheduler alone:
//! the default scenario's world is run bare — tracers never started — and
//! the engine's own [`rtms_sched::SimStats`] counters are reported next
//! to the wall-clock event rate:
//!
//! - `sim_events_per_sec` — bare simulation throughput (fastest of
//!   [`REPS`]), the ceiling the collect column can approach.
//! - `events`, `heap_pushes`, `switches` — totals for the run.
//! - `stale_pop_ratio` — `stale_pops / events`, heap churn from
//!   invalidated completions and slice checks. **Gated in CI** (== 0): a
//!   regression here means per-CPU slot invalidation stopped working and
//!   the heap is filling with dead events again.
//! - `rebalance_skip_ratio` — share of scheduling passes the dirty gate
//!   skipped; `slice_arms` / `slice_suppressed` account the slice-check
//!   suppression the same way. Informational.
//!
//! ## Allocation probe (bench_format ≥ 3)
//!
//! The report's `alloc_probe` object proves the recycled-slab segment
//! transport allocates nothing in steady state. The bench binary installs
//! a counting global allocator (thread-local counters, so threads don't
//! contaminate each other) and runs the default scenario through the
//! pipelined path with a consumer that only inspects segments:
//!
//! - `transport_allocs_steady` — allocations on the consumer/transport
//!   thread between the first and last segment: sort, hand-back, slab
//!   recycle. **Gated at exactly 0 in CI.**
//! - `feeding_allocs_per_segment` — informational: the same path with a
//!   live `SynthesisSession` consuming events. Synthesis legitimately
//!   allocates (its per-write tables grow with the model), so this is
//!   reported, not gated; see "Pipeline internals" in
//!   docs/PERFORMANCE.md for the scoping argument.
//!
//! Every timed phase runs several times and reports its fastest run
//! (see [`REPS`]) so the columns — and the ratios between them — stay
//! meaningful on a noisy shared machine.
//!
//! A harness sweep additionally reports multi-run aggregate throughput at
//! 1 and `threads` worker threads. `out=<path>` writes the JSON report to
//! a file — `out=BENCH_9.json` at the repo root is the committed baseline
//! this PR's CI gate compares against (see docs/PERFORMANCE.md).
//!
//! `record=<path>` and `replay=<path>` short-circuit the matrix: the
//! former records the default scenario to a segment file, the latter
//! measures replay throughput from such a file — together they give the
//! same numbers as the matrix's replay column, but against a real
//! on-disk file.
//!
//! Usage: `cargo run --release -p rtms-bench --bin perf -- [secs=2]
//! [apps=2] [seed=0] [threads=N] [segment_ms=250] [out=path]
//! [record=path] [replay=path] [format=text|json]`

use rtms_bench::{record_to_file, replay_path, Defaults, ExperimentArgs, Harness, RecordMeta};
use rtms_core::SynthesisSession;
use rtms_ros2::{Ros2World, WorldBuilder};
use rtms_trace::{Nanos, SegmentReader, SegmentWriter, TraceSegment};
use rtms_workloads::{generate_app, GeneratorConfig};
use serde::Serialize;
use std::time::Instant;

/// A [`std::alloc::System`] wrapper that counts allocations per thread.
/// The counters are thread-local so the probe can attribute allocations
/// to the pipeline's consumer thread alone — the producer thread runs the
/// simulation, whose state (ground-truth log, DDS queues) legitimately
/// grows with the run.
struct CountingAlloc;

thread_local! {
    /// Allocation events (alloc + realloc) on this thread. `const`
    /// initialization keeps the TLS access itself allocation-free.
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

// SAFETY: pure pass-through to `System`; the only addition is bumping a
// thread-local counter, which cannot allocate or unwind.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: std::alloc::Layout,
        new_size: usize,
    ) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events so far on the calling thread.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(std::cell::Cell::get)
}

/// Segment lengths of the scenario matrix, in simulated milliseconds.
const SEGMENT_MS: [u64; 2] = [50, 250];

#[derive(Serialize)]
struct Scenario {
    name: String,
    apps: u64,
    segment_ms: u64,
    events: u64,
    segments: usize,
    collect_events_per_sec: f64,
    synthesize_events_per_sec: f64,
    e2e_events_per_sec: f64,
    replay_events_per_sec: f64,
    encoded_bytes: u64,
    peak_watermark: usize,
    model_vertices: usize,
}

#[derive(Serialize)]
struct HarnessSweep {
    threads: usize,
    runs: usize,
    events: u64,
    events_per_sec: f64,
}

/// Result of the steady-state allocation probe (see the module docs).
#[derive(Serialize)]
struct AllocProbe {
    /// Segments the probe run produced.
    segments: u64,
    /// Consumer-thread allocations between the first and last segment of
    /// a transport-only run (sort + hand-back + slab recycle). The CI
    /// gate requires exactly 0: steady state must run entirely on
    /// recycled slabs.
    transport_allocs_steady: u64,
    /// Consumer-thread allocations over the whole transport-only run,
    /// including thread startup and the first segment. Informational.
    transport_allocs_total: u64,
    /// Consumer-thread allocations per segment when a live
    /// `SynthesisSession` consumes the events — includes the synthesis
    /// state machine's own (legitimate, model-growth) allocations.
    /// Informational, not gated.
    feeding_allocs_per_segment: f64,
}

/// Scheduler-core columns (see the module docs): the default scenario's
/// world run bare, with the engine's own work counters.
#[derive(Serialize)]
struct SimPerf {
    /// Heap events popped over the run.
    events: u64,
    heap_pushes: u64,
    /// Popped events that were already invalidated. The ratio below is
    /// the gated form.
    stale_pops: u64,
    slice_arms: u64,
    slice_suppressed: u64,
    rebalance_runs: u64,
    rebalance_skipped: u64,
    switches: u64,
    /// `stale_pops / events`; gated == 0 in CI.
    stale_pop_ratio: f64,
    /// `rebalance_skipped / (runs + skipped)` — the dirty gate's hit rate.
    rebalance_skip_ratio: f64,
    /// Bare-simulation throughput, fastest of [`REPS`] runs.
    sim_events_per_sec: f64,
}

/// Fleet-service columns (see the module docs): the fixed 64-tenant
/// scenario's throughput, latency percentiles, and rollup dedup ratio.
#[derive(Serialize)]
struct FleetPerf {
    tenants: usize,
    shards: usize,
    faults: usize,
    events: u64,
    /// Aggregate ingestion throughput; gated in CI against the committed
    /// baseline with the same 2x slack as the e2e column.
    fleet_events_per_sec: f64,
    fleet_p50_ingest_us: f64,
    fleet_p99_ingest_us: f64,
    alerts: u64,
    /// Alerts per distinct rollup cause; gated > 1 in CI.
    fleet_dedup_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    bench_format: u32,
    secs: u64,
    apps: u64,
    seed: u64,
    threads: usize,
    scenarios: Vec<Scenario>,
    harness: Vec<HarnessSweep>,
    /// Throughput of the default scenario (`apps` apps, 250 ms segments),
    /// end-to-end — the single number the CI regression gate tracks.
    default_e2e_events_per_sec: f64,
    /// Replay throughput of the default scenario: decoding its recorded
    /// segment file and synthesizing from it.
    default_replay_events_per_sec: f64,
    /// `default_replay / default_e2e` — how much faster re-analyzing a
    /// recorded run is than collecting and synthesizing it live.
    replay_over_e2e: f64,
    /// Steady-state allocation counts for the pipelined segment
    /// transport; `transport_allocs_steady` is gated at 0 in CI.
    alloc_probe: AllocProbe,
    /// Bare scheduler profile of the default scenario (bench_format ≥ 5);
    /// `stale_pop_ratio` is gated in CI.
    sim: SimPerf,
    /// Sharded multi-tenant ingestion service columns (bench_format ≥ 4).
    fleet: FleetPerf,
}

fn world(apps: u64, seed: u64) -> Ros2World {
    let mut b = WorldBuilder::new(4).seed(seed);
    for i in 0..apps {
        b = b.app(generate_app(seed.wrapping_add(1000 + i), &GeneratorConfig::default()));
    }
    b.build().expect("generated apps deploy")
}

/// Repetitions per timed phase. Every phase reports its *fastest* run:
/// on a shared machine timing noise is strictly additive, so the minimum
/// is the least-contaminated sample, and taking it symmetrically for
/// every column keeps ratios between columns meaningful.
const REPS: usize = 3;

fn run_scenario(apps: u64, segment_ms: u64, args: &ExperimentArgs) -> Scenario {
    let duration = args.duration();
    let seg_len = Nanos::from_millis(segment_ms);

    // Collection only: segments are produced, sorted, and dropped. The
    // world is rebuilt per rep (tracing consumes it) outside the timer.
    let mut collect_secs = f64::INFINITY;
    let mut collected = 0u64;
    for _ in 0..REPS {
        let mut w = world(apps, args.seed());
        collected = 0;
        let t = Instant::now();
        w.trace_segments_sequential(duration, seg_len, |segment| {
            collected += segment.len() as u64;
        });
        collect_secs = collect_secs.min(t.elapsed().as_secs_f64());
    }

    // Synthesis only, over pre-collected segments of a fresh identical
    // world (same seed => same trace).
    let mut w = world(apps, args.seed());
    let mut segments: Vec<TraceSegment> = Vec::new();
    w.trace_segments_sequential(duration, seg_len, |segment| {
        segments.push(std::mem::take(segment));
    });
    let events: u64 = segments.iter().map(|s| s.len() as u64).sum();
    assert_eq!(collected, events, "same seed must produce the same trace");
    let mut synth_secs = f64::INFINITY;
    let mut session = SynthesisSession::new();
    let mut model = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let mut s = SynthesisSession::new();
        for segment in &segments {
            s.feed_segment(segment);
        }
        let m = s.model();
        synth_secs = synth_secs.min(t.elapsed().as_secs_f64());
        session = s;
        model = Some(m);
    }
    let model = model.expect("REPS >= 1");

    // End to end: the adaptive pipeline into a fresh session. Feeding is
    // deliberately by reference — the owned path re-sorts the segment and
    // pays per-event `Arc` refcount churn when the moved events drop, and
    // measures slower; by-ref with `Arc<str>` payloads is already
    // clone-free.
    let mut e2e_secs = f64::INFINITY;
    for _ in 0..REPS {
        let mut w = world(apps, args.seed());
        let mut e2e_session = SynthesisSession::new();
        let t = Instant::now();
        w.trace_segments(duration, seg_len, |segment| {
            e2e_session.feed_segment(segment);
        });
        let e2e_model = e2e_session.model();
        e2e_secs = e2e_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(e2e_model, model, "pipelined model diverged from the sequential one");
    }

    // Replay: encode the pre-collected segments into an in-memory segment
    // file (not timed — that cost belongs to recording), then time
    // decode + synthesize from it.
    let mut writer = SegmentWriter::new(Vec::new()).expect("in-memory header");
    for segment in &segments {
        writer.write_segment(segment).expect("in-memory encode");
    }
    let (file, stats) = writer.finish().expect("in-memory finish");
    let mut replay_secs = f64::INFINITY;
    let mut replay_model = None;
    for _ in 0..REPS.max(5) {
        let t = Instant::now();
        let mut reader = SegmentReader::new(file.as_slice()).expect("header");
        let mut replay_session = SynthesisSession::new();
        replay_session.feed_reader(&mut reader).expect("replay decode");
        let m = replay_session.model();
        replay_secs = replay_secs.min(t.elapsed().as_secs_f64());
        replay_model = Some(m);
    }
    assert_eq!(
        replay_model.expect("at least one rep"),
        model,
        "replayed model diverged from the live one"
    );

    let eps = |secs: f64| events as f64 / secs.max(1e-12);
    Scenario {
        name: format!("apps{apps}_seg{segment_ms}"),
        apps,
        segment_ms,
        events,
        segments: session.segments_fed(),
        collect_events_per_sec: eps(collect_secs),
        synthesize_events_per_sec: eps(synth_secs),
        e2e_events_per_sec: eps(e2e_secs),
        replay_events_per_sec: eps(replay_secs),
        encoded_bytes: stats.bytes,
        peak_watermark: session.peak_watermark(),
        model_vertices: model.vertices().len(),
    }
}

/// Runs the default scenario through the pipelined segment transport
/// twice — once with an observing consumer, once with a live session —
/// and reports what the consumer thread allocated (see the module docs).
///
/// The thread-local counter starts at 0 on the freshly spawned consumer
/// thread, so the value at the *last* callback is the thread's lifetime
/// total, and the delta from the *first* callback is the steady-state
/// window: every sort, hand-back, and slab recycle between the first and
/// last segment. The gate requires that window to allocate nothing.
fn run_alloc_probe(apps: u64, args: &ExperimentArgs) -> AllocProbe {
    let duration = args.duration();
    let seg_len = Nanos::from_millis(250);

    // Transport-only pass: the consumer just observes each segment, so
    // every allocation the counter sees belongs to the transport itself.
    let mut w = world(apps, args.seed());
    let (mut segments, mut at_first, mut at_last) = (0u64, 0u64, 0u64);
    w.trace_segments_pipelined(duration, seg_len, |segment| {
        std::hint::black_box(segment.len());
        if segments == 0 {
            at_first = thread_allocs();
        }
        at_last = thread_allocs();
        segments += 1;
    });
    let transport_allocs_steady = at_last - at_first;
    let transport_allocs_total = at_last;

    // Feeding pass: same transport, but a live session consumes the
    // events — the per-segment rate here is synthesis' own allocation
    // appetite on top of the (zero-alloc) transport.
    let mut w = world(apps, args.seed());
    let mut session = SynthesisSession::new();
    let (mut fed, mut fed_first, mut fed_last) = (0u64, 0u64, 0u64);
    w.trace_segments_pipelined(duration, seg_len, |segment| {
        session.feed_segment(segment);
        if fed == 0 {
            fed_first = thread_allocs();
        }
        fed_last = thread_allocs();
        fed += 1;
    });
    let _ = session.model();

    AllocProbe {
        segments,
        transport_allocs_steady,
        transport_allocs_total,
        feeding_allocs_per_segment: (fed_last - fed_first) as f64 / fed.saturating_sub(1).max(1) as f64,
    }
}

/// Runs the default scenario's world bare — tracers never started — and
/// reports the scheduler engine's own work counters beside the wall-clock
/// event rate. The counters are identical across reps (the simulation is
/// deterministic); only the timing takes the fastest-of-[`REPS`] minimum.
fn run_sim_perf(apps: u64, args: &ExperimentArgs) -> SimPerf {
    let duration = args.duration();
    let mut best_secs = f64::INFINITY;
    let mut stats = rtms_sched::SimStats::default();
    for _ in 0..REPS {
        let mut w = world(apps, args.seed());
        w.announce_nodes();
        let t = Instant::now();
        w.run_for(duration);
        best_secs = best_secs.min(t.elapsed().as_secs_f64());
        stats = w.simulator().stats();
    }
    let passes = stats.rebalance_runs + stats.rebalance_skipped;
    SimPerf {
        events: stats.events,
        heap_pushes: stats.heap_pushes,
        stale_pops: stats.stale_pops,
        slice_arms: stats.slice_arms,
        slice_suppressed: stats.slice_suppressed,
        rebalance_runs: stats.rebalance_runs,
        rebalance_skipped: stats.rebalance_skipped,
        switches: stats.switches,
        stale_pop_ratio: stats.stale_pops as f64 / stats.events.max(1) as f64,
        rebalance_skip_ratio: stats.rebalance_skipped as f64 / passes.max(1) as f64,
        sim_events_per_sec: stats.events as f64 / best_secs.max(1e-12),
    }
}

/// Runs the fixed fleet scenario (64 tenants, 4 of them faulted, on 2
/// shards) and reports its throughput/latency/dedup columns. The fastest
/// of [`REPS`] runs is reported, like every other timed phase.
fn run_fleet_perf(args: &ExperimentArgs) -> FleetPerf {
    let mut config = rtms_fleet::FleetConfig::new(64, 2);
    config.faults = 4;
    config.secs = args.secs().max(1);
    config.seed = args.seed();
    let mut best: Option<rtms_fleet::FleetReport> = None;
    for _ in 0..REPS {
        let outcome = rtms_fleet::run(&config).expect("fleet perf scenario runs");
        let better = best
            .as_ref()
            .is_none_or(|b| outcome.report.events_per_sec > b.events_per_sec);
        if better {
            best = Some(outcome.report);
        }
    }
    let r = best.expect("REPS >= 1");
    FleetPerf {
        tenants: r.tenants,
        shards: r.shards,
        faults: r.faults,
        events: r.events,
        fleet_events_per_sec: r.events_per_sec,
        fleet_p50_ingest_us: r.p50_ingest_us,
        fleet_p99_ingest_us: r.p99_ingest_us,
        alerts: r.alerts,
        fleet_dedup_ratio: r.dedup_ratio,
    }
}

fn run_harness_sweep(threads: usize, args: &ExperimentArgs) -> HarnessSweep {
    let runs = 4;
    let apps = args.extra_u64("apps", 2);
    let seed = args.seed();
    let harness = Harness::new(runs, args.duration(), seed).threads(threads);
    let t = Instant::now();
    let events: u64 = harness
        .for_each_run(|plan| {
            let mut w = world(apps, plan.seed);
            let mut session = SynthesisSession::new();
            w.trace_segments(args.duration(), Nanos::from_millis(250), |segment| {
                session.feed_segment(segment);
            });
            let _ = session.model();
            session.events_fed()
        })
        .iter()
        .sum();
    let secs = t.elapsed().as_secs_f64();
    HarnessSweep { threads, runs, events, events_per_sec: events as f64 / secs.max(1e-12) }
}

/// `perf record=<path>`: records the default scenario to a segment file.
fn record_mode(path: &str, args: &ExperimentArgs) {
    let meta = RecordMeta {
        secs: args.secs(),
        apps: args.extra_u64("apps", 2).max(1),
        seed: args.seed(),
        segment_ms: args.extra_u64("segment_ms", 250).max(1),
        profile: Default::default(),
    };
    let t = Instant::now();
    let stats = record_to_file(path, meta).unwrap_or_else(|e| panic!("recording {path}: {e}"));
    println!(
        "recorded {} events in {} segments to {path} ({} bytes) in {:.3}s",
        stats.events,
        stats.segments,
        stats.bytes,
        t.elapsed().as_secs_f64()
    );
}

/// `perf replay=<path>`: measures replay throughput from a recorded file.
fn replay_mode(path: &str) {
    let t = Instant::now();
    let outcome = replay_path(path).unwrap_or_else(|e| panic!("replaying {path}: {e}"));
    let secs = t.elapsed().as_secs_f64();
    println!(
        "replayed {} events in {} segments from {path} in {:.4}s ({:.0} events/s)",
        outcome.events,
        outcome.segments,
        secs,
        outcome.events as f64 / secs.max(1e-12)
    );
}

fn main() {
    let args = ExperimentArgs::parse_or_exit(
        "perf [secs=2] [apps=2] [seed=0] [threads=N] [segment_ms=250] [out=path] [record=path] [replay=path] [format=text|json]",
        Defaults::single_run(2, 0),
        &["apps", "out", "record", "replay", "segment_ms"],
    );
    if let Some(path) = args.extra_string("record") {
        record_mode(&path, &args);
        return;
    }
    if let Some(path) = args.extra_string("replay") {
        replay_mode(&path);
        return;
    }
    let apps = args.extra_u64("apps", 2).max(1);
    let out = args.extra_string("out");

    eprintln!(
        "perf: scenario matrix over {} generated apps x {:?} ms segments, {}s each ...",
        apps,
        SEGMENT_MS,
        args.secs()
    );

    let mut scenarios = Vec::new();
    for a in [1, apps] {
        for seg in SEGMENT_MS {
            scenarios.push(run_scenario(a, seg, &args));
        }
        if apps == 1 {
            break; // apps=1 would duplicate the first row
        }
    }

    let mut harness = vec![run_harness_sweep(1, &args)];
    if args.threads() > 1 {
        harness.push(run_harness_sweep(args.threads(), &args));
    }

    let alloc_probe = run_alloc_probe(apps, &args);
    let sim = run_sim_perf(apps, &args);
    let fleet = run_fleet_perf(&args);

    let default_scenario = scenarios.iter().find(|s| s.apps == apps && s.segment_ms == 250);
    let default_e2e = default_scenario.map(|s| s.e2e_events_per_sec).unwrap_or_default();
    let default_replay = default_scenario.map(|s| s.replay_events_per_sec).unwrap_or_default();
    let report = Report {
        bench_format: 5,
        secs: args.secs(),
        apps,
        seed: args.seed(),
        threads: args.threads(),
        scenarios,
        harness,
        default_e2e_events_per_sec: default_e2e,
        default_replay_events_per_sec: default_replay,
        replay_over_e2e: default_replay / default_e2e.max(1e-12),
        alloc_probe,
        sim,
        fleet,
    };

    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(path) = out {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("perf: wrote {path}");
    }
    if args.json() {
        println!("{json}");
        return;
    }

    println!("Perf baseline: {} simulated seconds per scenario, seed {}", report.secs, report.seed);
    println!();
    println!(
        "scenario        events  collect ev/s  synthesize ev/s  end-to-end ev/s  replay ev/s  watermark"
    );
    for s in &report.scenarios {
        println!(
            "{:<14} {:>7}  {:>12.0}  {:>15.0}  {:>15.0}  {:>11.0}  {:>9}",
            s.name,
            s.events,
            s.collect_events_per_sec,
            s.synthesize_events_per_sec,
            s.e2e_events_per_sec,
            s.replay_events_per_sec,
            s.peak_watermark
        );
    }
    println!();
    for h in &report.harness {
        println!(
            "harness: {} runs at {} thread(s): {} events, {:.0} ev/s aggregate",
            h.runs, h.threads, h.events, h.events_per_sec
        );
    }
    println!();
    println!("default scenario end-to-end: {:.0} events/s", report.default_e2e_events_per_sec);
    println!(
        "default scenario replay: {:.0} events/s ({:.1}x end-to-end)",
        report.default_replay_events_per_sec, report.replay_over_e2e
    );
    println!(
        "alloc probe: {} consumer-thread allocs across {} steady-state segments ({} total incl. warmup; {:.1}/segment with live synthesis)",
        report.alloc_probe.transport_allocs_steady,
        report.alloc_probe.segments,
        report.alloc_probe.transport_allocs_total,
        report.alloc_probe.feeding_allocs_per_segment
    );
    println!(
        "sim: {:.0} bare events/s, {} events ({} pushes, {} stale pops = {:.4} ratio), {:.0}% rebalances skipped, {} slice arms / {} suppressed",
        report.sim.sim_events_per_sec,
        report.sim.events,
        report.sim.heap_pushes,
        report.sim.stale_pops,
        report.sim.stale_pop_ratio,
        report.sim.rebalance_skip_ratio * 100.0,
        report.sim.slice_arms,
        report.sim.slice_suppressed
    );
    println!(
        "fleet ({} tenants / {} shards, {} faulted): {:.0} events/s, P50 {:.0} us, P99 {:.0} us, dedup {:.2}",
        report.fleet.tenants,
        report.fleet.shards,
        report.fleet.faults,
        report.fleet.fleet_events_per_sec,
        report.fleet.fleet_p50_ingest_us,
        report.fleet.fleet_p99_ingest_us,
        report.fleet.fleet_dedup_ratio
    );
}
