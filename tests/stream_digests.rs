//! Stream digests: the complete emitted trace of generated worlds, pinned
//! by committed FNV-1a digests.
//!
//! Every world runs with the unfiltered kernel tracer and
//! `record_wakeups()`, so the kernel half of the trace is the simulated
//! machine's entire scheduler stream (every `sched_switch` and
//! `sched_wakeup`), and the ROS half is every runtime probe event. Each
//! stream is digested separately over the JSON serialization of its
//! events in trace order. The cases cover all four generator presets,
//! lossy QoS, an injected fault plan, and the benchmark's `live` mix of
//! six co-deployed apps on four CPUs.
//!
//! The same worlds gate the scheduler engine's own work: none of them may
//! pop a stale event.
//!
//! A changed digest means the simulator, the executors, the DDS router or
//! the probes now emit a different stream. Every corpus digest and every
//! trained model rests on that stream, so a change here is only ever
//! intentional: regenerate the table from the failure message and say
//! why in the change log.

use ros2_tms::ros2::{QosSpec, Ros2World, WorldBuilder};
use ros2_tms::trace::{Nanos, SchedEventKind, Trace};
use ros2_tms::workloads::{
    generate_app, generate_fault_scenario, FaultScenarioConfig, GeneratorConfig,
};
use serde::Serialize;

/// FNV-1a 64 parameters (the published algorithm `rtms_util::fnv1a_64`
/// implements), applied incrementally across a whole stream here.
const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One pinned world.
struct Case {
    name: &'static str,
    build: fn() -> WorldBuilder,
    horizon_ms: u64,
}

/// `(case name, sched-stream digest, ROS-stream digest)`.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("standard-1cpu", 0x119a911909131140, 0x5caafcd006b5e904),
    ("standard-2cpu", 0xc4803450b70013fe, 0x9a1e6dbd2a413d85),
    ("standard-4cpu", 0x4f89e6f48809f7e5, 0x97c5ef152c52fd37),
    ("multi-threaded-1cpu", 0x250eade6de217846, 0x15e5ac827cd7e3fe),
    ("multi-threaded-2cpu", 0x7e0f68c78a956dd6, 0x813e91842983b96b),
    ("multi-threaded-4cpu", 0x7af7a2f55bada469, 0x2e963fa5552a73ca),
    ("bursty-1cpu", 0xbf4666605d730648, 0xfa2892c1d64bc5d2),
    ("bursty-2cpu", 0x1eea84155ec4e6b1, 0xbe67ace8a69bf563),
    ("bursty-4cpu", 0xcd496397730d9592, 0x3ea1b9c4b0c9dcf0),
    ("city-2cpu", 0xda3e6492ece92e6e, 0x7b24952583bb258a),
    ("city-4cpu", 0xc00e114434afbd91, 0x73bbce6178dae45a),
    ("bursty-lossy-2cpu", 0x2043622f0833ab79, 0x8d1988700c0b77b7),
    ("faulted-2cpu", 0x9656701a124d88f2, 0x12e47819cb8a58d0),
    ("live-mix-4cpu", 0xa131803cbad50e9c, 0xba6d8902db9d3744),
];

fn preset(name: &str) -> GeneratorConfig {
    match name {
        "standard" => GeneratorConfig::default(),
        "multi-threaded" => GeneratorConfig::multi_threaded(),
        "bursty" => GeneratorConfig::bursty(),
        "city" => GeneratorConfig::city(),
        other => panic!("unknown preset {other}"),
    }
}

/// A world of one generated app, traced in full.
fn single(preset_name: &str, seed: u64, cpus: usize) -> WorldBuilder {
    WorldBuilder::new(cpus)
        .seed(seed ^ 0x5eed)
        .app(generate_app(seed, &preset(preset_name)))
        .unfiltered_kernel_tracer()
        .record_wakeups()
}

fn cases() -> Vec<Case> {
    vec![
        Case { name: "standard-1cpu", build: || single("standard", 11, 1), horizon_ms: 3_000 },
        Case { name: "standard-2cpu", build: || single("standard", 12, 2), horizon_ms: 3_000 },
        Case { name: "standard-4cpu", build: || single("standard", 13, 4), horizon_ms: 3_000 },
        Case {
            name: "multi-threaded-1cpu",
            build: || single("multi-threaded", 21, 1),
            horizon_ms: 3_000,
        },
        Case {
            name: "multi-threaded-2cpu",
            build: || single("multi-threaded", 22, 2),
            horizon_ms: 3_000,
        },
        Case {
            name: "multi-threaded-4cpu",
            build: || single("multi-threaded", 23, 4),
            horizon_ms: 3_000,
        },
        Case { name: "bursty-1cpu", build: || single("bursty", 31, 1), horizon_ms: 3_000 },
        Case { name: "bursty-2cpu", build: || single("bursty", 32, 2), horizon_ms: 3_000 },
        Case { name: "bursty-4cpu", build: || single("bursty", 33, 4), horizon_ms: 3_000 },
        Case { name: "city-2cpu", build: || single("city", 41, 2), horizon_ms: 1_000 },
        Case { name: "city-4cpu", build: || single("city", 42, 4), horizon_ms: 1_000 },
        Case {
            name: "bursty-lossy-2cpu",
            build: || {
                single("bursty", 51, 2).qos(QosSpec {
                    drop_prob: 0.05,
                    reorder_bound: 2,
                    jitter: Nanos::from_micros(20),
                })
            },
            horizon_ms: 3_000,
        },
        Case {
            name: "faulted-2cpu",
            build: || {
                let scenario = generate_fault_scenario(
                    61,
                    &FaultScenarioConfig::new(
                        3,
                        (Nanos::from_millis(300), Nanos::from_millis(2_000)),
                    ),
                );
                WorldBuilder::new(2)
                    .seed(61)
                    .app(scenario.app)
                    .fault_plan(scenario.plan)
                    .unfiltered_kernel_tracer()
                    .record_wakeups()
            },
            horizon_ms: 3_000,
        },
        Case {
            // The benchmark's `live` shape: six co-deployed apps, two of
            // each of the standard, multi-threaded and bursty presets.
            name: "live-mix-4cpu",
            build: || {
                let presets = ["standard", "multi-threaded", "bursty"];
                (0..6u64).fold(
                    WorldBuilder::new(4).seed(71).unfiltered_kernel_tracer().record_wakeups(),
                    |b, a| b.app(generate_app(71 + a, &preset(presets[a as usize % 3]))),
                )
            },
            horizon_ms: 4_000,
        },
    ]
}

/// FNV-1a over the JSON of each event, in order.
fn digest<T: Serialize>(events: &[T]) -> u64 {
    events.iter().fold(FNV1A_OFFSET, |hash, event| {
        let json = serde_json::to_string(event).expect("event serializes");
        json.bytes().fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
    })
}

fn run(case: &Case) -> (Ros2World, Trace) {
    let mut world = (case.build)().build().expect("generated apps deploy");
    let trace = world.trace_run(Nanos::from_millis(case.horizon_ms));
    (world, trace)
}

#[test]
fn full_trace_streams_match_committed_digests() {
    let mut actual = Vec::new();
    for case in cases() {
        let (_, trace) = run(&case);
        assert!(!trace.sched_events().is_empty(), "{}: empty sched stream", case.name);
        assert!(!trace.ros_events().is_empty(), "{}: empty ROS stream", case.name);
        actual.push((case.name, digest(trace.sched_events()), digest(trace.ros_events())));
    }
    let table: String = actual
        .iter()
        .map(|(name, sched, ros)| format!("    ({name:?}, {sched:#018x}, {ros:#018x}),\n"))
        .collect();
    assert_eq!(actual, EXPECTED, "stream digests changed; the current table is:\n{table}");
}

#[test]
fn unfiltered_wakeup_worlds_export_the_whole_sched_stream() {
    let (_, trace) = run(&cases()[0]);
    let wakeups = trace
        .sched_events()
        .iter()
        .filter(|e| matches!(e.kind, SchedEventKind::Wakeup { .. }))
        .count();
    assert!(wakeups > 0, "record_wakeups() must survive unfiltered_kernel_tracer()");
}

#[test]
fn no_preset_world_pops_a_stale_event() {
    // Completions and slice checks live in per-CPU slots that a
    // deschedule clears, so preemption-heavy multi-threaded and bursty
    // worlds must not pop anything stale either.
    for case in cases() {
        let (world, _) = run(&case);
        let stats = world.simulator().stats();
        assert!(stats.events > 0, "{}: the engine did no work", case.name);
        assert_eq!(stats.stale_pops, 0, "{}: stale pops in {stats:?}", case.name);
    }
}
