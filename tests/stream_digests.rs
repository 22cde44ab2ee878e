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
//! A second table pins a wider sweep: one hundred generated apps (a dozen
//! under debug assertions) rotating through the four presets on 1, 2, 4
//! and 8 CPUs, with lossy QoS, a fault plan or recorded wakeups layered on
//! in turn. These worlds run with the default kernel tracer, so the sweep
//! pins the trace exactly as the synthesis pipeline consumes it. The table
//! stands in for the simulator's former reference engine: it was computed
//! while that engine still ran beside the current one and agreed with it
//! byte for byte.
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

/// One row per sweep case, in case order: `(seed, sched-stream digest,
/// ROS-stream digest)`.
const SWEEP_EXPECTED: &[(u64, u64, u64)] = &[
    (1000, 0xc7b44fd019e26e55, 0x1e0e4be775eec03d),
    (1037, 0x481950bece14142f, 0xebc8e462a8412f7a),
    (1074, 0x0558bd87c9a8d481, 0x2a56bbefb8a3a0a5),
    (1111, 0x21fd400621800fb4, 0x28f608bc40f95435),
    (1148, 0x3c7d1f2f1a4b3794, 0x61fda748a2e927d3),
    (1185, 0x5eda2023915bdae1, 0x6ec8d41e35edd2ca),
    (1222, 0xed2c2269179943fb, 0x948c00b07b59e528),
    (1259, 0x16527f724d57f6ca, 0x8c5c0a106277abad),
    (1296, 0x282df3a424abfed9, 0xf701bf3e699f48a7),
    (1333, 0x28b28ba2d435a91c, 0x3e9ea6765d5b3e8e),
    (1370, 0xd2138e97a25b5755, 0xdec24b86c35e132b),
    (1407, 0xffc25b68924774ea, 0x947726dc015dc4df),
    (1444, 0xe6c25e381928f06d, 0x19eaefb0f04331a2),
    (1481, 0x46a144fd157bba9c, 0x5046b0cfbfba3070),
    (1518, 0x7e0e389fb510db2c, 0x96582954793771fd),
    (1555, 0xcaafeee8cf5a6f05, 0x675e228f9af32818),
    (1592, 0xe0e93bf789fa8487, 0xd49f18c98334f2f3),
    (1629, 0xac3b22302540e89d, 0xf03e430a7df81671),
    (1666, 0x60c018a75ae6bd14, 0x399c2e870650d10e),
    (1703, 0xd79f270ef4dbbf65, 0xaa466d56a9a910e7),
    (1740, 0x017e5105c5113de7, 0x3c436913df1978b5),
    (1777, 0x20459b73d65437de, 0x0d6e82916e46c9e5),
    (1814, 0xc95f134f5aa0c18d, 0xe8dbcd278ee2887b),
    (1851, 0x9cd09040161fcaf8, 0xd50bf2bb1f6dcbd0),
    (1888, 0xc95496b57e9e8cbc, 0x493e1cc1da9e4579),
    (1925, 0x0dd270361c561319, 0x250da78a78db29ce),
    (1962, 0x605ec842c44b3ccd, 0x56bd0987bdf89319),
    (1999, 0xd3fd876e36083ec0, 0x10ffbe05c0eea3ad),
    (2036, 0x3f4deba0a3ef310b, 0x185cfc2034315b91),
    (2073, 0x34d981390fd923cc, 0xeb6f7743113d2d3f),
    (2110, 0xf9b04a2a012998f2, 0xe1b9a1f7d676679a),
    (2147, 0x9c5ddec546e706e7, 0x37818736cb0a1695),
    (2184, 0x2f2e1ec3d79f9aa2, 0x431e6e4dd44037e4),
    (2221, 0x4be457ed5560d471, 0x3e70414b4f343796),
    (2258, 0x10e3f40b3772ecfd, 0xccfb00c5aa063a58),
    (2295, 0x8bb5d65b593faa31, 0xc2126f93e09c65b4),
    (2332, 0xda6b6ddc5c7ae3da, 0xcbecb37c9365a5e4),
    (2369, 0x771fd6280dab40d6, 0xe800c4d18cf44543),
    (2406, 0x3e368dcd97ad153a, 0x573ad130712491d8),
    (2443, 0x970c08ea7990ef09, 0x5c2b89d613079f87),
    (2480, 0xd051b84565bfd957, 0xa881ce2597a27433),
    (2517, 0x41998be2ff554190, 0x1ef1842b5c47970d),
    (2554, 0x0d15fbefdd6e0a83, 0x03fb64fe95c2edc6),
    (2591, 0x4c9caa9e82a0b0ae, 0x865bea4990093c30),
    (2628, 0x84bf43f38b65ae4a, 0xa9da0f7995271848),
    (2665, 0x975b44b4febd9d5d, 0x6a098e1fec8c7424),
    (2702, 0x47cbc540e5a99684, 0xdc83c0aa92e953d2),
    (2739, 0x02193b28b1acd879, 0x585ca3d70f1924b9),
    (2776, 0x2bb7a2b5bee0a484, 0xb59ad07636bff258),
    (2813, 0x3da5e329e14fcb0b, 0xcf25e796b053dac1),
    (2850, 0x9742d9311bd2fa5f, 0x0b34f87c82b5a1b8),
    (2887, 0xfaf74702629e9c2b, 0xdb1451bec3272943),
    (2924, 0x676478c2112e762c, 0x429685547157c399),
    (2961, 0xdfae62fdf34dd254, 0xc9158b2317944c21),
    (2998, 0xcae064ec742f9678, 0x9052f3236da28990),
    (3035, 0x7fabe73ab80b1084, 0xe6b28dd8304ef90f),
    (3072, 0x2395ad2489d5183f, 0xd45aa2f8938b2f2e),
    (3109, 0xa862c21f661e73af, 0x686a8ff3d56b3f12),
    (3146, 0xf852a272aa8a0b29, 0x2e58eb3fe943a781),
    (3183, 0xbe55470a5e762b74, 0x4800aae3d7c6b3c2),
    (3220, 0xfe907b1b5eb1dc1e, 0xbe9620be0bb097c1),
    (3257, 0x540d956d63d5e913, 0x4b55516c32b257b9),
    (3294, 0xddd82535cbfa4eff, 0x9d0643ca1110c0b8),
    (3331, 0x5b7dd76f776382cb, 0x1d0668c95aa1418f),
    (3368, 0x7572d85db6a4bd59, 0xd542585f7ef46af2),
    (3405, 0x0c8b1d8c1c5abe5e, 0xbb07931c43b993d5),
    (3442, 0x5d18b477421843c1, 0x97edb97b03b526e1),
    (3479, 0x19ad8c2da81456c9, 0x19290a92e9598ccc),
    (3516, 0x0e2d2a1d7ddbc23d, 0x8b0693209c6fb8aa),
    (3553, 0x703559619fd6337d, 0xa66285615b2a2cea),
    (3590, 0xe4c9b70d22dc9a35, 0x6bd90bb1c92c156a),
    (3627, 0x37e50c05a3bd5866, 0x455d71fc32ddf6de),
    (3664, 0x858723d57f4224f2, 0xf62a769911c650f6),
    (3701, 0xe4b98df3a15ed97a, 0xb945822dab6ab98f),
    (3738, 0x6cbcb343bd4efec3, 0x8c7241c6fd648ea2),
    (3775, 0x1b325e068d81103a, 0xf4ed46e5a1137e74),
    (3812, 0x796062e20e85e49d, 0x2b685a91fafe801f),
    (3849, 0xc92aa4327e4b44c2, 0x43b917d759be6ee1),
    (3886, 0xd118c143d7a54a96, 0x5eb9e33e9c8e4bd3),
    (3923, 0x30de37e1ae171f8d, 0x94893520461be60d),
    (3960, 0x71aab46f14e493cb, 0x4afb09a4763c4f83),
    (3997, 0xdd378c7ba0df1cec, 0x64e72346dc1ba7c4),
    (4034, 0x8933bc541641f335, 0x5c130030bd43eb94),
    (4071, 0x1e4096d6e9feec55, 0x44e06b176f97423c),
    (4108, 0xddafbfec0b5f2157, 0xc45c2afdb2cad748),
    (4145, 0xf1da0a41aaff09b0, 0x7c1747267b0fe902),
    (4182, 0x2d2a3809d088706c, 0x1a88ec2ba0bdfad4),
    (4219, 0x0eb892c5a92d8d72, 0xee0b733dca31b76e),
    (4256, 0xeb0447cf0ee4aab8, 0xb796a39fbb852586),
    (4293, 0x05dbdae4ca22838e, 0xd99572890744a101),
    (4330, 0x4fe688dafccc7f11, 0x4cb2d7e35dcc3fb3),
    (4367, 0x9895b112e0bf3d20, 0x7254ed5e19cb2bda),
    (4404, 0x44e8d34582e04d25, 0x8f95198b867e62ef),
    (4441, 0x53b0348f2535fb38, 0x168b122be6acc195),
    (4478, 0x5fe61751ed7032ef, 0xa36ecb63d5614182),
    (4515, 0x8477b2e1345744be, 0xd9897054bdc19a40),
    (4552, 0x31ec615a187e1659, 0x16c568f5d0e12fc4),
    (4589, 0x86d8e404e4273ec3, 0x7483b813bc2ac25b),
    (4626, 0x13375d6757c2ce9d, 0x43bb2b55670ae21b),
    (4663, 0x718af99c010966e6, 0xda934f9f9f7629ec),
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

/// One case of the preset sweep: the app source, world shape, and horizon.
struct SweepCase {
    seed: u64,
    preset: &'static str,
    cpus: usize,
    horizon: Nanos,
    lossy: bool,
    faulted: bool,
    wakeups: bool,
}

/// The `i`-th sweep case. The rotation gives the scheduler idle cores,
/// saturated cores and heavy preemption; city apps are two orders of
/// magnitude bigger, so they run a shorter horizon that still crosses
/// thousands of scheduling decisions.
fn sweep_case(i: usize) -> SweepCase {
    let preset = ["standard", "multi-threaded", "bursty", "city"][i % 4];
    SweepCase {
        seed: 1_000 + i as u64 * 37,
        preset,
        cpus: [1usize, 2, 4, 8][i % 4],
        horizon: Nanos::from_millis(if preset == "city" { 120 } else { 300 }),
        lossy: i.is_multiple_of(3),
        faulted: i.is_multiple_of(5),
        wakeups: i.is_multiple_of(2),
    }
}

fn sweep_trace(case: &SweepCase) -> Trace {
    let (app, plan) = if case.faulted {
        let scenario = generate_fault_scenario(
            case.seed,
            &FaultScenarioConfig::new(3, (Nanos::from_millis(30), Nanos::from_millis(120))),
        );
        (scenario.app, Some(scenario.plan))
    } else {
        (generate_app(case.seed, &preset(case.preset)), None)
    };
    let mut b = WorldBuilder::new(case.cpus).seed(case.seed ^ 0xd1ff).app(app);
    if case.lossy {
        b = b.qos(QosSpec { drop_prob: 0.05, reorder_bound: 2, jitter: Nanos::from_micros(20) });
    }
    if case.wakeups {
        b = b.record_wakeups();
    }
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build().expect("generated app deploys").trace_run(case.horizon)
}

#[test]
fn preset_sweep_streams_match_committed_digests() {
    let cases = if cfg!(debug_assertions) { 12 } else { SWEEP_EXPECTED.len() };
    let mut actual = Vec::new();
    for i in 0..cases {
        let case = sweep_case(i);
        let trace = sweep_trace(&case);
        assert!(!trace.is_empty(), "seed {} produced an empty trace", case.seed);
        actual.push((case.seed, digest(trace.sched_events()), digest(trace.ros_events())));
    }
    let table: String = actual
        .iter()
        .map(|(seed, sched, ros)| format!("    ({seed}, {sched:#018x}, {ros:#018x}),\n"))
        .collect();
    assert_eq!(
        actual,
        SWEEP_EXPECTED[..cases],
        "sweep digests changed; the current table is:\n{table}"
    );
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
