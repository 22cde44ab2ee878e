//! Alert digests: the monitor's complete alert stream over faulted and
//! healthy generated apps, and two small fleet runs, pinned by committed
//! FNV-1a digests.
//!
//! The monitored cases run `monitor_run` (the harness the `monitoring`
//! experiment and the property suites share) at 250 ms and 500 ms
//! windows over:
//!
//! - fault scenarios whose app is the standard, multi-threaded or bursty
//!   preset, with every fault kind the rotation injects (slowdown,
//!   stutter, mute, message drop);
//! - healthy multi-threaded and bursty apps, which raise topology and
//!   message-loss alerts of their own, so the structural diff and the
//!   episode bookkeeping (persistence, recovery, re-report) are covered.
//!
//! One more case drives a monitor whose episode cap is tiny, so eviction
//! order is pinned too. The fleet cases pin `FleetOutcome::{alerts,
//! rollup}` and the merged fleet model.
//!
//! A changed digest means the monitor now judges a window differently.
//! That is only ever intentional: regenerate the table from the failure
//! message and say why in the change log.

use ros2_tms::fleet::FleetConfig;
use ros2_tms::monitor::{Alert, Baseline, Monitor, MonitorConfig};
use ros2_tms::ros2::{FaultKind, Ros2World, WorldBuilder};
use ros2_tms::synthesis::SynthesisSession;
use ros2_tms::trace::Nanos;
use ros2_tms::workloads::{
    generate_app, generate_fault_scenario, monitor_run, FaultScenarioConfig, GeneratorConfig,
};
use serde::Serialize;
use std::collections::BTreeSet;

/// FNV-1a 64 parameters (the published algorithm `rtms_util::fnv1a_64`
/// implements), applied incrementally across a whole stream here.
const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Simulated length of every monitored run.
const HORIZON_MS: u64 = 4_500;

/// `(case name, alert count, digest of the alert stream)`.
const EXPECTED_MONITOR: &[(&str, usize, u64)] = &[
    ("faulted-standard-101-250ms", 2, 0xadf067c624bc828e),
    ("faulted-standard-102-250ms", 2, 0x112857cd3ebbab05),
    ("faulted-multi-threaded-201-250ms", 2, 0x70d99d741ab4d23f),
    ("faulted-multi-threaded-202-250ms", 2, 0x9d320affd6e00283),
    ("faulted-bursty-301-250ms", 26, 0x0a162630698493c5),
    ("faulted-bursty-302-250ms", 14, 0xdcce5eb476064bcd),
    ("healthy-multi-threaded-8-250ms", 6, 0x7bad81ae515798f6),
    ("healthy-multi-threaded-11-250ms", 2, 0x0452d30027a8acc9),
    ("healthy-multi-threaded-29-250ms", 4, 0xd13db455ffd2f8cd),
    ("healthy-bursty-7-250ms", 16, 0x8c79803c73034b1a),
    ("healthy-bursty-21-250ms", 13, 0x838c46a52e358799),
    ("healthy-bursty-29-250ms", 16, 0x85eca43492750f71),
    ("faulted-standard-101-500ms", 19, 0x43ea587f541c1dc4),
    ("faulted-standard-102-500ms", 2, 0x1663f39320464163),
    ("faulted-multi-threaded-201-500ms", 22, 0x24e02e5c10dc790c),
    ("faulted-multi-threaded-202-500ms", 3, 0x57c4b4fc21dd6a45),
    ("faulted-bursty-301-500ms", 13, 0x97bb607b89f013e6),
    ("faulted-bursty-302-500ms", 32, 0x154d7f656ff85639),
    ("healthy-multi-threaded-8-500ms", 3, 0xad92d9118f17fcaa),
    ("healthy-multi-threaded-11-500ms", 2, 0x7ad971963b051da8),
    ("healthy-multi-threaded-29-500ms", 6, 0xc30246fd01f5826b),
    ("healthy-bursty-7-500ms", 9, 0x2fb2bf4ad7b40d73),
    ("healthy-bursty-21-500ms", 7, 0xb9ade254f86a6fad),
    ("healthy-bursty-29-500ms", 9, 0x05676f0e3a66d23c),
    ("capped-episodes-multi-threaded-8-250ms", 10, 0x120410f828b0fb2e),
];

/// `(case name, alert count, alert-stream digest, rollup digest, model digest)`.
const EXPECTED_FLEET: &[(&str, usize, u64, u64, u64)] = &[
    ("fleet-8x1-500ms", 12, 0xe9d96d273218af2b, 0x07b848cb80d9e38e, 0x272c4514f29b6f8e),
    ("fleet-6x2-250ms", 6, 0xd9791ac322160c1b, 0xdd3f81b03f9f12f3, 0xf46cba04291cca1f),
];

fn preset(name: &str) -> GeneratorConfig {
    match name {
        "standard" => GeneratorConfig::default(),
        "multi-threaded" => GeneratorConfig::multi_threaded(),
        "bursty" => GeneratorConfig::bursty(),
        other => panic!("unknown preset {other}"),
    }
}

/// FNV-1a over the JSON of each item, in order.
fn digest<T: Serialize>(items: &[T]) -> u64 {
    items.iter().fold(FNV1A_OFFSET, |hash, item| {
        let json = serde_json::to_string(item).expect("item serializes");
        json.bytes().fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
    })
}

/// A world of one app on four CPUs, with `faults` faults activating in
/// the first monitored window, and the number of message drops among them.
fn world(preset_name: &str, seed: u64, faults: usize, window_ms: u64) -> (Ros2World, usize) {
    let builder = WorldBuilder::new(4).seed(seed ^ 0xa1e7);
    if faults == 0 {
        let world = builder.app(generate_app(seed, &preset(preset_name))).build();
        return (world.expect("generated apps deploy"), 0);
    }
    let start = Nanos::from_millis(HORIZON_MS / window_ms / 3 * window_ms);
    let config = FaultScenarioConfig {
        app: preset(preset_name),
        ..FaultScenarioConfig::new(faults, (start, start + Nanos::from_millis(window_ms)))
    };
    let scenario = generate_fault_scenario(seed, &config);
    let drops = scenario
        .plan
        .faults()
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::MessageDrop { .. }))
        .count();
    let world = builder.app(scenario.app).fault_plan(scenario.plan).build();
    (world.expect("generated apps deploy"), drops)
}

/// `(case name, preset, seed, faults, window in ms)`.
fn monitor_cases() -> Vec<(String, &'static str, u64, usize, u64)> {
    let mut cases = Vec::new();
    for window_ms in [250, 500] {
        for (preset_name, seeds) in
            [("standard", [101, 102]), ("multi-threaded", [201, 202]), ("bursty", [301, 302])]
        {
            for seed in seeds {
                cases.push((
                    format!("faulted-{preset_name}-{seed}-{window_ms}ms"),
                    preset_name,
                    seed,
                    4,
                    window_ms,
                ));
            }
        }
        for (preset_name, seeds) in [("multi-threaded", [8, 11, 29]), ("bursty", [7, 21, 29])] {
            for seed in seeds {
                cases.push((
                    format!("healthy-{preset_name}-{seed}-{window_ms}ms"),
                    preset_name,
                    seed,
                    0,
                    window_ms,
                ));
            }
        }
    }
    cases
}

/// The alerts of a healthy multi-threaded app (the `healthy-multi-threaded-8`
/// case at 250 ms) judged by a monitor that may retain only two episode
/// entries, so eviction runs and evicted episodes re-report.
fn capped_monitor_alerts() -> Vec<(usize, Alert)> {
    let window = Nanos::from_millis(250);
    let (segments, baseline_segments) = (18usize, 6usize);
    let (mut world, _) = world("multi-threaded", 8, 0, 250);
    let config = MonitorConfig { max_retained_episodes: 2, ..MonitorConfig::default() };
    let mut learn = SynthesisSession::new();
    let mut monitor: Option<Monitor> = None;
    let mut alerts = Vec::new();
    let total = Nanos::from_millis(250 * segments as u64);
    world.trace_segments(total, window, |seg| {
        if seg.index() < baseline_segments {
            learn.feed_segment(seg);
            if seg.index() + 1 == baseline_segments {
                monitor =
                    Some(Monitor::with_config(Baseline::from_dag(&learn.model()), config.clone()));
            }
            return;
        }
        let mut session = SynthesisSession::with_names(learn.names().clone());
        session.feed_segment(seg);
        let monitor = monitor.as_mut().expect("baseline precedes monitoring");
        for alert in monitor.observe(&session.model(), window) {
            alerts.push((seg.index(), alert));
        }
    });
    alerts
}

#[test]
fn monitor_alert_streams_match_committed_digests() {
    let mut actual = Vec::new();
    let mut kinds = BTreeSet::new();
    let mut drops = 0;
    for (name, preset_name, seed, faults, window_ms) in monitor_cases() {
        let segments = (HORIZON_MS / window_ms) as usize;
        let (mut world, dropped) = world(preset_name, seed, faults, window_ms);
        drops += dropped;
        let (_, alerts) =
            monitor_run(&mut world, Nanos::from_millis(window_ms), segments / 3, segments);
        kinds.extend(alerts.iter().map(|(_, a)| a.kind.name()));
        actual.push((name, alerts.len(), digest(&alerts)));
    }
    let capped = capped_monitor_alerts();
    kinds.extend(capped.iter().map(|(_, a)| a.kind.name()));
    actual.push((
        "capped-episodes-multi-threaded-8-250ms".to_string(),
        capped.len(),
        digest(&capped),
    ));

    let table: String =
        actual.iter().map(|(name, n, d)| format!("    ({name:?}, {n}, {d:#018x}),\n")).collect();
    let expected: Vec<(String, usize, u64)> =
        EXPECTED_MONITOR.iter().map(|&(n, c, d)| (n.to_string(), c, d)).collect();
    assert_eq!(actual, expected, "alert digests changed; the current table is:\n{table}");
    assert!(drops > 0, "the fault scenarios must inject message drops");
    let all = ["exec_drift", "period_drift", "topology_change", "load_spike", "message_loss"];
    assert_eq!(kinds, all.into_iter().collect(), "the cases must raise every alert kind");
}

#[test]
fn fleet_outcomes_match_committed_digests() {
    let mut a = FleetConfig::new(8, 1);
    a.faults = 2;
    a.seed = 5;
    let mut b = FleetConfig::new(6, 2);
    b.faults = 1;
    b.segment_ms = 250;
    b.seed = 9;
    let mut actual = Vec::new();
    for (name, config) in [("fleet-8x1-500ms", a), ("fleet-6x2-250ms", b)] {
        let outcome = ros2_tms::fleet::run(&config).expect("fleet runs");
        assert!(!outcome.alerts.is_empty(), "{name}: a faulted fleet raises alerts");
        actual.push((
            name,
            outcome.alerts.len(),
            digest(&outcome.alerts),
            digest(&[outcome.rollup.to_json()]),
            outcome.model.digest(),
        ));
    }
    let table: String = actual
        .iter()
        .map(|(name, n, a, r, m)| {
            format!("    ({name:?}, {n}, {a:#018x}, {r:#018x}, {m:#018x}),\n")
        })
        .collect();
    assert_eq!(actual, EXPECTED_FLEET, "fleet digests changed; the current table is:\n{table}");
}
