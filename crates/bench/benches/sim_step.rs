//! Bare scheduler stepping cost: the discrete-event engine alone, with
//! event recording off and no tracers attached, at 4 / 16 / 64 threads.
//!
//! This isolates the hot loop the indexed runqueue work targets — heap
//! pops, dirty-driven rebalance passes, and slice-check arming — from all
//! trace plumbing. Thread scripts mix three priority buckets, partial
//! affinities, and periodic sleeps, so preemption, round-robin slicing,
//! and wake-driven rebalances all stay on the measured path.
//!
//! The `sim_step_live_mix` group runs the whole simulated machine of the
//! repository benchmark's `live` workload instead: six generated apps (two
//! each of the standard, multi-threaded and bursty presets) on four CPUs,
//! scheduler plus executors plus DDS, once with the tracers off and once
//! with them on and drained every 250 ms segment (simulate + probe, without
//! synthesis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtms_ros2::{AppSpec, Ros2World, WorldBuilder};
use rtms_sched::{Affinity, PeriodicLoad, Simulator, SimulatorBuilder};
use rtms_trace::{Cpu, Nanos, Priority, TraceSegment};
use rtms_workloads::{generate_app, GeneratorConfig};
use std::hint::black_box;

const CPUS: usize = 4;
const HORIZON: Nanos = Nanos::from_millis(200);

fn machine(threads: usize) -> Simulator {
    let mut b = SimulatorBuilder::new(CPUS);
    for t in 0..threads {
        let affinity = if t % 4 == 3 {
            Affinity::only(Cpu::new((t % CPUS) as u16))
        } else {
            Affinity::all()
        };
        b.spawn(
            format!("t{t}"),
            Priority::new((t % 3) as i32),
            affinity,
            Box::new(PeriodicLoad::new(
                Nanos::from_millis(2 + (t % 5) as u64),
                Nanos::from_micros(50),
                Nanos::from_micros(900),
                t as u64,
            )),
        );
    }
    let mut sim = b.build();
    sim.set_recording(false);
    sim
}

fn bench_sim_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step");
    group.sample_size(20);
    for threads in [4usize, 16, 64] {
        // Pin the throughput denominator to the event count this machine
        // actually produces, so Criterion reports events/second.
        let events = {
            let mut sim = machine(threads);
            sim.run_until(HORIZON);
            sim.stats().events
        };
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::new("run_until", format!("{threads}thr")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut sim = machine(threads);
                    sim.run_until(HORIZON);
                    black_box(sim.switch_count())
                });
            },
        );
    }
    group.finish();
}

const LIVE_HORIZON: Nanos = Nanos::from_secs(2);
const LIVE_SEGMENT: Nanos = Nanos::from_millis(250);

fn live_mix() -> Vec<AppSpec> {
    let presets =
        [GeneratorConfig::default(), GeneratorConfig::multi_threaded(), GeneratorConfig::bursty()];
    (0..6u64).map(|a| generate_app(700 + a, &presets[a as usize % presets.len()])).collect()
}

fn live_world(apps: &[AppSpec]) -> Ros2World {
    apps.iter()
        .cloned()
        .fold(WorldBuilder::new(CPUS).seed(7), |b, app| b.app(app))
        .build()
        .expect("generated apps deploy")
}

/// The Fig. 2 collection loop without synthesis: trace each segment,
/// drain it, recycle the buffer. Returns the events collected.
fn traced_run(world: &mut Ros2World, segment: &mut TraceSegment) -> usize {
    world.announce_nodes();
    let mut events = 0;
    let end = world.now() + LIVE_HORIZON;
    while world.now() < end {
        world.start_runtime_tracers();
        world.run_for(LIVE_SEGMENT);
        world.stop_runtime_tracers();
        world.collect_segment_into(segment);
        events += segment.len();
        segment.clear_for_reuse(0);
    }
    events
}

fn bench_live_mix(c: &mut Criterion) {
    let apps = live_mix();
    let mut group = c.benchmark_group("sim_step_live_mix");
    group.sample_size(10);
    let events = traced_run(&mut live_world(&apps), &mut TraceSegment::new());
    group.throughput(Throughput::Elements(events as u64));
    group.bench_function("tracers_off", |b| {
        b.iter(|| {
            let mut world = live_world(&apps);
            world.run_for(LIVE_HORIZON);
            black_box(world.simulator().stats().events)
        });
    });
    let mut segment = TraceSegment::new();
    group.bench_function("tracers_on", |b| {
        b.iter(|| black_box(traced_run(&mut live_world(&apps), &mut segment)));
    });
    group.finish();
}

criterion_group!(benches, bench_sim_step, bench_live_mix);
criterion_main!(benches);
