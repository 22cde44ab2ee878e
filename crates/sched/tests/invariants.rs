//! Scheduler invariant suite.
//!
//! Randomized machines cover contended priorities, mixed affinities,
//! sleeping/waking scripts, and long-lived periodic load; two directed
//! machines cover idle cores and pure round robin. Each run's full
//! `sched_switch`/`sched_wakeup` stream must pass the invariant checker in
//! `support/`: no thread on two CPUs, work conservation, and strict
//! priority order. The exact stream of whole worlds is pinned separately,
//! by the committed digests of the workspace's `stream_digests` suite.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtms_sched::{Affinity, Op, PeriodicLoad, ScriptedLogic, Simulator, SimulatorBuilder};
use rtms_trace::{Cpu, Nanos, Priority};
use support::{assert_fifo_rotation, check, Checked, Spawned};

/// Spawns a seed-determined machine: a few scripted threads with random
/// priorities, affinities, and compute/sleep scripts, plus one periodic
/// load thread that outlives the horizon. Returns what the checker needs
/// to know about each thread.
fn spawn_machine(seed: u64, cpus: usize, b: &mut SimulatorBuilder) -> Vec<Spawned> {
    let all = u64::MAX >> (64 - cpus);
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = rng.gen_range(2..=8usize);
    let mut spawned = Vec::with_capacity(threads + 1);
    for t in 0..threads {
        // A narrow priority range keeps several threads in one bucket, so
        // round-robin slicing and FIFO order inside a bucket are exercised.
        let prio = Priority::new(rng.gen_range(0..3));
        let (affinity, mask) = if rng.gen_bool(0.3) {
            let cpu = rng.gen_range(0..cpus);
            (Affinity::only(Cpu::new(cpu as u16)), 1 << cpu)
        } else {
            (Affinity::all(), all)
        };
        let ops = rng.gen_range(2..=6usize);
        let mut script = Vec::with_capacity(ops);
        let mut wake = Nanos::ZERO;
        for _ in 0..ops {
            if rng.gen_bool(0.6) {
                script.push(Op::Compute(Nanos::from_micros(rng.gen_range(100..=4_000))));
            } else {
                wake += Nanos::from_micros(rng.gen_range(500..=6_000));
                script.push(Op::sleep_until(wake));
            }
        }
        let empty_wakes = empty_wakes(&script);
        let pid = b.spawn(format!("t{t}"), prio, affinity, Box::new(ScriptedLogic::new(script)));
        spawned.push(Spawned { pid, prio, cpus: mask, empty_wakes });
    }
    let pid = b.spawn(
        "load",
        Priority::new(0),
        Affinity::all(),
        Box::new(PeriodicLoad::new(
            Nanos::from_millis(3),
            Nanos::from_micros(200),
            Nanos::from_micros(1_500),
            seed ^ 0x10ad,
        )),
    );
    // A periodic thread is only ever woken at a release, which it serves.
    spawned.push(Spawned { pid, prio: Priority::new(0), cpus: all, empty_wakes: Vec::new() });
    spawned
}

/// The wakeups of a compute/sleep script (0 is the spawn, then one per
/// sleep) after which it sleeps again or exits without computing.
fn empty_wakes(script: &[Op]) -> Vec<usize> {
    let mut empty = Vec::new();
    let mut wake = 0;
    let mut computed = false;
    for op in script {
        if let Op::Compute(_) = op {
            computed = true;
        } else {
            if !computed {
                empty.push(wake);
            }
            wake += 1;
            computed = false;
        }
    }
    if !computed {
        empty.push(wake);
    }
    empty
}

fn run_checked(seed: u64, cpus: usize) -> (Simulator, Checked) {
    let mut b = SimulatorBuilder::new(cpus);
    let threads = spawn_machine(seed, cpus, &mut b);
    let mut sim = b.build();
    sim.run_until(Nanos::from_millis(40));
    let checked = check(sim.sched_events(), cpus, &threads);
    (sim, checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random machines on 1/2/4/8 cores keep every invariant at every
    /// instant.
    #[test]
    fn random_machines_keep_scheduler_invariants(seed in 0u64..1_000_000) {
        for cpus in [1usize, 2, 4, 8] {
            let (sim, checked) = run_checked(seed, cpus);
            prop_assert!(checked.instants > 0, "seed {} on {} cpus emitted nothing", seed, cpus);
            prop_assert_eq!(sim.stats().stale_pops, 0);
        }
    }
}

/// More cores than runnable threads: rebalance must fill idle CPUs, and
/// slice suppression kicks in for uncontended buckets.
#[test]
fn invariants_hold_when_cores_outnumber_threads() {
    for seed in [3u64, 17, 92] {
        let (_, checked) = run_checked(seed, 8);
        assert!(checked.instants > 0, "seed {seed}");
    }
}

/// A single-priority pile-up on one core: pure round robin, the worst case
/// for slice-check traffic, and the case where FIFO rotation is visible in
/// the stream.
#[test]
fn single_bucket_round_robin_rotates_fifo() {
    let mut b = SimulatorBuilder::new(1);
    let threads: Vec<Spawned> = (0..5u64)
        .map(|t| {
            let pid = b.spawn(
                format!("rr{t}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![
                    Op::Compute(Nanos::from_millis(2 + t % 2)),
                    Op::sleep_until(Nanos::from_millis(12)),
                    Op::Compute(Nanos::from_millis(1)),
                ])),
            );
            Spawned { pid, prio: Priority::NORMAL, cpus: 1, empty_wakes: Vec::new() }
        })
        .collect();
    let mut sim = b.build();
    sim.run_until(Nanos::from_millis(30));
    let checked = check(sim.sched_events(), 1, &threads);
    assert_eq!(checked.zero_length_runs, 0, "every thread computes after each wakeup");
    let spawn_order: Vec<_> = threads.iter().map(|t| t.pid).collect();
    assert_fifo_rotation(sim.sched_events(), &spawn_order);
    assert!(sim.stats().slice_arms > 0, "round robin arms slice checks");
}
