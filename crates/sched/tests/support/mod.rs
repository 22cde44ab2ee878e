//! Scheduler invariants, checked on a raw `sched_switch`/`sched_wakeup`
//! stream.
//!
//! [`check`] rebuilds which thread runs on each CPU and which threads are
//! runnable from the events alone: every spawned thread is runnable at
//! time zero, a `Wakeup` makes its thread runnable, and a `Switch` puts
//! its next thread on the CPU and leaves its previous one in the state
//! the event reports. At the end of every timestamp it asserts:
//!
//! - no PID runs on two CPUs;
//! - no allowed CPU sits idle while a thread is runnable (work
//!   conservation);
//! - no runnable thread outranks the running thread on a CPU it may use
//!   (strict priority order).
//!
//! The simulator emits switches as per-CPU diffs after each scheduling
//! pass, so a thread that is dispatched and goes straight back to sleep
//! (or exits) within one instant leaves no switch behind. Only a wakeup
//! after which the thread's logic does no work can end that way, so the
//! caller names those wakeups in [`Spawned::empty_wakes`]. After one of
//! them, and until a switch shows the thread on a CPU, the thread may
//! vanish: at the first instant it could take a CPU, the checker counts a
//! zero-length run and treats it as asleep. After any other wakeup, and
//! after a preemption, a waiting thread that could take a CPU is a
//! violation.

// Each including target uses a different subset of this module.
#![allow(dead_code)]

use rtms_trace::{Cpu, Nanos, Pid, Priority, SchedEvent, SchedEventKind, ThreadState};
use std::collections::{HashMap, VecDeque};

/// A spawned thread as the checker sees it.
pub struct Spawned {
    pub pid: Pid,
    pub prio: Priority,
    /// Bit `c` is set when the thread may run on CPU `c`.
    pub cpus: u64,
    /// The wakeups after which the thread's logic asks for no CPU time
    /// before it blocks or exits, numbered from 0 (the spawn itself) up.
    pub empty_wakes: Vec<usize>,
}

/// What a passing [`check`] looked at.
#[derive(Debug)]
pub struct Checked {
    /// Timestamps at whose end the invariants were asserted: time zero and
    /// every later timestamp with an event.
    pub instants: usize,
    /// Empty wakeups seen to end in a zero-length run (see the module
    /// docs).
    pub zero_length_runs: usize,
}

/// Asserts the scheduler invariants over `events`, the complete stream of
/// a machine with `cpus` cores running `threads`. Panics on the first
/// violation, naming the instant.
pub fn check(events: &[SchedEvent], cpus: usize, threads: &[Spawned]) -> Checked {
    let index: HashMap<Pid, usize> = threads.iter().enumerate().map(|(i, t)| (t.pid, i)).collect();
    let idx = |pid: Pid| *index.get(&pid).unwrap_or_else(|| panic!("unknown pid {pid}"));
    let mut runnable = vec![true; threads.len()];
    let mut running = vec![Pid::IDLE; cpus];
    let mut checked = Checked { instants: 0, zero_length_runs: 0 };
    // Per thread: wakeups so far (the spawn is wakeup 0), and whether the
    // latest one was empty and no switch has shown the thread since.
    let mut wakes = vec![0usize; threads.len()];
    let mut may_vanish: Vec<bool> = threads.iter().map(|t| t.empty_wakes.contains(&0)).collect();
    let mut now = Nanos::ZERO;
    let mut rest = events;
    loop {
        let end = rest.iter().position(|e| e.time != now).unwrap_or(rest.len());
        let (instant, later) = rest.split_at(end);
        for event in instant {
            match event.kind {
                SchedEventKind::Wakeup { pid, .. } => {
                    let i = idx(pid);
                    runnable[i] = true;
                    wakes[i] += 1;
                    may_vanish[i] = threads[i].empty_wakes.contains(&wakes[i]);
                }
                SchedEventKind::Switch { prev_pid, prev_state, next_pid, .. } => {
                    let cpu = event.cpu.index();
                    let held = running[cpu];
                    assert_eq!(held, prev_pid, "{now}: cpu{cpu} switched out {prev_pid}");
                    running[cpu] = next_pid;
                    if !prev_pid.is_idle() {
                        runnable[idx(prev_pid)] = prev_state == ThreadState::Runnable;
                    }
                    if !next_pid.is_idle() {
                        let next = idx(next_pid);
                        assert!(runnable[next], "{now}: {next_pid} dispatched while asleep");
                        may_vanish[next] = false;
                    }
                }
            }
        }
        checked.instants += 1;

        let mut on_cpu = vec![None; threads.len()];
        for (cpu, &pid) in running.iter().enumerate() {
            if !pid.is_idle() {
                let i = idx(pid);
                if let Some(other) = on_cpu[i].replace(cpu) {
                    panic!("{now}: {pid} runs on cpu{other} and cpu{cpu}");
                }
            }
        }
        // A CPU `t` could take: idle, or running something it outranks.
        let could_take = |t: &Spawned, cpu: usize| {
            t.cpus & (1 << cpu) != 0
                && (running[cpu].is_idle() || threads[idx(running[cpu])].prio < t.prio)
        };
        for (i, t) in threads.iter().enumerate() {
            if !runnable[i] || on_cpu[i].is_some() {
                continue;
            }
            if let Some(cpu) = (0..cpus).find(|&c| could_take(t, c)) {
                if may_vanish[i] {
                    runnable[i] = false;
                    may_vanish[i] = false;
                    checked.zero_length_runs += 1;
                    continue;
                }
                let holder = running[cpu];
                if holder.is_idle() {
                    panic!("{now}: cpu{cpu} idles while {} is runnable", t.pid);
                }
                panic!("{now}: runnable {} outranks {holder} on cpu{cpu}", t.pid);
            }
        }
        let Some(next) = later.first() else { return checked };
        now = next.time;
        rest = later;
    }
}

/// Asserts FIFO rotation on a one-CPU machine whose threads all share
/// one priority: every dispatch takes the thread that has waited longest.
/// Threads queue in spawn order at time zero, at their wakeup, and when
/// a switch preempts them.
pub fn assert_fifo_rotation(events: &[SchedEvent], spawn_order: &[Pid]) {
    let mut queue: VecDeque<Pid> = spawn_order.iter().copied().collect();
    for event in events {
        assert_eq!(event.cpu, Cpu::new(0), "FIFO rotation is checked on one CPU");
        match event.kind {
            SchedEventKind::Wakeup { pid, .. } => queue.push_back(pid),
            SchedEventKind::Switch { prev_pid, prev_state, next_pid, .. } => {
                if !prev_pid.is_idle() && prev_state == ThreadState::Runnable {
                    queue.push_back(prev_pid);
                }
                if !next_pid.is_idle() {
                    let head = queue.pop_front();
                    let now = event.time;
                    assert_eq!(head, Some(next_pid), "{now}: dispatch skipped the queue head");
                }
            }
        }
    }
}
