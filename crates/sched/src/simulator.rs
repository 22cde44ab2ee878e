//! The discrete-event scheduler engine.

use crate::logic::{Op, SimCtx, ThreadLogic};
use rtms_trace::{Cpu, Nanos, Pid, Priority, SchedEvent, ThreadState};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// A CPU affinity mask over up to 64 cores.
///
/// # Example
///
/// ```
/// use rtms_sched::Affinity;
/// use rtms_trace::Cpu;
///
/// let a = Affinity::only(Cpu::new(2));
/// assert!(a.allows(Cpu::new(2)));
/// assert!(!a.allows(Cpu::new(0)));
/// assert!(Affinity::all().allows(Cpu::new(63)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affinity(u64);

impl Affinity {
    /// Allows every core.
    pub const fn all() -> Affinity {
        Affinity(u64::MAX)
    }

    /// Pins to a single core.
    pub fn only(cpu: Cpu) -> Affinity {
        assert!(cpu.index() < 64, "affinity supports up to 64 cores");
        Affinity(1 << cpu.index())
    }

    /// Builds a mask from an iterator of cores.
    pub fn from_cpus<I: IntoIterator<Item = Cpu>>(cpus: I) -> Affinity {
        let mut mask = 0u64;
        for cpu in cpus {
            assert!(cpu.index() < 64, "affinity supports up to 64 cores");
            mask |= 1 << cpu.index();
        }
        assert!(mask != 0, "affinity must allow at least one core");
        Affinity(mask)
    }

    /// Whether this mask allows `cpu`.
    pub fn allows(self, cpu: Cpu) -> bool {
        cpu.index() < 64 && self.0 & (1 << cpu.index()) != 0
    }
}

impl Default for Affinity {
    fn default() -> Self {
        Affinity::all()
    }
}

impl fmt::Display for Affinity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "affinity:{:#x}", self.0)
    }
}

/// Receiver of scheduler tracepoint events, the integration point for the
/// kernel tracer of `rtms-ebpf`.
pub trait SchedSink {
    /// Called for every `sched_switch`/`sched_wakeup` the simulated kernel
    /// generates, in chronological order.
    fn on_sched_event(&mut self, event: &SchedEvent);
}

impl<T: SchedSink> SchedSink for Rc<RefCell<T>> {
    fn on_sched_event(&mut self, event: &SchedEvent) {
        self.borrow_mut().on_sched_event(event);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Runnable,
    Running(Cpu),
    Blocked,
    Dead,
}

struct Thread {
    pid: Pid,
    name: String,
    prio: Priority,
    affinity: Affinity,
    state: RunState,
    /// CPU work left in the current `Compute` op; `None` means the logic
    /// must be asked for a new op at next dispatch.
    remaining: Option<Nanos>,
    /// When the thread was last put on a CPU (valid while Running).
    dispatched_at: Nanos,
    /// Latched wakeup (signal arrived while not blocked).
    pending_wake: bool,
    /// Runqueue bucket for this thread's priority (0 = highest), assigned
    /// at build time from the distinct spawned priorities.
    bucket: u32,
    /// Whether any *other* spawned thread has priority >= this one's. When
    /// false, the slice-check contender test can never succeed, so arming
    /// the check is elided entirely (see `arm_slice`).
    contended: bool,
    /// Last CPU the thread ran on (for wakeup event attribution).
    last_cpu: Cpu,
    cpu_time: Nanos,
    logic: Option<Box<dyn ThreadLogic>>,
}

/// Low bits of an event key below the seq: the index of the slot the
/// event sits in (at most 2 * 64 slots).
const SLOT_BITS: u32 = 7;

/// The `(time, seq)` order key of a pending event packed into one
/// integer, so slots and the heap top compare with a single `<`. The key
/// also carries `slot`, the index of the slot holding the event (0 for a
/// heap event): seqs are unique, so those low bits never decide an order,
/// and the minimum over the slots names its own slot, with no index kept
/// alongside.
fn event_key(time: Nanos, seq: u64, slot: usize) -> u128 {
    debug_assert!(seq < 1 << (64 - SLOT_BITS), "event seq overflows its key bits");
    (u128::from(time.as_nanos()) << 64) | u128::from(seq) << SLOT_BITS | slot as u128
}

/// The key of an unarmed slot: it sorts after every armed event.
const EMPTY_SLOT: u128 = u128::MAX;

/// Per-CPU slot layout: slot `2 * cpu` holds the running
/// thread's pending `Compute` completion, slot `2 * cpu + 1` its pending
/// round-robin slice check. A running thread has at most one of each, and
/// both belong to whatever thread currently occupies the CPU:
/// [`Simulator::deschedule`] clears the pair, so a slot can never fire
/// stale.
const COMPLETION: usize = 0;
const SLICE: usize = 1;

/// Priority-indexed FIFO runqueue: one `VecDeque` of thread indices per
/// distinct priority (bucket 0 is the highest priority), plus a bitmask of
/// non-empty buckets so scans skip empty levels in O(words).
///
/// Within a bucket, push order is ready order, so scanning buckets in
/// order and each bucket front to back selects by priority first and FIFO
/// among equals, with no per-thread sequence numbers.
struct RunQueue {
    buckets: Vec<VecDeque<u32>>,
    mask: Vec<u64>,
    len: usize,
}

impl RunQueue {
    fn new(num_buckets: usize) -> Self {
        RunQueue {
            buckets: vec![VecDeque::new(); num_buckets],
            mask: vec![0u64; num_buckets.div_ceil(64).max(1)],
            len: 0,
        }
    }

    fn push(&mut self, bucket: usize, thread: u32) {
        self.buckets[bucket].push_back(thread);
        self.mask[bucket / 64] |= 1 << (bucket % 64);
        self.len += 1;
    }

    fn remove_at(&mut self, bucket: usize, pos: usize) -> u32 {
        let t = self.buckets[bucket].remove(pos).expect("runqueue position valid");
        if self.buckets[bucket].is_empty() {
            self.mask[bucket / 64] &= !(1 << (bucket % 64));
        }
        self.len -= 1;
        t
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the first non-empty bucket at or after `from`.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= self.mask.len() {
            return None;
        }
        let mut word = self.mask[w] & !((1u64 << (from % 64)) - 1);
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.mask.len() {
                return None;
            }
            word = self.mask[w];
        }
    }
}

/// Counters describing the work the discrete-event engine performed.
///
/// Snapshot them with [`Simulator::stats`]; all counters are cumulative
/// since the simulator was built. `rebalance_skipped / events` measures how
/// often the dirty gate saved a scheduling pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed by the main loop (heap pops plus per-CPU
    /// completion and slice slots fired).
    pub events: u64,
    /// Events pushed onto the binary heap: the timed wakeups. Completions
    /// and slice checks live in per-CPU slots.
    pub heap_pushes: u64,
    /// Popped events that did nothing because they had gone stale. Always
    /// zero: a deschedule clears the per-CPU slots, and a timed wakeup is
    /// never stale. The field stays because the benchmark reports it.
    pub stale_pops: u64,
    /// Round-robin slice checks armed (slot writes).
    pub slice_arms: u64,
    /// Slice-check arms elided because no other thread can ever contend at
    /// the running thread's priority or above.
    pub slice_suppressed: u64,
    /// Scheduling passes that actually ran.
    pub rebalance_runs: u64,
    /// Scheduling passes skipped because the ready/running sets were
    /// unchanged since the last pass.
    pub rebalance_skipped: u64,
    /// Context switches emitted.
    pub switches: u64,
}

/// Builds a [`Simulator`]: configure core count and timeslice, then spawn
/// threads.
pub struct SimulatorBuilder {
    cpus: usize,
    timeslice: Nanos,
    first_pid: u32,
    threads: Vec<Thread>,
}

impl SimulatorBuilder {
    /// Creates a builder for a machine with `cpus` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or greater than 64.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0 && cpus <= 64, "cpus must be in 1..=64");
        SimulatorBuilder {
            cpus,
            timeslice: Nanos::from_millis(1),
            first_pid: 1000,
            threads: Vec::new(),
        }
    }

    /// Sets the round-robin timeslice among equal-priority threads
    /// (default 1 ms).
    pub fn timeslice(mut self, slice: Nanos) -> Self {
        assert!(slice > Nanos::ZERO, "timeslice must be positive");
        self.timeslice = slice;
        self
    }

    /// The PID the next [`SimulatorBuilder::spawn`] call will assign.
    /// PIDs are handed out sequentially, so callers that need to know a
    /// thread's identity before constructing its logic (e.g. to register
    /// message readers) can rely on this.
    pub fn next_pid(&self) -> Pid {
        Pid::new(self.first_pid + self.threads.len() as u32)
    }

    /// Spawns a thread and returns its PID. Threads start runnable at time
    /// zero.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        prio: Priority,
        affinity: Affinity,
        logic: Box<dyn ThreadLogic>,
    ) -> Pid {
        let pid = Pid::new(self.first_pid + self.threads.len() as u32);
        self.threads.push(Thread {
            pid,
            name: name.into(),
            prio,
            affinity,
            state: RunState::Runnable,
            remaining: None,
            dispatched_at: Nanos::ZERO,
            pending_wake: false,
            bucket: 0,
            contended: true,
            last_cpu: Cpu::new(0),
            cpu_time: Nanos::ZERO,
            logic: Some(logic),
        });
        pid
    }

    /// Finalizes the machine.
    pub fn build(self) -> Simulator {
        let cpus = self.cpus;
        let mut threads = self.threads;
        // The distinct spawned priorities, highest first, define the
        // runqueue buckets. Priorities are fixed for a thread's lifetime,
        // so this mapping never changes after build.
        let mut bucket_prios: Vec<Priority> = threads.iter().map(|t| t.prio).collect();
        bucket_prios.sort_by_key(|&p| Reverse(p));
        bucket_prios.dedup();
        let mut bucket_counts = vec![0u32; bucket_prios.len()];
        for t in &mut threads {
            let b = bucket_prios.iter().position(|&p| p == t.prio).expect("prio has a bucket");
            t.bucket = b as u32;
            bucket_counts[b] += 1;
        }
        // A thread is uncontended when no other thread has priority >= its
        // own: nothing can ever preempt it at a slice boundary, so slice
        // checks need not be armed for it. Affinity is ignored here — that
        // only makes the flag conservative.
        for t in &mut threads {
            t.contended = t.bucket > 0 || bucket_counts[t.bucket as usize] > 1;
        }
        let mut runqueue = RunQueue::new(bucket_prios.len());
        for (i, t) in threads.iter().enumerate() {
            runqueue.push(t.bucket as usize, i as u32);
        }
        Simulator {
            now: Nanos::ZERO,
            first_pid: self.first_pid,
            threads,
            running: vec![None; cpus],
            last_running: vec![Pid::IDLE; cpus],
            runqueue,
            bucket_prios,
            slots: vec![EMPTY_SLOT; 2 * cpus],
            dirty: true,
            queue: BinaryHeap::new(),
            seq: 0,
            timeslice: self.timeslice,
            record: true,
            events: Vec::new(),
            sinks: Vec::new(),
            busy: vec![Nanos::ZERO; cpus],
            switch_count: 0,
            stats: SimStats::default(),
        }
    }
}

/// The simulated multi-core machine.
///
/// Drive it with [`Simulator::run_until`]; collect the scheduler event
/// stream with [`Simulator::sched_events`] or attach a [`SchedSink`] (the
/// kernel tracer) with [`Simulator::add_sink`].
pub struct Simulator {
    now: Nanos,
    first_pid: u32,
    threads: Vec<Thread>,
    running: Vec<Option<Pid>>,
    /// Per-CPU thread observed at the last event flush, for diff-based
    /// `sched_switch` emission.
    last_running: Vec<Pid>,
    /// Priority-bucketed ready queue.
    runqueue: RunQueue,
    /// Priority of each runqueue bucket (descending), for the preemption
    /// early-out.
    bucket_prios: Vec<Priority>,
    /// Per-CPU completion and slice-check slots (see [`COMPLETION`]),
    /// keyed by [`event_key`].
    slots: Vec<u128>,
    /// Set whenever the ready or running sets change; a scheduling pass is
    /// only needed while this holds.
    dirty: bool,
    /// Timed wakeups, keyed by [`event_key`] (slot 0).
    queue: BinaryHeap<Reverse<(u128, Pid)>>,
    seq: u64,
    timeslice: Nanos,
    record: bool,
    events: Vec<SchedEvent>,
    sinks: Vec<Box<dyn SchedSink>>,
    busy: Vec<Nanos>,
    switch_count: u64,
    stats: SimStats,
}

impl Simulator {
    /// The current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of simulated cores.
    pub fn cpu_count(&self) -> usize {
        self.running.len()
    }

    /// Enables or disables in-memory recording of scheduler events into
    /// [`Simulator::sched_events`] (on by default; sinks fire either way).
    /// The log grows with run length, so long runs that consume the
    /// stream through a sink turn it off.
    pub fn set_recording(&mut self, record: bool) {
        self.record = record;
    }

    /// Attaches a scheduler-event sink (e.g. the eBPF kernel tracer).
    pub fn add_sink(&mut self, sink: Box<dyn SchedSink>) {
        self.sinks.push(sink);
    }

    /// All recorded scheduler events (the unfiltered "firehose").
    pub fn sched_events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Takes ownership of the recorded scheduler events, leaving none.
    pub fn take_sched_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Total CPU time consumed by `pid` so far.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned on this simulator.
    pub fn cpu_time(&self, pid: Pid) -> Nanos {
        self.threads[self.index(pid)].cpu_time
    }

    /// Total busy time of `cpu` so far.
    pub fn busy_time(&self, cpu: Cpu) -> Nanos {
        self.busy[cpu.index()]
    }

    /// The display name the thread was spawned with.
    pub fn thread_name(&self, pid: Pid) -> &str {
        &self.threads[self.index(pid)].name
    }

    /// The thread's scheduling priority.
    pub fn thread_priority(&self, pid: Pid) -> Priority {
        self.threads[self.index(pid)].prio
    }

    /// PIDs of all spawned threads.
    pub fn pids(&self) -> Vec<Pid> {
        self.threads.iter().map(|t| t.pid).collect()
    }

    /// Whether the thread has not exited.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.threads[self.index(pid)].state != RunState::Dead
    }

    /// Number of context switches performed so far.
    pub fn switch_count(&self) -> u64 {
        self.switch_count
    }

    /// A snapshot of the engine's work counters (cumulative since build).
    pub fn stats(&self) -> SimStats {
        SimStats { switches: self.switch_count, ..self.stats }
    }

    /// Runs the simulation up to (and including) time `until`.
    ///
    /// May be called repeatedly with increasing deadlines; time never moves
    /// backwards.
    pub fn run_until(&mut self, until: Nanos) {
        // Initial placement of the ready threads spawned at build time
        // (dirty holds after build; on a resume of a stable machine the
        // pass is skipped).
        self.rebalance_if_dirty();

        loop {
            // The next event is the min of `(time, seq)` over the heap top
            // and the 2 * cpus per-CPU slots. Slot seqs come from the same
            // counter as heap seqs, so events fire in the order they would
            // from one shared heap.
            let slot_key = self.slots.iter().copied().min().unwrap_or(EMPTY_SLOT);
            let heap_key = self.queue.peek().map_or(EMPTY_SLOT, |&Reverse((key, _))| key);
            let key = slot_key.min(heap_key);
            if key == EMPTY_SLOT {
                break;
            }
            let time = Nanos::from_nanos((key >> 64) as u64);
            if time > until {
                break;
            }
            debug_assert!(time >= self.now, "event order must be monotonic");
            self.now = time;
            self.stats.events += 1;
            if slot_key < heap_key {
                let slot = (slot_key & ((1 << SLOT_BITS) - 1)) as usize;
                self.slots[slot] = EMPTY_SLOT;
                let cpu = slot / 2;
                let pid = self.running[cpu].expect("an armed slot's CPU is occupied");
                if slot % 2 == COMPLETION {
                    self.complete_op(pid);
                } else {
                    self.on_slice_check(Cpu::new(cpu as u16), pid);
                }
            } else {
                let Reverse((_, pid)) = self.queue.pop().expect("heap top present");
                self.wake_request(pid);
            }
            self.rebalance_if_dirty();
        }
        // Account partial runtimes up to the horizon.
        self.now = until.max(self.now);
        for cpu in 0..self.running.len() {
            if let Some(pid) = self.running[cpu] {
                self.account_runtime(pid);
            }
        }
    }

    // ---- internals -----------------------------------------------------

    fn index(&self, pid: Pid) -> usize {
        let idx = (pid.get() - self.first_pid) as usize;
        assert!(idx < self.threads.len(), "unknown pid {pid}");
        idx
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Puts a runnable thread at the back of its runqueue bucket. Every
    /// caller is a ready-set mutation, so the dirty flag is raised here.
    fn make_ready(&mut self, idx: usize) {
        self.dirty = true;
        let bucket = self.threads[idx].bucket as usize;
        self.runqueue.push(bucket, idx as u32);
    }

    fn emit(&mut self, event: SchedEvent) {
        for sink in &mut self.sinks {
            sink.on_sched_event(&event);
        }
        if self.record {
            self.events.push(event);
        }
    }

    fn account_runtime(&mut self, pid: Pid) {
        let idx = self.index(pid);
        let (ran, cpu) = match self.threads[idx].state {
            RunState::Running(cpu) => (self.now - self.threads[idx].dispatched_at, cpu),
            _ => return,
        };
        self.threads[idx].cpu_time += ran;
        self.threads[idx].dispatched_at = self.now;
        self.busy[cpu.index()] += ran;
    }

    pub(crate) fn wake_request(&mut self, pid: Pid) {
        let idx = self.index(pid);
        match self.threads[idx].state {
            RunState::Blocked => {
                self.threads[idx].state = RunState::Runnable;
                self.make_ready(idx);
                let ev = SchedEvent::wakeup(
                    self.now,
                    self.threads[idx].last_cpu,
                    pid,
                    self.threads[idx].prio,
                );
                self.emit(ev);
            }
            RunState::Running(_) | RunState::Runnable => {
                self.threads[idx].pending_wake = true;
            }
            RunState::Dead => {}
        }
    }

    /// Queues a timed wakeup of `pid` at `at`, or now if `at` has passed.
    pub(crate) fn schedule_wake(&mut self, pid: Pid, at: Nanos) {
        let seq = self.next_seq();
        self.stats.heap_pushes += 1;
        self.queue.push(Reverse((event_key(at.max(self.now), seq, 0), pid)));
    }

    /// The running thread's current `Compute` finished: ask its logic for
    /// the next op.
    fn complete_op(&mut self, pid: Pid) {
        self.account_runtime(pid);
        let idx = self.index(pid);
        self.threads[idx].remaining = None;
        self.run_logic(pid);
    }

    /// A slice slot fired for `pid`, the thread on `cpu` (slots are
    /// cleared at deschedule, so it is never stale).
    fn on_slice_check(&mut self, cpu: Cpu, pid: Pid) {
        let bucket = self.threads[self.index(pid)].bucket as usize;
        if self.has_contender_for(bucket, cpu) {
            self.preempt(pid);
        } else {
            self.arm_slice(cpu, pid);
        }
    }

    /// Whether any ready thread in buckets `0..=max_bucket` (i.e. with
    /// priority >= the bucket's priority) may run on `cpu`.
    fn has_contender_for(&self, max_bucket: usize, cpu: Cpu) -> bool {
        let mut b = self.runqueue.first_from(0);
        while let Some(bi) = b {
            if bi > max_bucket {
                return false;
            }
            if self.runqueue.buckets[bi]
                .iter()
                .any(|&t| self.threads[t as usize].affinity.allows(cpu))
            {
                return true;
            }
            b = self.runqueue.first_from(bi + 1);
        }
        false
    }

    /// Arms the round-robin slice check for `pid` on `cpu` in the per-CPU
    /// slot, with a fresh seq from the counter the heap shares.
    ///
    /// An uncontended thread's check could re-arm forever without ever
    /// preempting, so both the check and its seq are elided: a gap in the
    /// seq sequence leaves the relative order of every other event as is.
    fn arm_slice(&mut self, cpu: Cpu, pid: Pid) {
        let idx = self.index(pid);
        if !self.threads[idx].contended {
            self.stats.slice_suppressed += 1;
            return;
        }
        let seq = self.next_seq();
        self.stats.slice_arms += 1;
        let slot = 2 * cpu.index() + SLICE;
        self.slots[slot] = event_key(self.now + self.timeslice, seq, slot);
    }

    /// Arms the completion of the current `Compute` op of `cpu`'s thread
    /// at `at` in the CPU's completion slot, with a fresh seq from the
    /// counter the heap shares. A deschedule clears the slot, so an
    /// abandoned completion can never fire.
    fn arm_completion(&mut self, cpu: Cpu, at: Nanos) {
        let seq = self.next_seq();
        let slot = 2 * cpu.index() + COMPLETION;
        self.slots[slot] = event_key(at, seq, slot);
    }

    /// Removes `pid` from its CPU. `target` must be `Runnable` (preemption /
    /// slice rotation), `Blocked`, or `Dead`.
    fn deschedule(&mut self, pid: Pid, target: RunState) {
        let idx = self.index(pid);
        let cpu = match self.threads[idx].state {
            RunState::Running(cpu) => cpu,
            _ => panic!("deschedule of a non-running thread"),
        };
        self.account_runtime(pid);
        self.threads[idx].state = target;
        self.threads[idx].last_cpu = cpu;
        self.running[cpu.index()] = None;
        // The CPU's pending completion and slice check belonged to this
        // thread; drop both so the main loop never sees a stale event.
        self.slots[2 * cpu.index() + COMPLETION] = EMPTY_SLOT;
        self.slots[2 * cpu.index() + SLICE] = EMPTY_SLOT;
        self.dirty = true;
        if target == RunState::Runnable {
            self.make_ready(idx);
        }
    }

    /// Picks the highest-priority ready thread allowed on `cpu` (FIFO among
    /// equals) and removes it from the runqueue: scan non-empty buckets
    /// highest-priority-first, front-to-back within a bucket, and take the
    /// first thread whose affinity allows `cpu`.
    fn pop_ready_for(&mut self, cpu: Cpu) -> Option<Pid> {
        let mut b = self.runqueue.first_from(0);
        while let Some(bi) = b {
            let hit = self.runqueue.buckets[bi]
                .iter()
                .position(|&t| self.threads[t as usize].affinity.allows(cpu));
            if let Some(pos) = hit {
                let t = self.runqueue.remove_at(bi, pos);
                return Some(self.threads[t as usize].pid);
            }
            b = self.runqueue.first_from(bi + 1);
        }
        None
    }

    fn dispatch(&mut self, pid: Pid, cpu: Cpu) {
        let idx = self.index(pid);
        debug_assert_eq!(self.threads[idx].state, RunState::Runnable);
        self.threads[idx].state = RunState::Running(cpu);
        self.threads[idx].dispatched_at = self.now;
        self.threads[idx].last_cpu = cpu;
        self.running[cpu.index()] = Some(pid);
        match self.threads[idx].remaining {
            Some(rem) => {
                self.arm_completion(cpu, self.now + rem);
                self.arm_slice(cpu, pid);
            }
            None => {
                self.run_logic(pid);
                // `run_logic` may have blocked/exited the thread; only arm
                // the slice timer if it is still on the CPU.
                if self.running[cpu.index()] == Some(pid) {
                    self.arm_slice(cpu, pid);
                }
            }
        }
    }

    /// Asks the thread's logic for operations until one takes time.
    /// The thread must currently be running.
    fn run_logic(&mut self, pid: Pid) {
        let idx = self.index(pid);
        let mut logic = self.threads[idx].logic.take().expect("logic present");
        loop {
            let op = logic.next_op(&mut SimCtx { sim: self, pid });
            let idx = self.index(pid);
            match op {
                Op::Compute(d) => {
                    let RunState::Running(cpu) = self.threads[idx].state else {
                        unreachable!("only a running thread computes")
                    };
                    self.threads[idx].remaining = Some(d);
                    self.arm_completion(cpu, self.now + d);
                    break;
                }
                Op::Block { until } => {
                    if self.threads[idx].pending_wake {
                        self.threads[idx].pending_wake = false;
                        continue; // signal already arrived: re-poll
                    }
                    self.threads[idx].remaining = None;
                    self.deschedule(pid, RunState::Blocked);
                    if let Some(deadline) = until {
                        self.schedule_wake(pid, deadline);
                    }
                    break;
                }
                Op::Exit => {
                    self.threads[idx].remaining = None;
                    self.deschedule(pid, RunState::Dead);
                    break;
                }
            }
        }
        let idx = self.index(pid);
        self.threads[idx].logic = Some(logic);
    }

    /// Runs a scheduling pass only when the ready or running sets changed
    /// since the last one, then emits the switch diff.
    ///
    /// The invariant making the skip exact: whenever `dirty` is false the
    /// assignment is stable — every mutation of the ready set
    /// (`make_ready`) or the running set (`deschedule`) raises the flag,
    /// and a rebalance of a stable state is a no-op (so is its switch
    /// flush, since `running` only changes under the flag).
    fn rebalance_if_dirty(&mut self) {
        if !self.dirty {
            self.stats.rebalance_skipped += 1;
            return;
        }
        self.stats.rebalance_runs += 1;
        self.rebalance();
        self.flush_switches();
        // Cleared *after* the pass: dispatches and preemptions inside it
        // re-raise the flag, but the loop only exits once the assignment
        // is stable again.
        self.dirty = false;
    }

    /// One scheduling pass over the runqueue: fill idle CPUs, then resolve
    /// preemptions, until the assignment is stable. Candidates are tried
    /// in priority order, FIFO among equals.
    fn rebalance(&mut self) {
        loop {
            let mut changed = false;
            // Fill idle CPUs.
            if !self.runqueue.is_empty() {
                for c in 0..self.running.len() {
                    if self.running[c].is_none() {
                        if let Some(pid) = self.pop_ready_for(Cpu::new(c as u16)) {
                            self.dispatch(pid, Cpu::new(c as u16));
                            changed = true;
                        }
                    }
                }
            }
            // Preemption early-out: a victim must be a *running* thread
            // with priority strictly below some ready thread's, so if the
            // best ready priority does not exceed the lowest running
            // priority there is nothing to scan.
            let best_ready = self.runqueue.first_from(0);
            let preemptable = match best_ready {
                None => false,
                Some(b) => {
                    let best_prio = self.bucket_prios[b];
                    self.running.iter().flatten().any(|&run| {
                        self.threads[self.index(run)].prio < best_prio
                    })
                }
            };
            if preemptable {
                // Scan candidates in (prio desc, FIFO) order: non-empty
                // buckets ascending, front-to-back within each.
                let mut found: Option<(usize, usize, Pid, Cpu)> = None;
                let mut b = best_ready;
                'outer: while let Some(bi) = b {
                    for (pos, &t) in self.runqueue.buckets[bi].iter().enumerate() {
                        let prio = self.threads[t as usize].prio;
                        let affinity = self.threads[t as usize].affinity;
                        let mut victim: Option<(Priority, Cpu)> = None;
                        for c in 0..self.running.len() {
                            let cpu = Cpu::new(c as u16);
                            if !affinity.allows(cpu) {
                                continue;
                            }
                            if let Some(run) = self.running[c] {
                                let rp = self.threads[self.index(run)].prio;
                                if rp < prio && victim.is_none_or(|(vp, _)| rp < vp) {
                                    victim = Some((rp, cpu));
                                }
                            }
                        }
                        if let Some((_, cpu)) = victim {
                            found = Some((bi, pos, self.threads[t as usize].pid, cpu));
                            break 'outer;
                        }
                    }
                    b = self.runqueue.first_from(bi + 1);
                }
                if let Some((bi, pos, pid, cpu)) = found {
                    let run = self.running[cpu.index()].expect("victim running");
                    // `preempt` pushes the victim to the *back* of its
                    // bucket, so the candidate's position is still valid.
                    self.preempt(run);
                    self.runqueue.remove_at(bi, pos);
                    self.dispatch(pid, cpu);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Preempts a running thread, preserving its remaining work.
    fn preempt(&mut self, pid: Pid) {
        let idx = self.index(pid);
        if let (RunState::Running(_), Some(rem)) =
            (self.threads[idx].state, self.threads[idx].remaining)
        {
            let ran = self.now - self.threads[idx].dispatched_at;
            self.threads[idx].remaining = Some(rem.saturating_sub(ran));
        }
        self.deschedule(pid, RunState::Runnable);
    }

    /// Emits diff-based `sched_switch` events after a scheduling pass.
    fn flush_switches(&mut self) {
        for c in 0..self.running.len() {
            let current = self.running[c].unwrap_or(Pid::IDLE);
            let prev = self.last_running[c];
            if current == prev {
                continue;
            }
            let (prev_prio, prev_state) = if prev.is_idle() {
                (Priority::NORMAL, ThreadState::Runnable)
            } else {
                let t = &self.threads[self.index(prev)];
                let st = match t.state {
                    RunState::Runnable | RunState::Running(_) => ThreadState::Runnable,
                    RunState::Blocked => ThreadState::Sleeping,
                    RunState::Dead => ThreadState::Dead,
                };
                (t.prio, st)
            };
            let next_prio = if current.is_idle() {
                Priority::NORMAL
            } else {
                self.threads[self.index(current)].prio
            };
            let ev = SchedEvent::switch(
                self.now,
                Cpu::new(c as u16),
                prev,
                prev_prio,
                prev_state,
                current,
                next_prio,
            );
            self.emit(ev);
            self.switch_count += 1;
            self.last_running[c] = current;
        }
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("cpus", &self.running.len())
            .field("threads", &self.threads.len())
            .field("switches", &self.switch_count)
            .finish()
    }
}

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod invariants;

#[cfg(test)]
mod tests {
    use super::invariants::{check, Spawned};
    use super::*;
    use crate::loadgen::ScriptedLogic;
    use rtms_trace::SchedEventKind;

    fn compute(ms: u64) -> Op {
        Op::Compute(Nanos::from_millis(ms))
    }

    #[test]
    fn single_thread_runs_and_exits() {
        let mut b = SimulatorBuilder::new(1);
        let pid = b.spawn(
            "t",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(10));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(5));
        assert!(!sim.is_alive(pid));
        // switch to thread, switch to idle
        assert!(sim.switch_count() >= 2);
    }

    #[test]
    fn two_threads_share_one_core() {
        let mut b = SimulatorBuilder::new(1);
        let a = b.spawn(
            "a",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(4)])),
        );
        let c = b.spawn(
            "b",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(4)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(a), Nanos::from_millis(4));
        assert_eq!(sim.cpu_time(c), Nanos::from_millis(4));
        // Total work 8ms on one core: busy time is exactly 8ms.
        assert_eq!(sim.busy_time(Cpu::new(0)), Nanos::from_millis(8));
    }

    #[test]
    fn round_robin_interleaves_equal_priorities() {
        // Two 10ms jobs, 1ms timeslice on one core: both should finish
        // around t=20ms, interleaved (not FIFO: first would finish at 10ms,
        // second at 20ms; under RR the first finishes at ~19ms).
        let mut b = SimulatorBuilder::new(1);
        let a = b.spawn(
            "a",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let c = b.spawn(
            "b",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(15));
        // At 15ms, both have run roughly half the time each.
        let ta = sim.cpu_time(a).as_millis_f64();
        let tb = sim.cpu_time(c).as_millis_f64();
        assert!((ta - 7.5).abs() <= 1.0, "a ran {ta}ms, want ~7.5");
        assert!((tb - 7.5).abs() <= 1.0, "b ran {tb}ms, want ~7.5");
        assert!(sim.switch_count() > 10, "RR must context-switch repeatedly");
    }

    #[test]
    fn higher_priority_preempts() {
        let mut b = SimulatorBuilder::new(1);
        let low = b.spawn(
            "low",
            Priority::new(1),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let high = b.spawn(
            "high",
            Priority::new(5),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![
                Op::sleep_until(Nanos::from_millis(2)),
                compute(3),
            ])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(high), Nanos::from_millis(3));
        assert_eq!(sim.cpu_time(low), Nanos::from_millis(10));
        // High thread ran [2,5); low thread must have been preempted, so it
        // finishes at 13ms, not 10ms. Check via the final switch to idle.
        let last_low_switch = sim
            .sched_events()
            .iter()
            .filter_map(|e| match &e.kind {
                SchedEventKind::Switch { prev_pid, prev_state, .. }
                    if *prev_pid == low && *prev_state == ThreadState::Dead =>
                {
                    Some(e.time)
                }
                _ => None,
            })
            .next_back()
            .expect("low thread exits");
        assert_eq!(last_low_switch, Nanos::from_millis(13));
    }

    #[test]
    fn affinity_is_respected() {
        let mut b = SimulatorBuilder::new(2);
        let pinned = b.spawn(
            "pinned",
            Priority::NORMAL,
            Affinity::only(Cpu::new(1)),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(10));
        assert_eq!(sim.cpu_time(pinned), Nanos::from_millis(5));
        assert_eq!(sim.busy_time(Cpu::new(0)), Nanos::ZERO);
        assert_eq!(sim.busy_time(Cpu::new(1)), Nanos::from_millis(5));
        // Every switch event involving the pinned thread names cpu1.
        for e in sim.sched_events() {
            if e.prev_pid() == Some(pinned) || e.next_pid() == Some(pinned) {
                assert_eq!(e.cpu, Cpu::new(1));
            }
        }
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut b = SimulatorBuilder::new(2);
        let a = b.spawn(
            "a",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let c = b.spawn(
            "b",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(5));
        // Both finish by t=5ms: they ran concurrently.
        assert_eq!(sim.cpu_time(a), Nanos::from_millis(5));
        assert_eq!(sim.cpu_time(c), Nanos::from_millis(5));
    }

    #[test]
    fn block_and_timed_wake() {
        let mut b = SimulatorBuilder::new(1);
        let pid = b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![
                compute(1),
                Op::sleep_until(Nanos::from_millis(8)),
                compute(1),
            ])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(2));
        // A wakeup event fires at t=8ms.
        let wake = sim
            .sched_events()
            .iter()
            .find(|e| matches!(e.kind, SchedEventKind::Wakeup { pid: p, .. } if p == pid))
            .expect("wakeup recorded");
        assert_eq!(wake.time, Nanos::from_millis(8));
    }

    /// A thread that wakes a sleeping partner mid-run.
    struct Waker {
        target: Pid,
        step: u8,
    }
    impl ThreadLogic for Waker {
        fn next_op(&mut self, ctx: &mut SimCtx<'_>) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::Compute(Nanos::from_millis(3)),
                2 => {
                    ctx.wake(self.target);
                    Op::Compute(Nanos::from_millis(1))
                }
                _ => Op::Exit,
            }
        }
    }

    #[test]
    fn cross_thread_wake() {
        let mut b = SimulatorBuilder::new(2);
        let sleeper = b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::block(), compute(2)])),
        );
        let waker =
            b.spawn("waker", Priority::NORMAL, Affinity::all(), Box::new(Waker { target: sleeper, step: 0 }));
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(sleeper), Nanos::from_millis(2));
        assert_eq!(sim.cpu_time(waker), Nanos::from_millis(4));
        let wake = sim
            .sched_events()
            .iter()
            .find(|e| matches!(e.kind, SchedEventKind::Wakeup { pid: p, .. } if p == sleeper))
            .expect("wakeup recorded");
        assert_eq!(wake.time, Nanos::from_millis(3));
    }

    #[test]
    fn pending_wake_prevents_lost_signal() {
        // Waker signals the sleeper before the sleeper blocks: the block
        // must return immediately rather than hang forever.
        let mut b = SimulatorBuilder::new(1);
        // Waker runs first (spawned first, same priority, FIFO) and wakes
        // the sleeper while the sleeper has not yet blocked.
        struct EarlyWaker {
            target: Pid,
            done: bool,
        }
        impl ThreadLogic for EarlyWaker {
            fn next_op(&mut self, ctx: &mut SimCtx<'_>) -> Op {
                if self.done {
                    Op::Exit
                } else {
                    self.done = true;
                    ctx.wake(self.target);
                    Op::Compute(Nanos::from_millis(2))
                }
            }
        }
        // Spawn the sleeper second so the waker must signal before the
        // sleeper has ever run. PIDs are sequential (`next_pid`), so the
        // sleeper — the second spawn — gets next_pid() + 1.
        let sleeper_pid = Pid::new(b.next_pid().get() + 1);
        let waker = b.spawn(
            "waker",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(EarlyWaker { target: sleeper_pid, done: false }),
        );
        let sleeper = b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::block(), compute(1)])),
        );
        assert_eq!(sleeper, sleeper_pid);
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(waker), Nanos::from_millis(2));
        assert_eq!(sim.cpu_time(sleeper), Nanos::from_millis(1), "signal must not be lost");
    }

    #[test]
    fn switch_stream_is_consistent() {
        // Per CPU, the prev of each switch equals the next of the previous
        // switch on that CPU (diff-based emission guarantees continuity).
        let mut b = SimulatorBuilder::new(2);
        for i in 0..4 {
            b.spawn(
                format!("t{i}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![
                    compute(3),
                    Op::sleep_until(Nanos::from_millis(10 + i)),
                    compute(2),
                ])),
            );
        }
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(40));
        let mut current: Vec<Pid> = vec![Pid::IDLE; 2];
        let mut prev_time = Nanos::ZERO;
        for e in sim.sched_events() {
            assert!(e.time >= prev_time, "events must be chronological");
            prev_time = e.time;
            if let SchedEventKind::Switch { prev_pid, next_pid, .. } = &e.kind {
                assert_eq!(
                    *prev_pid,
                    current[e.cpu.index()],
                    "switch continuity broken at {}",
                    e.time
                );
                assert_ne!(prev_pid, next_pid, "degenerate switch");
                current[e.cpu.index()] = *next_pid;
            }
        }
    }

    #[test]
    fn run_until_is_resumable() {
        let mut b = SimulatorBuilder::new(1);
        let pid = b.spawn(
            "t",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(4));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(4));
        sim.run_until(Nanos::from_millis(12));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(10));
    }

    #[test]
    fn affinity_helpers() {
        let a = Affinity::from_cpus([Cpu::new(0), Cpu::new(3)]);
        assert!(a.allows(Cpu::new(0)));
        assert!(!a.allows(Cpu::new(1)));
        assert!(a.allows(Cpu::new(3)));
        assert_eq!(Affinity::default(), Affinity::all());
    }

    #[test]
    #[should_panic]
    fn zero_cpus_rejected() {
        let _ = SimulatorBuilder::new(0);
    }

    /// A 3-priority, mixed-affinity machine on which thread `i` computes
    /// `2 + i % 3`, 3 and 1 ms, sleeping in between.
    fn mixed_machine(b: &mut SimulatorBuilder) {
        for i in 0..6u64 {
            let prio = Priority::new((i % 3) as i32);
            let affinity = if i % 2 == 0 {
                Affinity::all()
            } else {
                Affinity::only(Cpu::new((i % 2) as u16))
            };
            b.spawn(
                format!("t{i}"),
                prio,
                affinity,
                Box::new(ScriptedLogic::new(vec![
                    compute(2 + i % 3),
                    Op::sleep_until(Nanos::from_millis(8 + i)),
                    compute(3),
                    Op::sleep_until(Nanos::from_millis(20 + 2 * i)),
                    compute(1),
                ])),
            );
        }
    }

    /// The invariant checker's view of every spawned thread; the scripts
    /// here compute after every wakeup.
    fn spawned(sim: &Simulator) -> Vec<Spawned> {
        sim.threads
            .iter()
            .map(|t| Spawned {
                pid: t.pid,
                prio: t.prio,
                cpus: t.affinity.0,
                empty_wakes: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn mixed_machine_keeps_scheduler_invariants() {
        let mut b = SimulatorBuilder::new(2);
        mixed_machine(&mut b);
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(60));
        let checked = check(sim.sched_events(), 2, &spawned(&sim));
        assert_eq!(checked.zero_length_runs, 0);
        for (i, pid) in sim.pids().into_iter().enumerate() {
            assert_eq!(sim.cpu_time(pid), Nanos::from_millis(6 + i as u64 % 3));
            assert!(!sim.is_alive(pid));
        }
    }

    #[test]
    fn stats_track_engine_work() {
        // Two equal-priority 10 ms jobs on two cores: each arms slice
        // checks (it has an equal-priority peer), but while both run no
        // contender is ready, so the checks re-arm without a scheduling
        // pass. A third thread sleeps past the jobs: its one timed wakeup
        // is the only heap push.
        let mut b = SimulatorBuilder::new(2);
        for i in 0..2 {
            b.spawn(
                format!("t{i}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![compute(10)])),
            );
        }
        b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::sleep_until(Nanos::from_millis(25)), compute(1)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(30));
        let stats = sim.stats();
        assert!(stats.events > 0, "events must be counted");
        assert_eq!(stats.heap_pushes, 1, "only the timed wakeup goes through the heap");
        assert!(stats.slice_arms > 0, "equal priorities arm slice checks");
        assert!(
            stats.rebalance_skipped > 0,
            "uncontended slice re-arms must not trigger scheduling passes"
        );
        assert_eq!(stats.stale_pops, 0, "per-CPU slots never fire stale");
        assert_eq!(stats.switches, sim.switch_count());
        // Equal-priority peers: nothing is suppressed.
        assert_eq!(stats.slice_suppressed, 0);
    }

    #[test]
    fn preempted_completions_never_pop_stale() {
        // Round robin on one core preempts in-flight `Compute`s; the
        // deschedule clears each abandoned completion with its slot.
        let mut b = SimulatorBuilder::new(1);
        for i in 0..3 {
            b.spawn(
                format!("t{i}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![compute(5), compute(3)])),
            );
        }
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(1));
        assert_eq!(sim.threads[0].state, RunState::Runnable, "the first slice check preempts t0");
        assert_eq!(sim.threads[0].remaining, Some(Nanos::from_millis(4)), "t0 left mid-op");
        sim.run_until(Nanos::from_millis(40));
        check(sim.sched_events(), 1, &spawned(&sim));
        let stats = sim.stats();
        assert_eq!(stats.stale_pops, 0);
        assert_eq!(stats.heap_pushes, 0, "nothing sleeps, so nothing goes through the heap");
        // 24 ms of work in whole-millisecond ops: a slice check fires at
        // each of the 24 millisecond marks except the three where a thread
        // exits (its deschedule clears the armed check), plus six
        // completions.
        assert_eq!(stats.events, 21 + 6);
    }

    #[test]
    fn lone_top_priority_thread_suppresses_slice_checks() {
        // One thread strictly above everything else: its slice checks can
        // never find a contender, so none are armed for it.
        let mut b = SimulatorBuilder::new(1);
        b.spawn(
            "top",
            Priority::new(9),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        b.spawn(
            "low",
            Priority::new(1),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        let stats = sim.stats();
        assert!(stats.slice_suppressed > 0, "top thread's arms are elided");
        assert!(stats.slice_arms > 0, "low thread still arms (top outranks it)");
    }

    #[test]
    fn sink_receives_events() {
        #[derive(Default)]
        struct Counter(usize);
        impl SchedSink for Counter {
            fn on_sched_event(&mut self, _event: &SchedEvent) {
                self.0 += 1;
            }
        }
        let counter = Rc::new(RefCell::new(Counter::default()));
        let mut b = SimulatorBuilder::new(1);
        b.spawn(
            "t",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(1)])),
        );
        let mut sim = b.build();
        sim.add_sink(Box::new(Rc::clone(&counter)));
        sim.run_until(Nanos::from_millis(5));
        assert_eq!(counter.borrow().0, sim.sched_events().len());
        assert!(counter.borrow().0 > 0);
    }
}
