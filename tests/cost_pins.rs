//! Cost pins: the pipeline's exact, run-invariant costs on one fixed
//! world, checked to the unit.
//!
//! The simulation is deterministic per seed, and so is every allocation
//! the pipeline makes on it. This suite installs a counting global
//! allocator (alloc + realloc events and their requested bytes, counted
//! per thread) and pins:
//!
//! - the recycled-slab segment transport: the pipelined consumer (the
//!   calling thread's persistent worker) allocates nothing outside
//!   `on_segment` over a whole call, and the collecting thread's
//!   allocations for one pipelined call;
//! - the synthesis walker: allocations to feed the run's segments, and to
//!   build the model from them; and that the model's bytes do not grow
//!   with run length;
//! - the monitor's per-window verdict: a fresh session sharing the
//!   baseline's names, its model, and `Monitor::observe`, per window;
//! - the scheduler's and tracers' work counters: `SimStats`, the trace's
//!   event count, the kernel tracer's `sched_switch` filter and the
//!   trace volume.
//!
//! Every allocation count is taken on a freshly spawned thread. A
//! thread's first use of lazily initialized thread-local state allocates
//! once, so a reused thread would read one allocation fewer.
//!
//! The world is the standard bench world with two apps and seed 0 (two
//! generated apps with `GeneratorConfig::default()` on a 4-CPU machine),
//! traced in 250 ms segments. The values read the same in debug and release builds. A
//! change that moves a pin is a change in the pipeline's cost: update
//! the constant and say why in the change log, as with digests.

use ros2_tms::bench::bench_world;
use ros2_tms::monitor::{Baseline, Monitor};
use ros2_tms::sched::SimStats;
use ros2_tms::synthesis::SynthesisSession;
use ros2_tms::trace::Nanos;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`System`] wrapper that counts allocations per thread, so one
/// thread's count is not disturbed by the test harness's other threads.
struct CountingAlloc;

thread_local! {
    /// Allocation events (alloc + realloc) on this thread. `const`
    /// initialization keeps the TLS access itself allocation-free.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those events requested (a realloc counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation event of `bytes` on this thread.
fn note(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s contract is the caller's. The added counter bump
// is a `const`-initialized thread-local, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events so far on the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested so far on the calling thread.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

/// Runs `f` on a freshly spawned thread.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("measurement thread panicked"))
}

const SEGMENT: Nanos = Nanos::from_millis(250);

/// Allocations to feed the 2 s run's 8 segments into one session, as the
/// segments arrive from the sequential trace loop.
const WALKER_FEED_ALLOCS: u64 = 305;
/// Allocations of `SynthesisSession::model` at the end of that run.
const WALKER_MODEL_ALLOCS: u64 = 95;
/// Allocations per monitor window over a 3 s run: 4 baseline segments,
/// then 8 windows, each a fresh session plus its model plus the verdict.
const WINDOW_ALLOCS: [u64; 8] = [179, 170, 163, 181, 169, 163, 170, 180];
/// Allocations on the collecting thread for one pipelined 2 s run whose
/// consumer keeps every segment, with the thread's pipeline worker already
/// running: the simulation, the two rings, and one event vector per
/// stream and segment.
const PIPELINED_PRODUCER_ALLOCS: u64 = 82;

/// The scheduler's work counters after the traced 2 s run.
const TRACED_SIM_STATS: SimStats = SimStats {
    events: 1131,
    heap_pushes: 539,
    stale_pops: 0,
    slice_arms: 520,
    slice_suppressed: 0,
    rebalance_runs: 664,
    rebalance_skipped: 475,
    switches: 667,
};
/// Trace events of the 2 s run, both streams.
const TRACE_EVENTS: usize = 2222;
/// The kernel tracer's `(seen, exported)` scheduler events over that run.
const KERNEL_FILTER: (u64, u64) = (996, 667);
/// Bytes accepted into the perf buffers over that run.
const TRACE_VOLUME_BYTES: usize = 108_568;

#[test]
fn pipelined_transport_allocates_nothing_on_the_consumer_thread() {
    // Three calls on one thread share one worker. Counted: every
    // consumer-thread allocation between the end of the first call's last
    // `on_segment` and the start of the third call's first one, minus
    // those inside `on_segment`. That spans the first call's shutdown, the
    // worker's idle wait, the whole second call and the third's start-up.
    let (outside, workers) = on_fresh_thread(|| {
        let (mut outside, mut last_exit) = (0u64, None::<u64>);
        let mut workers = Vec::new();
        for call in 0..3 {
            let mut w = bench_world(2, 0);
            let mut first = true;
            w.trace_segments_pipelined(Nanos::from_secs(2), SEGMENT, |segment| {
                let entry = allocs();
                if call == 1 || (call == 2 && first) {
                    outside += entry - last_exit.expect("an earlier segment");
                }
                if first {
                    workers.push(std::thread::current().id());
                    first = false;
                }
                std::hint::black_box(segment.len());
                last_exit = Some(allocs());
            });
        }
        (outside, workers)
    });
    assert!(workers.windows(2).all(|w| w[0] == w[1]), "every call ran on one worker");
    assert_eq!(outside, 0, "the steady-state transport allocated");
}

#[test]
fn pipelined_producer_allocations_are_pinned() {
    let producer = on_fresh_thread(|| {
        // Start this thread's worker, so the pinned call runs warm.
        bench_world(1, 0).trace_segments_pipelined(SEGMENT, SEGMENT, |_| {});
        let mut w = bench_world(2, 0);
        let mut kept = Vec::new();
        counted(|| {
            // Keeping every segment returns each slab empty, so every
            // segment is collected into storage of capacity zero, whether
            // its slab is fresh or recycled: the count does not depend on
            // how far the consumer lags.
            w.trace_segments_pipelined(Nanos::from_secs(2), SEGMENT, |segment| {
                kept.push(std::mem::take(segment));
            });
        })
        .1
    });
    assert_eq!(producer, PIPELINED_PRODUCER_ALLOCS);
}

#[test]
fn walker_allocations_are_pinned() {
    let (feed, model) = on_fresh_thread(|| {
        let mut w = bench_world(2, 0);
        let mut session = SynthesisSession::new();
        let mut feed = 0;
        w.trace_segments_sequential(Nanos::from_secs(2), SEGMENT, |segment| {
            feed += counted(|| session.feed_segment(segment)).1;
        });
        (feed, counted(|| session.model()).1)
    });
    assert_eq!((feed, model), (WALKER_FEED_ALLOCS, WALKER_MODEL_ALLOCS));
}

#[test]
fn model_bytes_do_not_grow_with_run_length() {
    let model_of = |secs| {
        on_fresh_thread(|| {
            let mut w = bench_world(2, 0);
            let mut session = SynthesisSession::new();
            w.trace_segments_sequential(Nanos::from_secs(secs), SEGMENT, |segment| {
                session.feed_segment(segment);
            });
            let before = bytes();
            let model = session.model();
            (model, bytes() - before)
        })
    };
    let ((short, short_bytes), (long, long_bytes)) = (model_of(2), model_of(8));
    let keys = |m: &ros2_tms::synthesis::Dag| -> Vec<String> {
        m.vertices().iter().map(|v| v.merge_key()).collect()
    };
    assert_eq!(keys(&short), keys(&long), "the runs must model the same vertices");
    assert!(long.vertices()[0].stats.count() > short.vertices()[0].stats.count());
    assert_eq!(long_bytes, short_bytes, "model bytes grew with run length");
}

#[test]
fn monitor_window_allocations_are_pinned() {
    let per_window = on_fresh_thread(|| {
        let mut segments = Vec::new();
        bench_world(2, 0).trace_segments_sequential(Nanos::from_secs(3), SEGMENT, |s| {
            segments.push(std::mem::take(s));
        });
        let (baseline, windows) = segments.split_at(4);
        let mut session = SynthesisSession::new();
        baseline.iter().for_each(|s| session.feed_segment(s));
        let mut monitor = Monitor::new(Baseline::from_dag(&session.model()));
        windows
            .iter()
            .map(|segment| {
                counted(|| {
                    let mut window = SynthesisSession::with_names(session.names().clone());
                    window.feed_segment(segment);
                    monitor.observe(&window.model(), SEGMENT)
                })
                .1
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(per_window, WINDOW_ALLOCS);
}

#[test]
fn simulator_and_tracer_counters_are_pinned() {
    let mut w = bench_world(2, 0);
    let mut events = 0;
    w.trace_segments_sequential(Nanos::from_secs(2), SEGMENT, |s| events += s.len());
    assert_eq!(events, TRACE_EVENTS);
    assert_eq!(w.simulator().stats(), TRACED_SIM_STATS);
    assert_eq!(w.kernel_filter_stats(), KERNEL_FILTER);
    assert_eq!(w.trace_volume_bytes(), TRACE_VOLUME_BYTES);
}
