//! One persistent helper thread per calling thread, for overlapping a
//! borrowed job with work on the caller.
//!
//! The pipelined trace path (`Ros2World::trace_segments_pipelined`) runs
//! its consumer loop on a second thread while the calling thread collects
//! segments. Spawning and joining a thread for every call costs tens of
//! microseconds, plus a cold stack, a cold allocator cache and fresh
//! thread-local state on the new thread; a monitoring loop that traces
//! thousands of short worlds pays that every time. [`overlap`] instead
//! hands the job to a worker that the calling thread spawns on first use
//! and keeps for its lifetime, and blocks until the job is done.
//!
//! The worker idles on a [`Condvar`], and the caller waits for the job on
//! a second one; both sit behind one [`Mutex`]. Nothing here spins or
//! parks by hand, so the only hand-rolled waits in this crate stay the
//! rings of [`crate::spsc`] and [`crate::mpsc`].
//!
//! The job may borrow from the caller's stack. [`overlap`] erases that
//! lifetime in one `unsafe` block and makes it sound by never returning
//! or unwinding before the worker reports the job done; see "Pipeline
//! internals" in `docs/PERFORMANCE.md`.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A posted job: the caller's closure with its lifetime erased. The
/// worker calls it once.
type Job = &'static mut (dyn FnMut() + Send);

/// State shared by one worker thread and the thread that owns it.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is posted or the owner hangs up.
    posted: Condvar,
    /// Signalled when the posted job has finished.
    finished: Condvar,
}

#[derive(Default)]
struct State {
    /// The job waiting for the worker.
    job: Option<Job>,
    /// How the last job ended, until the owner collects it.
    done: Option<std::thread::Result<()>>,
    /// Set when the owning handle is dropped: the worker exits.
    hung_up: bool,
}

impl Shared {
    /// Locks the state. No code panics while holding the lock, so a
    /// poisoned mutex still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The owning handle of a worker thread. Dropping it ends the thread.
struct Worker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn() -> Worker {
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("rtms-worker".into())
            .spawn(move || serve(&theirs))
            .expect("spawning a pipeline worker thread");
        Worker { shared, thread: Some(thread) }
    }
}

impl Drop for Worker {
    /// Hangs up and joins the thread. A worker is dropped only while idle
    /// (a running job's worker is held by its `Pending`), so the join
    /// returns as soon as the thread sees the flag.
    fn drop(&mut self) {
        self.shared.lock().hung_up = true;
        self.shared.posted.notify_one();
        if let Some(thread) = self.thread.take() {
            // `serve` catches every job's panic, so the thread cannot
            // have panicked; a drop must not panic either way.
            let _ = thread.join();
        }
    }
}

/// The worker thread's loop: wait for a job, run it with its panic caught,
/// report how it ended, repeat until the owner hangs up.
fn serve(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.job.take() {
                    break job;
                }
                if state.hung_up {
                    return;
                }
                state = shared.posted.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The job is not touched again after this call returns, which is
        // what lets its owner free it as soon as `done` is set.
        let result = panic::catch_unwind(AssertUnwindSafe(job));
        shared.lock().done = Some(result);
        shared.finished.notify_one();
    }
}

thread_local! {
    /// This thread's idle worker. A running call takes it out, so a call
    /// made while another is running on the same thread gets its own.
    static WORKER: Cell<Option<Worker>> = const { Cell::new(None) };
}

/// A job posted to a worker and not yet collected. Dropping it waits for
/// the job, so the caller's frame cannot go away while the worker still
/// runs the closure that borrows it.
struct Pending {
    worker: Option<Worker>,
}

impl Pending {
    /// Posts `job` to this thread's worker, spawning it on first use.
    fn post(job: Job) -> Pending {
        let worker = WORKER.try_with(Cell::take).ok().flatten().unwrap_or_else(Worker::spawn);
        worker.shared.lock().job = Some(job);
        worker.shared.posted.notify_one();
        Pending { worker: Some(worker) }
    }

    /// Blocks until the job has finished, then gives the worker back to
    /// this thread. Returns how the job ended; `Ok` if already collected.
    fn finish(&mut self) -> std::thread::Result<()> {
        let Some(worker) = self.worker.take() else {
            return Ok(());
        };
        let result = {
            let mut state = worker.shared.lock();
            loop {
                if let Some(result) = state.done.take() {
                    break result;
                }
                state = worker.shared.finished.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Keep one idle worker per thread: one that a call made meanwhile
        // returned retires. After the thread-local is destroyed this one
        // retires instead.
        let _ = WORKER.try_with(move |slot| slot.set(Some(worker)));
        result
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        // Only reached with the worker still held when `producer` panicked:
        // the job's own outcome is dropped with it.
        let _ = self.finish();
    }
}

/// Runs `job` on this thread's worker while `producer` runs on the calling
/// thread, and returns `producer`'s result once both have finished.
///
/// The first call on a thread spawns its worker, and later calls reuse it,
/// so a thread that calls this in a loop pays one spawn in total. The
/// worker exits when its thread does. A call made inside `job` runs on the
/// worker's thread and so gets that thread's own worker.
///
/// Both closures may borrow from the caller. The call does not return, and
/// does not unwind, before `job` has finished. So whatever `job` waits for
/// must be released by `producer` itself, typically by moving the sending
/// end of a channel into it: a `producer` that returns or panics drops its
/// captures, and the job sees the channel close.
///
/// # Panics
///
/// If `job` panics, its panic resumes on the caller once `producer` has
/// returned. If `producer` panics, its panic resumes once `job` has
/// finished, and `job`'s own outcome is dropped.
///
/// # Example
///
/// ```
/// let (tx, rx) = std::sync::mpsc::channel();
/// let mut sum = 0;
/// let total = &mut sum;
/// rtms_util::worker::overlap(
///     move || *total = rx.iter().sum(),
///     move || (1..=4).for_each(|i| tx.send(i).unwrap()),
/// );
/// assert_eq!(sum, 10);
/// ```
pub fn overlap<J, P, R>(job: J, producer: P) -> R
where
    J: FnOnce() + Send,
    P: FnOnce() -> R,
{
    let mut job = Some(job);
    let mut call = move || {
        if let Some(job) = job.take() {
            job();
        }
    };
    let call: &mut (dyn FnMut() + Send + '_) = &mut call;
    // SAFETY: only the lifetime changes. The worker calls `call` and then
    // never touches it again once it sets `done` (see `serve`). `pending`
    // is declared after `call`, so it is dropped first, and every path out
    // of this function goes through `Pending::finish`: `wait` below on
    // return, `Pending::drop` while unwinding from `producer`. `finish`
    // returns only after it has seen `done`. So `call`, and everything it
    // borrows, outlives the worker's use of it. `Pending` is private and
    // never leaked, so its drop cannot be skipped.
    let call: Job = unsafe { std::mem::transmute::<&mut (dyn FnMut() + Send + '_), Job>(call) };
    let mut pending = Pending::post(call);
    let out = producer();
    match pending.finish() {
        Ok(()) => out,
        Err(panic) => panic::resume_unwind(panic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::ThreadId;

    /// The id of the thread that runs a job posted from this one.
    fn worker_id() -> ThreadId {
        let mut id = None;
        overlap(|| id = Some(std::thread::current().id()), || ());
        id.expect("the job ran")
    }

    #[test]
    fn back_to_back_calls_reuse_one_worker() {
        const CALLS: usize = if cfg!(miri) { 20 } else { 1_000 };
        std::thread::spawn(|| {
            let ids: HashSet<ThreadId> = (0..CALLS).map(|_| worker_id()).collect();
            assert_eq!(ids.len(), 1, "one worker spawned for {CALLS} calls");
            assert!(!ids.contains(&std::thread::current().id()), "the job ran off the caller");
        })
        .join()
        .expect("calling thread");
    }

    #[test]
    fn job_and_producer_both_run_to_completion() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut received = Vec::new();
        let into = &mut received;
        let sent = overlap(
            move || into.extend(rx),
            move || {
                (0..100u32).for_each(|i| tx.send(i).expect("job alive"));
                100
            },
        );
        assert_eq!(received, (0..sent).collect::<Vec<_>>());
    }

    #[test]
    fn threads_get_distinct_workers() {
        let ids: Vec<ThreadId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(worker_id)).collect();
            handles.into_iter().map(|h| h.join().expect("caller")).collect()
        });
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 4);
    }

    #[test]
    fn job_panic_resumes_on_the_caller_and_the_worker_survives() {
        std::thread::spawn(|| {
            let before = worker_id();
            let caught = panic::catch_unwind(|| overlap(|| panic!("job failed"), || 7));
            let message = caught.expect_err("the job's panic resumed");
            assert_eq!(message.downcast_ref::<&str>(), Some(&"job failed"));
            assert_eq!(worker_id(), before, "the same worker serves the next call");
        })
        .join()
        .expect("calling thread");
    }

    #[test]
    fn producer_panic_waits_for_the_job_before_unwinding() {
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let done = AtomicBool::new(false);
        let finished = &done;
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            overlap(
                move || {
                    // Ends only once the producer's unwinding drops `tx`;
                    // the pause makes an early return easy to see.
                    assert_eq!(rx.iter().count(), 1);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                },
                move || {
                    tx.send(1).expect("job alive");
                    panic!("producer failed");
                },
            )
        }));
        assert!(caught.is_err(), "the producer's panic resumed");
        assert!(done.load(Ordering::SeqCst), "unwound before the job finished");
        // The worker went back to this thread and still serves calls.
        assert_eq!(worker_id(), worker_id());
    }

    #[test]
    fn nested_call_inside_the_job_uses_the_workers_own_worker() {
        let mut ids = Vec::new();
        overlap(|| ids.push((std::thread::current().id(), worker_id())), || ());
        let (outer, inner) = ids[0];
        assert_ne!(outer, inner, "the nested job ran on a second worker");
    }

    #[test]
    fn call_from_the_producer_gets_a_second_worker() {
        std::thread::spawn(|| {
            let home = worker_id();
            let mut inner = None;
            overlap(|| (), || inner = Some(worker_id()));
            assert_ne!(inner, Some(home), "the busy worker was not reused");
            assert_eq!(worker_id(), home, "the thread keeps one idle worker");
        })
        .join()
        .expect("calling thread");
    }
}
