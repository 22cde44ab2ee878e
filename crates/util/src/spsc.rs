//! A hand-rolled lock-free single-producer/single-consumer ring.
//!
//! This is the concurrency backbone of the pipelined trace→synthesis hot
//! path (`Ros2World::trace_segments_pipelined`): one producer thread hands
//! filled trace-segment slabs to one consumer thread, and a second ring
//! running in the opposite direction recycles the emptied slabs back. The
//! design follows the classic bounded SPSC queue (Lamport's ring, with the
//! cache-line padding and acquire/release protocol popularized by
//! crossbeam and rigtorp's `SPSCQueue`):
//!
//! - a fixed power-of-two slot array, indexed by free-running `head`
//!   (consumer) and `tail` (producer) counters masked into the array;
//! - `head` and `tail` live on their own cache lines so the producer and
//!   consumer never false-share;
//! - the producer publishes a slot with a `Release` store of `tail`; the
//!   consumer observes it with an `Acquire` load, and vice versa for
//!   `head` — the only synchronization on the steady-state path. No lock,
//!   no CAS, no RMW: each counter has exactly one writer;
//! - when the ring is *full* the producer spins briefly then yields
//!   ([`Producer::push`]); when it is *empty* the consumer spins briefly
//!   then parks the thread ([`Consumer::pop_wait`]) — parking costs a
//!   syscall, so it is reserved for genuinely idle periods, and the
//!   producer unparks it only when the flag says someone is asleep.
//!
//! The memory-ordering argument, the capacity choice for the pipeline,
//! and the slab lifecycle are documented in `docs/PERFORMANCE.md`
//! ("Pipeline internals").

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// Pads and aligns a value to 128 bytes — two cache lines, covering the
/// adjacent-line prefetcher of modern x86 cores (the same choice crossbeam
/// makes). `head` and `tail` each get their own padded slot so a store by
/// one side never invalidates the line the other side spins on.
#[repr(align(128))]
struct CachePadded<T>(T);

/// How many spins before the producer yields the timeslice when the ring
/// is full, or the consumer parks when it is empty. Segments arrive every
/// few tens of microseconds on the bench scenarios; a short spin bridges
/// the common gap without burning a core when the other side stalls.
const SPINS: u32 = 2000;

/// How many `yield_now` rounds the consumer donates after the spin budget
/// before actually parking. A yield is one scheduler hop; a park/unpark
/// round trip is two syscalls plus the waiter mutex, so it is reserved
/// for genuinely idle stretches that a few timeslice donations don't
/// bridge.
pub(crate) const YIELDS: u32 = 32;

/// The effective spin budget for this machine. Spinning only helps when
/// the other side can make progress *concurrently* — on a single-core
/// machine every spin burns the exact timeslice the peer needs to catch
/// up, so the budget collapses to zero there and both sides go straight
/// to yield (and, for the consumer, park). Shared with the sharded
/// multi-producer lanes of [`crate::mpsc`], which wait the same way.
pub(crate) fn spin_budget() -> u32 {
    if crate::cores() > 1 {
        SPINS
    } else {
        0
    }
}

/// The shared ring state. `Producer` and `Consumer` each hold an `Arc`.
struct Ring<T> {
    /// Slot array; length is a power of two.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `slots.len() - 1`, for masking free-running counters.
    mask: usize,
    /// Next slot the consumer will read. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Set when either side is dropped, so the other stops waiting.
    closed: AtomicBool,
    /// True while the consumer is parked in [`Consumer::pop_wait`]. The
    /// producer only pays the unpark syscall when this says someone is
    /// actually asleep.
    parked: AtomicBool,
    /// The consumer's thread handle, registered before parking. A mutex is
    /// fine here: the slot is only touched on the park/unpark *cold* path,
    /// never on the steady-state push/pop path.
    waiter: Mutex<Option<Thread>>,
}

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other thread (ownership transfer, like a channel), so `Send` on `T` is
// all that is required. The slot array is shared, hence both bounds.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn is_empty_relaxed(&self) -> bool {
        self.head.0.load(Ordering::Relaxed) == self.tail.0.load(Ordering::Acquire)
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both handles are gone; drop every element still in flight. We
        // have exclusive access (`&mut self`), so plain loads suffice.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            let slot = self.slots[i & self.mask].get();
            // SAFETY: slots in `head..tail` were written by the producer
            // and not yet consumed; each is dropped exactly once here.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// Creates a bounded SPSC ring with at least `capacity` slots (rounded up
/// to the next power of two) and returns its two endpoints.
///
/// Each endpoint is `Send` but not `Clone`: exactly one thread produces
/// and exactly one consumes — that single-ownership is what lets the ring
/// run on two atomic counters with no CAS loop.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Example
///
/// ```
/// let (mut tx, mut rx) = rtms_util::spsc::ring::<u32>(4);
/// tx.try_push(7).unwrap();
/// assert_eq!(rx.try_pop(), Some(7));
/// assert_eq!(rx.try_pop(), None);
/// ```
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let len = capacity.next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..len).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let ring = Arc::new(Ring {
        slots,
        mask: len - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        parked: AtomicBool::new(false),
        waiter: Mutex::new(None),
    });
    (Producer { ring: Arc::clone(&ring) }, Consumer { ring })
}

/// The producing endpoint of a [`ring`].
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

/// The consuming endpoint of a [`ring`].
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Producer<T> {
    /// Attempts to push without blocking. Returns the value back if the
    /// ring is full or the consumer is gone.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        let ring = &*self.ring;
        if ring.closed.load(Ordering::Relaxed) {
            return Err(PushError::Disconnected(value));
        }
        let tail = ring.tail.0.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's Release store of `head`: it
        // guarantees the consumer is fully done *reading* the slot we are
        // about to overwrite before we write it.
        let head = ring.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > ring.mask {
            return Err(PushError::Full(value));
        }
        let slot = ring.slots[tail & ring.mask].get();
        // SAFETY: `tail - head <= mask` means this slot is unoccupied, and
        // only this (single) producer writes slots.
        unsafe { (*slot).write(value) };
        // Release publishes the slot write; the consumer's Acquire load of
        // `tail` makes the element visible.
        ring.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        self.wake_consumer();
        Ok(())
    }

    /// Pushes, spinning briefly and then yielding the timeslice while the
    /// ring is full — the producer of the trace pipeline would otherwise
    /// just be collecting a segment the consumer has no room for yet.
    /// Returns the value back only if the consumer disconnected.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let budget = spin_budget();
        let mut value = value;
        let mut spins = 0u32;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Disconnected(v)) => return Err(v),
                Err(PushError::Full(v)) => value = v,
            }
            if spins < budget {
                spins += 1;
                std::hint::spin_loop();
            } else {
                // On a loaded box the consumer may simply not be scheduled;
                // donate the timeslice instead of burning it.
                std::thread::yield_now();
            }
        }
    }

    /// Unparks the consumer if (and only if) it declared itself parked.
    /// `swap` ensures exactly one side clears the flag, so a parked
    /// consumer is never left sleeping after a push (the unpark token
    /// covers the race where it is just about to park).
    fn wake_consumer(&self) {
        // Pairs with the fence in `pop_wait` (a store-load barrier on
        // each side): either this flag read sees the consumer's `parked`
        // store, or the consumer's re-check sees the `tail`/`closed`
        // store made before this call.
        fence(Ordering::SeqCst);
        if self.ring.parked.swap(false, Ordering::AcqRel) {
            if let Some(thread) = self.ring.waiter.lock().expect("waiter lock").as_ref() {
                thread.unpark();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
        // A consumer parked on an empty ring must observe the disconnect.
        self.wake_consumer();
    }
}

impl<T> Consumer<T> {
    /// Whether the producing endpoint was dropped. Elements pushed before
    /// the disconnect may still be in the ring: a `true` here plus a
    /// subsequent empty [`Consumer::try_pop`] means the stream is truly
    /// drained (the producer closes *after* its final push, with release
    /// ordering, so observing the close with acquire ordering makes every
    /// prior push visible).
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Attempts to pop without blocking. `None` means the ring is
    /// currently empty (the producer may still be alive).
    pub fn try_pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        // Acquire pairs with the producer's Release store of `tail`,
        // making the slot contents written before it visible.
        let tail = ring.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = ring.slots[head & ring.mask].get();
        // SAFETY: `head != tail` means this slot holds an element the
        // producer published; only this (single) consumer reads slots.
        let value = unsafe { (*slot).assume_init_read() };
        // Release hands the now-empty slot back to the producer.
        ring.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Pops, spinning briefly and then *parking* the thread while the ring
    /// is empty. Returns `None` only when the producer disconnected and
    /// the ring is drained — the pipeline's termination signal.
    ///
    /// Parking costs a full scheduler round trip, so it only happens after
    /// the spin budget is exhausted; segments normally arrive well inside
    /// it. The park protocol is the standard flag dance: declare
    /// `parked`, re-check the ring (the producer may have pushed between
    /// our last look and the flag store), then sleep. The producer's
    /// `swap(false)` + unpark covers the remaining window, because
    /// `Thread::unpark` on a not-yet-parked thread makes the next `park`
    /// return immediately. A `SeqCst` fence on each side orders the flag
    /// store before the re-check's loads, and the producer's `tail` or
    /// `closed` store before its flag read. Without them a push followed by
    /// a disconnect could read the flag as clear while the re-check still
    /// saw an empty, open ring, and the consumer would sleep for good.
    pub fn pop_wait(&mut self) -> Option<T> {
        let budget = spin_budget();
        loop {
            // Fast path, bounded spin, then a few donated timeslices —
            // graduated backoff, ending in a real park only when the
            // producer is genuinely quiet.
            let mut spins = 0u32;
            loop {
                if let Some(value) = self.try_pop() {
                    return Some(value);
                }
                if self.ring.closed.load(Ordering::Acquire) {
                    // Disconnected: report empty only after a final pop
                    // attempt above saw nothing.
                    return self.try_pop();
                }
                if spins >= budget + YIELDS {
                    break;
                }
                spins += 1;
                if spins > budget {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            // Slow path: park until the producer pushes or disconnects.
            *self.ring.waiter.lock().expect("waiter lock") = Some(std::thread::current());
            self.ring.parked.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            // Re-check after declaring: a push that missed our flag store
            // must be observed here, or we would sleep on a non-empty ring.
            if !self.ring.is_empty_relaxed() || self.ring.closed.load(Ordering::Acquire) {
                self.ring.parked.store(false, Ordering::Release);
                continue;
            }
            while self.ring.parked.load(Ordering::Acquire)
                && self.ring.is_empty_relaxed()
                && !self.ring.closed.load(Ordering::Acquire)
            {
                std::thread::park();
            }
            self.ring.parked.store(false, Ordering::Release);
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Tell a producer spinning on a full ring that nobody will drain.
        self.ring.closed.store(true, Ordering::Release);
    }
}

/// Why a [`Producer::try_push`] did not take the value.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// Every slot is occupied; the consumer has not caught up.
    Full(T),
    /// The consumer endpoint was dropped; no push can ever succeed again.
    Disconnected(T),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (mut tx, mut rx) = ring::<u32>(3);
        // Rounded to 4: four pushes fit, the fifth reports Full.
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(PushError::Full(99)));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = ring::<u32>(0);
    }

    #[test]
    fn fifo_across_many_wraps() {
        let (mut tx, mut rx) = ring::<u64>(2);
        let mut next_out = 0u64;
        for i in 0..1000u64 {
            tx.try_push(i).unwrap();
            if i % 2 == 1 {
                assert_eq!(rx.try_pop(), Some(next_out));
                assert_eq!(rx.try_pop(), Some(next_out + 1));
                next_out += 2;
            }
        }
    }

    #[test]
    fn consumer_drop_fails_pushes() {
        let (mut tx, rx) = ring::<u32>(2);
        drop(rx);
        assert_eq!(tx.try_push(1), Err(PushError::Disconnected(1)));
        assert_eq!(tx.push(2), Err(2));
    }

    #[test]
    fn producer_drop_drains_then_disconnects() {
        let (mut tx, mut rx) = ring::<u32>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        assert_eq!(rx.pop_wait(), Some(1));
        assert_eq!(rx.pop_wait(), Some(2));
        assert_eq!(rx.pop_wait(), None, "drained + disconnected");
    }

    #[test]
    fn in_flight_elements_dropped_with_ring() {
        #[derive(Debug)]
        struct CountsDrops(Arc<AtomicU64>);
        impl Drop for CountsDrops {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let (mut tx, mut rx) = ring::<CountsDrops>(4);
        for _ in 0..3 {
            tx.try_push(CountsDrops(Arc::clone(&drops))).unwrap();
        }
        drop(rx.try_pop());
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::Relaxed), 3, "ring drop frees in-flight slots");
    }

    /// Loom-style interleaving coverage, hand-rolled: a real producer and
    /// consumer thread hammer a tiny ring so head/tail wrap thousands of
    /// times, with the consumer alternating between spinning (`try_pop`)
    /// and parking (`pop_wait`) to exercise both protocols. The FIFO
    /// assertion catches any ordering bug; the tiny capacity maximizes
    /// full/empty boundary transitions where the bugs live. Runs under
    /// plain `cargo test` too, so the atomics paths are exercised with
    /// debug assertions on.
    #[test]
    fn two_thread_stress_fifo_exact() {
        const N: u64 = if cfg!(debug_assertions) { 20_000 } else { 200_000 };
        for capacity in [1usize, 2, 8] {
            let (mut tx, mut rx) = ring::<u64>(capacity);
            let consumer = std::thread::spawn(move || {
                let mut expected = 0u64;
                loop {
                    // Alternate wait styles to interleave park/unpark with
                    // pure spinning.
                    // Try the non-blocking path first on most iterations
                    // (exercising the pure-spin protocol), falling back to
                    // pop_wait — which also detects disconnect — on a miss.
                    let popped = if expected.is_multiple_of(3) { None } else { rx.try_pop() };
                    let value = match popped.or_else(|| rx.pop_wait()) {
                        Some(v) => v,
                        None => break,
                    };
                    assert_eq!(value, expected, "FIFO order violated");
                    expected += 1;
                }
                expected
            });
            for i in 0..N {
                tx.push(i).expect("consumer alive");
            }
            drop(tx);
            let consumed = consumer.join().expect("consumer panicked");
            assert_eq!(consumed, N, "every element consumed exactly once (cap {capacity})");
        }
    }

    /// The reverse-ring pattern of the trace pipeline: data ring one way,
    /// free ring the other, buffers recycled end to end. Pins that a
    /// bounded number of buffers circulates without loss or duplication.
    #[test]
    fn paired_rings_recycle_buffers() {
        const ROUNDS: u64 = if cfg!(debug_assertions) { 10_000 } else { 100_000 };
        let (mut data_tx, mut data_rx) = ring::<Vec<u64>>(4);
        let (mut free_tx, mut free_rx) = ring::<Vec<u64>>(8);
        let consumer = std::thread::spawn(move || {
            let mut seen = 0u64;
            while let Some(mut buf) = data_rx.pop_wait() {
                assert_eq!(buf.as_slice(), &[seen], "payload mismatch");
                seen += 1;
                buf.clear();
                // The free ring is larger than every buffer in flight, so
                // returning a slab can never fail.
                free_tx.try_push(buf).expect("free ring never full");
            }
            seen
        });
        let mut allocated = 0u32;
        for i in 0..ROUNDS {
            let mut buf = free_rx.try_pop().unwrap_or_else(|| {
                allocated += 1;
                Vec::new()
            });
            buf.push(i);
            data_tx.push(buf).expect("consumer alive");
        }
        drop(data_tx);
        assert_eq!(consumer.join().expect("consumer ok"), ROUNDS);
        assert!(allocated <= 6, "warmup allocates at most in-flight buffers: {allocated}");
    }

    #[test]
    fn pop_wait_parks_and_recovers() {
        // Force the consumer through the park path by delaying the
        // producer well past any spin budget.
        let (mut tx, mut rx) = ring::<u32>(2);
        let consumer = std::thread::spawn(move || rx.pop_wait());
        std::thread::sleep(std::time::Duration::from_millis(50));
        tx.try_push(42).unwrap();
        assert_eq!(consumer.join().expect("no panic"), Some(42));
    }
}
