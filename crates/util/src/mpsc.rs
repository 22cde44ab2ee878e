//! Sharded multi-producer/single-consumer lanes built from SPSC rings.
//!
//! A shard worker of the fleet ingestion service (`rtms-fleet`) consumes
//! trace segments from *many* producer threads. Rather than paying for a
//! CAS-based MPSC queue, the ingress keeps the PR 8 lock-free discipline:
//! **one [`crate::spsc`] ring per producer** (a *lane*), so every slot
//! transfer stays a single-writer/single-reader acquire/release pair, and
//! the consumer drains the lanes round-robin. The only added
//! synchronization is a shared park/unpark flag so an idle consumer can
//! sleep across all of its lanes at once instead of spinning on each.
//!
//! Lanes are bounded like the underlying rings: a producer whose lane is
//! full waits in [`LaneSender::send`] (spin, then yield), which is the
//! natural backpressure of a shard that cannot keep up. Dropping a sender
//! closes its lane; [`LaneReceiver::recv`] returns `None` once **every**
//! lane is closed *and* drained — the pool's termination signal.
//!
//! The same primitive runs in both directions of the fleet pipeline:
//! forward (producers → shard) moving filled segment slabs, and reverse
//! (shard → producer) recycling the emptied slabs, where the receiver
//! only ever uses the non-blocking [`LaneReceiver::try_recv`].

use crate::spsc::{self, Consumer, Producer, PushError};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// The shared sleep flag: one per lane *group*, covering all lanes of one
/// receiver. Producers on any lane use it to wake the parked consumer.
struct Wake {
    /// True while the receiver is parked in [`LaneReceiver::recv`].
    parked: AtomicBool,
    /// The receiver's thread handle, registered before parking. Only
    /// touched on the park/unpark cold path, so a mutex is fine.
    waiter: Mutex<Option<Thread>>,
}

impl Wake {
    /// Unparks the receiver if (and only if) it declared itself parked.
    /// `swap` lets exactly one caller pay the unpark syscall, and the
    /// unpark token covers the race with a receiver just about to park.
    fn wake_receiver(&self) {
        // Store-load barrier, paired with the one in `recv`: the same
        // protocol as `spsc::Consumer::pop_wait`, across lanes.
        fence(Ordering::SeqCst);
        if self.parked.swap(false, Ordering::AcqRel) {
            if let Some(thread) = self.waiter.lock().expect("waiter lock").as_ref() {
                thread.unpark();
            }
        }
    }
}

/// Creates a group of `producers` bounded SPSC lanes feeding one
/// receiver; each lane holds at least `capacity` elements (rounded up to
/// a power of two by the underlying ring). Returns one [`LaneSender`] per
/// producer — each is `Send` and owned by exactly one producing thread —
/// and the single [`LaneReceiver`].
///
/// # Panics
///
/// Panics if `producers` or `capacity` is zero.
///
/// # Example
///
/// ```
/// let (mut senders, mut rx) = rtms_util::mpsc::lanes::<u32>(2, 4);
/// senders[0].send(7).unwrap();
/// senders[1].send(8).unwrap();
/// drop(senders);
/// let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
/// got.sort();
/// assert_eq!(got, [7, 8]);
/// assert_eq!(rx.recv(), None, "all lanes closed and drained");
/// ```
pub fn lanes<T>(producers: usize, capacity: usize) -> (Vec<LaneSender<T>>, LaneReceiver<T>) {
    assert!(producers > 0, "lane group needs at least one producer");
    let wake = Arc::new(Wake { parked: AtomicBool::new(false), waiter: Mutex::new(None) });
    let mut senders = Vec::with_capacity(producers);
    let mut consumers = Vec::with_capacity(producers);
    for _ in 0..producers {
        let (tx, rx) = spsc::ring::<T>(capacity);
        senders.push(LaneSender { inner: Some(tx), wake: Arc::clone(&wake) });
        consumers.push(rx);
    }
    (senders, LaneReceiver { lanes: consumers, cursor: 0, wake })
}

/// The producing endpoint of one lane of a [`lanes`] group.
pub struct LaneSender<T> {
    /// `Some` until drop; taken first so the lane's close is published
    /// before the receiver is woken to observe it.
    inner: Option<Producer<T>>,
    wake: Arc<Wake>,
}

impl<T> LaneSender<T> {
    /// Sends, spinning briefly and then yielding while the lane is full
    /// (shard backpressure). Returns the value back only if the receiver
    /// disconnected.
    pub fn send(&mut self, value: T) -> Result<(), T> {
        let result = self.inner.as_mut().expect("sender alive until drop").push(value);
        if result.is_ok() {
            self.wake.wake_receiver();
        }
        result
    }

    /// Attempts to send without blocking. Returns the value back inside
    /// the error if the lane is full or the receiver is gone.
    pub fn try_send(&mut self, value: T) -> Result<(), PushError<T>> {
        let result = self.inner.as_mut().expect("sender alive until drop").try_push(value);
        if result.is_ok() {
            self.wake.wake_receiver();
        }
        result
    }
}

impl<T> Drop for LaneSender<T> {
    fn drop(&mut self) {
        // Close the lane (the ring producer's drop publishes `closed`)
        // *before* waking, so a parked receiver re-checking its lanes
        // observes the disconnect rather than parking again.
        self.inner = None;
        self.wake.wake_receiver();
    }
}

/// The consuming endpoint of a [`lanes`] group: drains all lanes
/// round-robin, sleeping across the whole group when every lane is empty.
pub struct LaneReceiver<T> {
    lanes: Vec<Consumer<T>>,
    /// Next lane to poll — advanced past each hit so a busy lane cannot
    /// starve the others.
    cursor: usize,
    wake: Arc<Wake>,
}

impl<T> LaneReceiver<T> {
    /// Number of lanes in the group.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Attempts to receive without blocking, polling each lane at most
    /// once starting after the last hit. `None` means every lane is
    /// currently empty (producers may still be alive).
    pub fn try_recv(&mut self) -> Option<T> {
        let n = self.lanes.len();
        for i in 0..n {
            let lane = (self.cursor + i) % n;
            if let Some(value) = self.lanes[lane].try_pop() {
                self.cursor = (lane + 1) % n;
                return Some(value);
            }
        }
        None
    }

    /// Whether every lane's producer has disconnected. Elements may still
    /// be in flight; see [`LaneReceiver::recv`] for the drained check.
    pub fn all_closed(&self) -> bool {
        self.lanes.iter().all(Consumer::is_closed)
    }

    /// Receives, spinning briefly, then yielding, then parking the thread
    /// while every lane is empty — the same graduated backoff as
    /// [`crate::spsc::Consumer::pop_wait`], but across the whole group.
    /// Returns `None` only when every lane is closed *and* drained.
    pub fn recv(&mut self) -> Option<T> {
        let budget = spsc::spin_budget();
        loop {
            let mut spins = 0u32;
            loop {
                if let Some(value) = self.try_recv() {
                    return Some(value);
                }
                if self.all_closed() {
                    // The close is published after the final push, so one
                    // more scan after observing it settles drained-ness.
                    return self.try_recv();
                }
                if spins >= budget + spsc::YIELDS {
                    break;
                }
                spins += 1;
                if spins > budget {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            // Slow path: declare the park, then re-check every lane — a
            // send that missed the flag store must be observed here, or
            // the receiver would sleep on a non-empty group.
            *self.wake.waiter.lock().expect("waiter lock") = Some(std::thread::current());
            self.wake.parked.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            if let Some(value) = self.try_recv() {
                self.wake.parked.store(false, Ordering::Release);
                return Some(value);
            }
            if self.all_closed() {
                self.wake.parked.store(false, Ordering::Release);
                return self.try_recv();
            }
            // A spurious or racing wakeup just re-enters the spin loop;
            // correctness never depends on *why* park returned.
            std::thread::park();
            self.wake.parked.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_drains_all_lanes() {
        let (mut senders, mut rx) = lanes::<u64>(3, 4);
        for (i, tx) in senders.iter_mut().enumerate() {
            tx.send(i as u64 * 10).unwrap();
            tx.send(i as u64 * 10 + 1).unwrap();
        }
        let mut got: Vec<u64> = std::iter::from_fn(|| rx.try_recv()).collect();
        got.sort_unstable();
        assert_eq!(got, [0, 1, 10, 11, 20, 21]);
        assert_eq!(rx.lane_count(), 3);
        assert!(!rx.all_closed());
    }

    #[test]
    fn per_lane_fifo_is_preserved() {
        let (mut senders, mut rx) = lanes::<(usize, u64)>(2, 8);
        for v in 0..4u64 {
            senders[0].send((0, v)).unwrap();
            senders[1].send((1, v)).unwrap();
        }
        let mut next = [0u64; 2];
        while let Some((lane, v)) = rx.try_recv() {
            assert_eq!(v, next[lane], "FIFO broken within lane {lane}");
            next[lane] += 1;
        }
        assert_eq!(next, [4, 4]);
    }

    #[test]
    fn recv_returns_none_after_close_and_drain() {
        let (mut senders, mut rx) = lanes::<u32>(2, 2);
        senders[0].send(1).unwrap();
        senders[1].send(2).unwrap();
        drop(senders);
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert!(rx.all_closed());
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "stays terminated");
    }

    #[test]
    fn receiver_drop_fails_sends() {
        let (mut senders, rx) = lanes::<u32>(1, 2);
        drop(rx);
        assert_eq!(senders[0].send(5), Err(5));
        assert!(matches!(senders[0].try_send(6), Err(PushError::Disconnected(6))));
    }

    #[test]
    fn full_lane_reports_backpressure() {
        let (mut senders, mut rx) = lanes::<u32>(1, 2);
        senders[0].try_send(1).unwrap();
        senders[0].try_send(2).unwrap();
        assert!(matches!(senders[0].try_send(3), Err(PushError::Full(3))));
        assert_eq!(rx.try_recv(), Some(1));
        senders[0].try_send(3).unwrap();
    }

    #[test]
    fn recv_parks_and_recovers() {
        let (mut senders, mut rx) = lanes::<u32>(2, 2);
        let receiver = std::thread::spawn(move || rx.recv());
        // Well past any spin budget, so the receiver is truly parked.
        std::thread::sleep(std::time::Duration::from_millis(50));
        senders[1].send(42).unwrap();
        assert_eq!(receiver.join().expect("no panic"), Some(42));
    }

    /// The fleet ingress shape: P producer threads hammer one receiver,
    /// which must see every element exactly once and each lane's stream
    /// in order.
    #[test]
    fn multi_producer_stress_exact_delivery() {
        const PRODUCERS: usize = 4;
        const N: u64 = if cfg!(debug_assertions) { 5_000 } else { 50_000 };
        let (senders, mut rx) = lanes::<(usize, u64)>(PRODUCERS, 4);
        let receiver = std::thread::spawn(move || {
            let mut next = [0u64; PRODUCERS];
            while let Some((lane, v)) = rx.recv() {
                assert_eq!(v, next[lane], "lane {lane} out of order");
                next[lane] += 1;
            }
            next
        });
        let producers: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(lane, mut tx)| {
                std::thread::spawn(move || {
                    for v in 0..N {
                        tx.send((lane, v)).expect("receiver alive");
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer ok");
        }
        let counts = receiver.join().expect("receiver ok");
        assert_eq!(counts, [N; PRODUCERS], "every element delivered exactly once");
    }

    /// Both directions at once, as the fleet pipeline runs them: data
    /// lanes forward, a free lane backward recycling buffers, with the
    /// backward receiver polled non-blockingly.
    #[test]
    fn reverse_lanes_recycle_buffers() {
        const ROUNDS: u64 = if cfg!(debug_assertions) { 2_000 } else { 20_000 };
        let (mut data_tx, mut data_rx) = lanes::<Vec<u64>>(1, 4);
        let (mut free_tx, mut free_rx) = lanes::<Vec<u64>>(1, 8);
        let consumer = std::thread::spawn(move || {
            let mut seen = 0u64;
            while let Some(mut buf) = data_rx.recv() {
                assert_eq!(buf.as_slice(), &[seen]);
                seen += 1;
                buf.clear();
                let _ = free_tx[0].try_send(buf);
            }
            seen
        });
        let mut allocated = 0u32;
        for i in 0..ROUNDS {
            let mut buf = free_rx.try_recv().unwrap_or_else(|| {
                allocated += 1;
                Vec::new()
            });
            buf.push(i);
            data_tx[0].send(buf).expect("consumer alive");
        }
        drop(data_tx);
        assert_eq!(consumer.join().expect("consumer ok"), ROUNDS);
        assert!(allocated <= 6, "steady state reuses recycled buffers: {allocated}");
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn zero_producers_rejected() {
        let _ = lanes::<u32>(0, 4);
    }
}
