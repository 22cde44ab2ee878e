//! The perf ring buffer through which probe programs export events.

use rtms_trace::{EventSink, RosEvent, SchedEvent};

/// A record that can be pushed into a [`PerfBuffer`].
pub trait PerfRecord: Sized {
    /// Size of the encoded record in bytes, charged against the buffer
    /// capacity.
    fn record_size(&self) -> usize;

    /// Routes this record into the matching stream of an [`EventSink`]
    /// (user space demultiplexing the perf ring by record type). Generic
    /// over the sink so a drain into a concrete sink monomorphizes to a
    /// direct call; `S = dyn EventSink` still works.
    fn sink_into<S: EventSink + ?Sized>(self, sink: &mut S);

    /// Routes a whole batch into the matching stream via the sink's
    /// `append_*` method — one bulk move instead of per-record dispatch.
    /// `records` is drained but keeps its allocation, so a perf buffer's
    /// storage survives the drain and steady state never reallocates.
    fn sink_batch_into<S: EventSink + ?Sized>(records: &mut Vec<Self>, sink: &mut S);
}

impl PerfRecord for RosEvent {
    fn record_size(&self) -> usize {
        self.encoded_size()
    }

    fn sink_into<S: EventSink + ?Sized>(self, sink: &mut S) {
        sink.push_ros(self);
    }

    fn sink_batch_into<S: EventSink + ?Sized>(records: &mut Vec<Self>, sink: &mut S) {
        sink.append_ros(records);
    }
}

impl PerfRecord for SchedEvent {
    fn record_size(&self) -> usize {
        self.encoded_size()
    }

    fn sink_into<S: EventSink + ?Sized>(self, sink: &mut S) {
        sink.push_sched(self);
    }

    fn sink_batch_into<S: EventSink + ?Sized>(records: &mut Vec<Self>, sink: &mut S) {
        sink.append_sched(records);
    }
}

/// A bounded event buffer with loss accounting.
///
/// Models the perf event buffer BCC polls: fixed byte capacity, events
/// dropped (and counted) when user space does not drain fast enough. The
/// deployment flow of Fig. 2 — stop tracers, store the segment, restart
/// with empty buffers — maps to [`PerfBuffer::drain`].
///
/// Storage is a plain `Vec` (not a deque): records only ever arrive at the
/// back and leave via a full drain, so FIFO order is the vector's own
/// order, and the batched [`PerfBuffer::drain_into`] can hand the whole
/// vector to the sink in one move.
///
/// # Example
///
/// ```
/// use rtms_ebpf::PerfBuffer;
/// use rtms_trace::{Nanos, Pid, RosEvent, RosPayload, CallbackKind};
///
/// let mut buf = PerfBuffer::new(1 << 16);
/// buf.push(RosEvent::new(
///     Nanos::ZERO,
///     Pid::new(1),
///     RosPayload::CallbackStart { kind: CallbackKind::Timer },
/// ));
/// assert_eq!(buf.len(), 1);
/// let events = buf.drain();
/// assert_eq!(events.len(), 1);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PerfBuffer<T> {
    capacity_bytes: usize,
    used_bytes: usize,
    peak_bytes: usize,
    total_bytes: usize,
    dropped: u64,
    pushed: u64,
    records: Vec<T>,
}

impl<T: PerfRecord> PerfBuffer<T> {
    /// Creates a buffer with the given byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        PerfBuffer {
            capacity_bytes,
            used_bytes: 0,
            peak_bytes: 0,
            total_bytes: 0,
            dropped: 0,
            pushed: 0,
            // Skip the first few doublings of the growth chain: every
            // active tracer fills its buffer well past this within one
            // segment. `drain_into` leaves room for at least the batch it
            // drained: the trace containers swap storage only when theirs
            // already holds the batch, and append otherwise.
            records: Vec::with_capacity(1024),
        }
    }

    /// Pushes a record; returns `false` (and counts a drop) if the buffer
    /// lacks space.
    #[inline]
    pub fn push(&mut self, record: T) -> bool {
        let size = record.record_size();
        let used = self.used_bytes + size;
        if used > self.capacity_bytes {
            self.dropped += 1;
            return false;
        }
        self.used_bytes = used;
        if used > self.peak_bytes {
            self.peak_bytes = used;
        }
        self.total_bytes += size;
        self.pushed += 1;
        self.records.push(record);
        true
    }

    /// Drains all buffered records in FIFO order, freeing the space
    /// (user space storing a trace segment).
    pub fn drain(&mut self) -> Vec<T> {
        self.used_bytes = 0;
        std::mem::take(&mut self.records)
    }

    /// Drains all buffered records in FIFO order directly into an
    /// [`EventSink`] — the streaming counterpart of [`PerfBuffer::drain`].
    ///
    /// The drain is *batched*: the whole record vector is handed to the
    /// sink's `append_*` method in one call ([`PerfRecord::sink_batch_into`]),
    /// so a segment drain is a bulk move rather than a per-event loop, and
    /// the buffer keeps storage for at least the batch it drained (a
    /// [`rtms_trace::Trace`] sink either appends, leaving the buffer's own
    /// allocation in place, or swaps in storage that already fits).
    pub fn drain_into<S: EventSink + ?Sized>(&mut self, sink: &mut S) {
        self.used_bytes = 0;
        T::sink_batch_into(&mut self.records, sink);
        debug_assert!(self.records.is_empty(), "sink must drain the batch");
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records successfully pushed since creation.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// High-water mark of buffer occupancy, in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Total bytes accepted since creation (across drains) — the trace
    /// volume metric of the Sec. VI overhead experiment.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_trace::{CallbackKind, Nanos, Pid, RosPayload};

    fn ev() -> RosEvent {
        RosEvent::new(
            Nanos::ZERO,
            Pid::new(1),
            RosPayload::CallbackStart { kind: CallbackKind::Timer },
        )
    }

    #[test]
    fn push_and_drain_fifo() {
        let mut buf = PerfBuffer::new(1 << 10);
        let a = RosEvent::new(
            Nanos::from_nanos(1),
            Pid::new(1),
            RosPayload::CallbackStart { kind: CallbackKind::Timer },
        );
        let b = RosEvent::new(
            Nanos::from_nanos(2),
            Pid::new(1),
            RosPayload::CallbackEnd { kind: CallbackKind::Timer },
        );
        buf.push(a.clone());
        buf.push(b.clone());
        let drained = buf.drain();
        assert_eq!(drained, vec![a, b]);
        assert!(buf.is_empty());
    }

    #[test]
    fn drops_when_full() {
        let one = ev().record_size();
        let mut buf = PerfBuffer::new(one * 2);
        assert!(buf.push(ev()));
        assert!(buf.push(ev()));
        assert!(!buf.push(ev()), "third push must drop");
        assert_eq!(buf.dropped(), 1);
        assert_eq!(buf.pushed(), 2);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn drain_frees_space() {
        let one = ev().record_size();
        let mut buf = PerfBuffer::new(one);
        assert!(buf.push(ev()));
        assert!(!buf.push(ev()));
        buf.drain();
        assert!(buf.push(ev()), "space must be reclaimed after drain");
        assert_eq!(buf.total_bytes(), 2 * one);
        assert_eq!(buf.peak_bytes(), one);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _: PerfBuffer<RosEvent> = PerfBuffer::new(0);
    }

    #[test]
    fn drain_into_routes_by_record_type() {
        use rtms_trace::{Cpu, Priority, SchedEvent, ThreadState, Trace};
        let mut ros_buf = PerfBuffer::new(1 << 10);
        ros_buf.push(ev());
        let mut sched_buf = PerfBuffer::new(1 << 10);
        sched_buf.push(SchedEvent::switch(
            Nanos::ZERO,
            Cpu::new(0),
            Pid::new(1),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(2),
            Priority::NORMAL,
        ));
        let mut trace = Trace::new();
        ros_buf.drain_into(&mut trace);
        sched_buf.drain_into(&mut trace);
        assert_eq!(trace.ros_events().len(), 1);
        assert_eq!(trace.sched_events().len(), 1);
        assert!(ros_buf.is_empty() && sched_buf.is_empty());
        // A fresh trace has no storage to swap in, so both buffers keep
        // their own instead of regrowing from zero on the next fill.
        assert!(ros_buf.records.capacity() >= 1024 && sched_buf.records.capacity() >= 1024);
        assert!(ros_buf.push(ev()), "space reclaimed after drain_into");
    }

    #[test]
    fn drain_into_keeps_fifo_order_into_nonempty_sink() {
        use rtms_trace::Trace;
        // The swap fast path only applies to an empty sink; a non-empty
        // sink must see the records appended after its own, in order.
        let mut trace = Trace::new();
        trace.push_ros(RosEvent::new(
            Nanos::from_nanos(0),
            Pid::new(9),
            RosPayload::CallbackEnd { kind: CallbackKind::Timer },
        ));
        let mut buf = PerfBuffer::new(1 << 10);
        for t in 1..=3 {
            buf.push(RosEvent::new(
                Nanos::from_nanos(t),
                Pid::new(1),
                RosPayload::CallbackStart { kind: CallbackKind::Timer },
            ));
        }
        buf.drain_into(&mut trace);
        let times: Vec<u64> = trace.ros_events().iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
    }
}
