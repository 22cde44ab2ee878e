//! Trace containers.

use crate::event::RosEvent;
use crate::ids::Pid;
use crate::sched_event::SchedEvent;
use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// A trace: the ROS2 events and scheduler events collected over one tracing
/// session (or the merge of several).
///
/// This is the input to the synthesis algorithms: Algorithm 1 consumes
/// `ros_events` filtered by PID, Algorithm 2 consumes `sched_events`.
///
/// # Example
///
/// ```
/// use rtms_trace::{Nanos, Pid, RosEvent, RosPayload, Trace};
///
/// let mut t = Trace::new();
/// t.push_ros(RosEvent::new(
///     Nanos::from_nanos(20), Pid::new(1),
///     RosPayload::NodeInit { node_name: "b".into() },
/// ));
/// t.push_ros(RosEvent::new(
///     Nanos::from_nanos(10), Pid::new(1),
///     RosPayload::NodeInit { node_name: "a".into() },
/// ));
/// t.sort_by_time();
/// assert!(t.ros_events()[0].time < t.ros_events()[1].time);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    ros_events: Vec<RosEvent>,
    sched_events: Vec<SchedEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace from already-collected event vectors.
    pub fn from_events(ros_events: Vec<RosEvent>, sched_events: Vec<SchedEvent>) -> Self {
        Trace { ros_events, sched_events }
    }

    /// Decomposes the trace into its `(ros_events, sched_events)` vectors.
    pub fn into_events(self) -> (Vec<RosEvent>, Vec<SchedEvent>) {
        (self.ros_events, self.sched_events)
    }

    /// A cursor over both event streams merged by timestamp — chronological
    /// once the trace is sorted (see [`crate::sink::SegmentCursor`] for the
    /// ordering contract).
    pub fn cursor(&self) -> crate::sink::SegmentCursor<'_> {
        crate::sink::SegmentCursor::over(&self.ros_events, &self.sched_events)
    }

    /// Appends a ROS2 event.
    pub fn push_ros(&mut self, event: RosEvent) {
        self.ros_events.push(event);
    }

    /// Removes all events, keeping the allocated capacity — lets a decode
    /// or drain loop reuse one trace as a scratch buffer.
    pub fn clear(&mut self) {
        self.ros_events.clear();
        self.sched_events.clear();
    }

    /// Reserves capacity for at least the given number of additional
    /// events per stream (used by the binary decoder, which knows both
    /// stream lengths up front).
    pub fn reserve(&mut self, ros: usize, sched: usize) {
        self.ros_events.reserve(ros);
        self.sched_events.reserve(sched);
    }

    /// Appends a scheduler event.
    pub fn push_sched(&mut self, event: SchedEvent) {
        self.sched_events.push(event);
    }

    /// The ROS2 events, in insertion order (call [`Trace::sort_by_time`]
    /// first if chronological order is required).
    pub fn ros_events(&self) -> &[RosEvent] {
        &self.ros_events
    }

    /// The scheduler events.
    pub fn sched_events(&self) -> &[SchedEvent] {
        &self.sched_events
    }

    /// Number of events of both kinds.
    pub fn len(&self) -> usize {
        self.ros_events.len() + self.sched_events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.ros_events.is_empty() && self.sched_events.is_empty()
    }

    /// Sorts both event streams chronologically (stable, so simultaneous
    /// events keep their emission order — important because a callback-start
    /// probe and the `take` probe it encloses may share a timestamp).
    ///
    /// Already-sorted streams are detected with one linear scan and left
    /// untouched. Tracers emit in time order, so on the hot collection path
    /// this is the common case and the scan replaces the sort entirely.
    pub fn sort_by_time(&mut self) {
        if !self.ros_events.is_sorted_by_key(|e| e.time) {
            self.ros_events.sort_by_key(|e| e.time);
        }
        if !self.sched_events.is_sorted_by_key(|e| e.time) {
            self.sched_events.sort_by_key(|e| e.time);
        }
    }

    /// Moves all events out of `events` onto the end of the ROS2 stream.
    ///
    /// When this trace's stream is empty *and* its allocation already
    /// holds the batch, the two vectors are *swapped*: the bulk transfer is
    /// pointer-sized, and the donor — a tracer's perf buffer on the
    /// collection path — gets back storage that fits a batch this size.
    /// Otherwise the events are appended with one `memcpy` and `events`
    /// keeps its own (now empty) storage. Swapping into a fresh,
    /// zero-capacity trace would hand the donor an empty allocation to
    /// regrow by doubling on its next fill.
    pub fn append_ros(&mut self, events: &mut Vec<RosEvent>) {
        append_keeping_capacity(&mut self.ros_events, events);
    }

    /// Moves all events out of `events` onto the end of the scheduler
    /// stream (same swap-when-it-fits contract as [`Trace::append_ros`]).
    pub fn append_sched(&mut self, events: &mut Vec<SchedEvent>) {
        append_keeping_capacity(&mut self.sched_events, events);
    }

    /// The ROS2 events of one node (`SortByTime` + `filter by process` of
    /// Algorithm 1's precondition), chronologically sorted.
    pub fn ros_events_for(&self, pid: Pid) -> Vec<RosEvent> {
        let mut events: Vec<RosEvent> =
            self.ros_events.iter().filter(|e| e.pid == pid).cloned().collect();
        events.sort_by_key(|e| e.time);
        events
    }

    /// All distinct PIDs appearing in ROS2 events, sorted.
    pub fn ros_pids(&self) -> Vec<Pid> {
        let mut pids: Vec<Pid> = self.ros_events.iter().map(|e| e.pid).collect();
        pids.sort();
        pids.dedup();
        pids
    }

    /// Merges another trace into this one (Fig. 2, "merge traces" path).
    /// Events are re-sorted chronologically afterwards.
    pub fn merge(&mut self, other: Trace) {
        self.ros_events.extend(other.ros_events);
        self.sched_events.extend(other.sched_events);
        self.sort_by_time();
    }

    /// Timestamp of the last event in the trace, or `None` if empty.
    pub fn end_time(&self) -> Option<Nanos> {
        let ros = self.ros_events.iter().map(|e| e.time).max();
        let sched = self.sched_events.iter().map(|e| e.time).max();
        match (ros, sched) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The bulk move behind [`Trace::append_ros`] and [`Trace::append_sched`]:
/// swap when `stream` is empty and can hold the batch, append otherwise.
/// Either way `events` ends empty and no allocation is lost.
fn append_keeping_capacity<T>(stream: &mut Vec<T>, events: &mut Vec<T>) {
    if stream.is_empty() && stream.capacity() >= events.len() {
        std::mem::swap(stream, events);
    } else {
        stream.append(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallbackKind, RosPayload};
    use crate::ids::{Cpu, Priority};
    use crate::sched_event::ThreadState;

    fn ros(t: u64, pid: u32) -> RosEvent {
        RosEvent::new(
            Nanos::from_nanos(t),
            Pid::new(pid),
            RosPayload::CallbackStart { kind: CallbackKind::Timer },
        )
    }

    fn sched(t: u64) -> SchedEvent {
        SchedEvent::switch(
            Nanos::from_nanos(t),
            Cpu::new(0),
            Pid::new(1),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(2),
            Priority::NORMAL,
        )
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.end_time(), None);
    }

    #[test]
    fn sort_and_filter_by_pid() {
        let mut t = Trace::new();
        t.push_ros(ros(30, 2));
        t.push_ros(ros(10, 1));
        t.push_ros(ros(20, 1));
        let for_one = t.ros_events_for(Pid::new(1));
        assert_eq!(for_one.len(), 2);
        assert!(for_one[0].time <= for_one[1].time);
        assert_eq!(t.ros_pids(), vec![Pid::new(1), Pid::new(2)]);
    }

    #[test]
    fn merge_concatenates_and_sorts() {
        let mut a = Trace::new();
        a.push_ros(ros(30, 1));
        a.push_sched(sched(25));
        let mut b = Trace::new();
        b.push_ros(ros(10, 1));
        b.push_sched(sched(5));
        a.merge(b);
        assert_eq!(a.ros_events().len(), 2);
        assert_eq!(a.ros_events()[0].time, Nanos::from_nanos(10));
        assert_eq!(a.sched_events()[0].time, Nanos::from_nanos(5));
        assert_eq!(a.end_time(), Some(Nanos::from_nanos(30)));
    }

    #[test]
    fn append_into_a_fresh_trace_leaves_the_donor_its_capacity() {
        let mut donor: Vec<RosEvent> = Vec::with_capacity(64);
        donor.extend((0..10).map(|t| ros(t, 1)));
        let mut sched_donor: Vec<SchedEvent> = Vec::with_capacity(64);
        sched_donor.extend((0..10).map(sched));
        let mut t = Trace::new();
        t.append_ros(&mut donor);
        t.append_sched(&mut sched_donor);
        assert_eq!(t.len(), 20);
        assert!(donor.is_empty() && sched_donor.is_empty());
        assert_eq!((donor.capacity(), sched_donor.capacity()), (64, 64), "donor storage kept");
    }

    #[test]
    fn append_into_an_emptied_trace_that_fits_swaps() {
        let mut t = Trace::new();
        t.reserve(32, 32);
        let (ros_storage, sched_storage) = (t.ros_events.as_ptr(), t.sched_events.as_ptr());
        let mut donor: Vec<RosEvent> = (0..10).map(|t| ros(t, 1)).collect();
        let mut sched_donor: Vec<SchedEvent> = (0..10).map(sched).collect();
        let (ros_batch, sched_batch) = (donor.as_ptr(), sched_donor.as_ptr());
        t.append_ros(&mut donor);
        t.append_sched(&mut sched_donor);
        assert_eq!((t.ros_events.as_ptr(), t.sched_events.as_ptr()), (ros_batch, sched_batch));
        assert_eq!((donor.as_ptr(), sched_donor.as_ptr()), (ros_storage, sched_storage));
        assert!(donor.is_empty() && donor.capacity() >= 32);
        assert_eq!(t.ros_events().len(), 10);
        // A second batch lands behind the first.
        let mut more = vec![ros(11, 1)];
        t.append_ros(&mut more);
        assert_eq!(t.ros_events().len(), 11);
        assert_eq!(t.ros_events().last().map(|e| e.time), Some(Nanos::from_nanos(11)));
    }

    #[test]
    fn stable_sort_preserves_equal_timestamp_order() {
        let mut t = Trace::new();
        t.push_ros(RosEvent::new(
            Nanos::from_nanos(5),
            Pid::new(1),
            RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
        ));
        t.push_ros(RosEvent::new(
            Nanos::from_nanos(5),
            Pid::new(1),
            RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
        ));
        t.sort_by_time();
        assert!(matches!(t.ros_events()[0].payload, RosPayload::CallbackStart { .. }));
    }
}
