//! Incremental model synthesis over streamed trace segments.
//!
//! The batch pipeline materializes a whole run as one [`Trace`] and then
//! synthesizes — which caps run length at available memory. A
//! [`SynthesisSession`] instead consumes the run as a sequence of bounded
//! segments ([`rtms_trace::TraceSegment`]) and keeps only *derived* state
//! between segments:
//!
//! - per node, the open callback instance (Algorithm 1's walker state,
//!   including an online Algorithm 2 execution-time clock) and the
//!   callback list folded so far;
//! - the unmatched service interaction tables — request writes awaiting
//!   their `take_request` (`FindCaller`) and response writes awaiting the
//!   client-side dispatch decision (`FindClient`) — which shrink again as
//!   interactions complete.
//!
//! [`SynthesisSession::model`] can be called at any point and returns
//! exactly what batch [`crate::synthesize`] would return for the events
//! fed so far; the batch entry points are thin wrappers that feed one
//! segment. Equivalence holds for *causally ordered* streams (a sample's
//! `dds_write` precedes its `take_*` events, as any real trace satisfies)
//! segmented at arbitrary points — pinned down to the byte by the
//! streaming-equivalence suite, including one-event segments.

use crate::alg1::cat_id;
use crate::cblist::{CallbackRecord, CbList};
use crate::dag::Dag;
use rtms_trace::{
    CallbackId, CallbackKind, EventView, Nanos, Pid, RosEvent, RosEventView, RosPayloadView,
    SchedEvent, SchedEventKind, SegmentCursor, SourceTimestamp, Topic, Trace, TraceSegment,
};
use rtms_util::FxHashMap;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Online Algorithm 2: accumulates the CPU execution time of one open
/// callback instance as `sched_switch` events stream past.
///
/// Matches the batch [`crate::execution_time`] semantics exactly: events at
/// `time <= start` are ignored, events at `time == end` are excluded. The
/// end is unknown while streaming, so the clock snapshots its state before
/// the first event at the newest timestamp; if the instance then ends at
/// exactly that timestamp, the snapshot rolls those events back.
#[derive(Debug, Clone)]
struct ExecClock {
    start: Nanos,
    exec: Nanos,
    last_start: Nanos,
    running: bool,
    max_time: Nanos,
    snapshot: Option<(Nanos, Nanos, bool)>,
}

impl ExecClock {
    fn new(start: Nanos) -> ExecClock {
        ExecClock {
            start,
            exec: Nanos::ZERO,
            last_start: start,
            running: true, // T is running when the CB start event fires
            max_time: start,
            snapshot: None,
        }
    }

    fn on_switch(&mut self, time: Nanos, prev: Pid, next: Pid, pid: Pid) {
        if time <= self.start {
            return;
        }
        if time > self.max_time {
            self.snapshot = Some((self.exec, self.last_start, self.running));
            self.max_time = time;
        }
        if prev == pid {
            if self.running {
                self.exec += time - self.last_start;
                self.running = false;
            }
        } else if next == pid {
            self.last_start = time;
            self.running = true;
        }
    }

    fn finalize(mut self, end: Nanos) -> Nanos {
        if self.max_time == end {
            // Events at exactly `end` are outside the strict window
            // (Algorithm 2, line 4): roll them back.
            if let Some((exec, last_start, running)) = self.snapshot {
                self.exec = exec;
                self.last_start = last_start;
                self.running = running;
            }
        }
        if self.running {
            self.exec += end - self.last_start;
        }
        self.exec
    }
}

/// One published topic of an instance: already decorated, or awaiting the
/// client-side dispatch decision of a service response (`FindClient`).
#[derive(Debug, Clone)]
enum OutSlot {
    Ready(Arc<str>),
    AwaitClient { topic: Topic, src_ts: SourceTimestamp },
}

impl OutSlot {
    /// The decorated name of a slot known to be resolved.
    fn into_ready(self) -> Arc<str> {
        match self {
            OutSlot::Ready(name) => name,
            OutSlot::AwaitClient { .. } => unreachable!("folded with an unresolved slot"),
        }
    }
}

/// A callback instance currently being assembled (between its start and
/// end events, which may lie in different segments).
#[derive(Debug)]
struct OpenInstance {
    seq: u64,
    kind: CallbackKind,
    start: Nanos,
    id: Option<CallbackId>,
    in_topic: Option<Arc<str>>,
    outs: Vec<OutSlot>,
    unresolved: usize,
    sync: bool,
    clock: ExecClock,
}

impl OpenInstance {
    /// An instance that writes its outputs into `outs`, an empty buffer.
    fn new(seq: u64, kind: CallbackKind, start: Nanos, outs: Vec<OutSlot>) -> OpenInstance {
        OpenInstance {
            seq,
            kind,
            start,
            id: None,
            in_topic: None,
            outs,
            unresolved: 0,
            sync: false,
            clock: ExecClock::new(start),
        }
    }
}

/// A completed instance that cannot fold yet: its response decorations
/// are not all known, or an earlier instance of its node is still pending.
/// It folds into the callback list as soon as it is fully resolved — but
/// never before an earlier instance of the same node, so entries keep the
/// first-seen order batch extraction produces.
#[derive(Debug)]
struct PendingInstance {
    seq: u64,
    id: CallbackId,
    kind: CallbackKind,
    in_topic: Option<Arc<str>>,
    outs: Vec<OutSlot>,
    unresolved: usize,
    sync: bool,
    start: Nanos,
    exec: Nanos,
}

/// Per-node (per-PID) walker state.
#[derive(Debug, Default)]
struct PidState {
    wip: Option<OpenInstance>,
    /// The last `timer_call`/`take_*` identity event since the last
    /// callback start — what `FindCaller`'s backward scan would find.
    last_identity: Option<CallbackId>,
    /// Response observations of this node awaiting its next
    /// `take_type_erased_response` dispatch decision: `(srcTS, topic,
    /// observation index)`.
    awaiting_dispatch: Vec<(SourceTimestamp, Topic, usize)>,
    /// Completed instances waiting to fold, in completion order. The
    /// front, if any, always has an unresolved slot: everything resolved
    /// behind an empty or resolved front has already folded.
    pending: VecDeque<PendingInstance>,
    list: CbList,
    /// An empty out-slot buffer kept from a folded instance, handed to
    /// the node's next instance so that publishing does not allocate.
    spare_outs: Vec<OutSlot>,
}

impl PidState {
    /// Folds a resolved instance into the list, then keeps its emptied
    /// out-slot buffer as the spare.
    #[allow(clippy::too_many_arguments)] // the parts of one instance, hot path
    fn fold(
        &mut self,
        pid: Pid,
        id: CallbackId,
        kind: CallbackKind,
        in_topic: Option<Arc<str>>,
        mut outs: Vec<OutSlot>,
        sync: bool,
        exec: Nanos,
        start: Nanos,
    ) {
        let ready = outs.drain(..).map(OutSlot::into_ready);
        self.list.fold_instance(pid, id, kind, in_topic, ready, sync, exec, start);
        self.spare_outs = outs;
    }
}

/// Widest `pid - base` span [`NodeTable`]'s dense vector will grow to
/// cover before spilling to the fallback map.
const DENSE_PID_WINDOW: usize = 1 << 16;

/// Dense PID-indexed storage for [`PidState`].
///
/// Every event consults the state of its PID, making this the hottest
/// map in the walker. Simulated PIDs are allocated sequentially from a
/// common base (one executor thread per node), so states live in a
/// vector directly indexed by `pid - base` — an add and a bounds check
/// per event instead of a hash probe. PIDs far outside that window
/// (possible in hand-built traces) spill to a hash map with identical
/// semantics.
#[derive(Debug, Default)]
struct NodeTable {
    /// The first PID inserted; dense slots cover `base..base + len`.
    base: u32,
    dense: Vec<Option<PidState>>,
    /// States for PIDs outside the dense window.
    spill: FxHashMap<Pid, PidState>,
}

impl NodeTable {
    #[inline]
    fn slot(&self, pid: Pid) -> usize {
        pid.get().wrapping_sub(self.base) as usize
    }

    #[inline]
    fn get(&self, pid: Pid) -> Option<&PidState> {
        match self.dense.get(self.slot(pid)) {
            Some(state) => state.as_ref(),
            None if self.spill.is_empty() => None,
            None => self.spill.get(&pid),
        }
    }

    #[inline]
    fn get_mut(&mut self, pid: Pid) -> Option<&mut PidState> {
        let slot = self.slot(pid);
        match self.dense.get_mut(slot) {
            Some(state) => state.as_mut(),
            None if self.spill.is_empty() => None,
            None => self.spill.get_mut(&pid),
        }
    }

    /// The state for `pid`, created default if absent.
    #[inline]
    fn entry(&mut self, pid: Pid) -> &mut PidState {
        if self.dense.is_empty() && self.spill.is_empty() {
            self.base = pid.get();
        }
        let slot = self.slot(pid);
        if slot < DENSE_PID_WINDOW {
            if slot >= self.dense.len() {
                self.dense.resize_with(slot + 1, || None);
            }
            self.dense[slot].get_or_insert_with(PidState::default)
        } else {
            self.spill.entry(pid).or_default()
        }
    }

    /// All `(pid, state)` pairs, in unspecified order.
    fn iter(&self) -> impl Iterator<Item = (Pid, &PidState)> {
        let base = self.base;
        self.dense
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| Some((Pid::new(base.wrapping_add(i as u32)), s.as_ref()?)))
            .chain(self.spill.iter().map(|(pid, s)| (*pid, s)))
    }
}

/// A service-request `dds_write` not yet matched by its `take_request`,
/// with the caller identity resolved at write time.
#[derive(Debug)]
struct WriteEntry {
    topic: Topic,
    caller: Option<CallbackId>,
}

/// One `take_response` observation: the reading client callback and the
/// dispatch decision of the next P14 event in its node (if seen).
#[derive(Debug)]
struct RespObs {
    callback: CallbackId,
    dispatch: Option<bool>,
}

/// An instance output slot waiting for a response key to resolve.
#[derive(Debug)]
struct Waiter {
    pid: Pid,
    seq: u64,
    slot: usize,
}

/// The response observations and waiting writers of one
/// `(topic, srcTS)` service-response key.
#[derive(Debug)]
struct RespState {
    topic: Topic,
    obs: Vec<RespObs>,
    waiters: Vec<Waiter>,
}

/// Decorated service names (`topic#caller`), interned per session.
///
/// Every service request and response the walker attributes needs the
/// topic name decorated with a callback identity. Formatting a fresh
/// `Arc<str>` for each one, only for the fold to compare it by content
/// and free it, is pure waste: the set of decorations is fixed by the
/// app's (service topic × callback) pairs. This map returns one shared
/// allocation per pair instead, so the fold's comparisons hit the pointer
/// fast path. It is keyed by the address of the topic's name allocation
/// and holds that `Arc`, so no other name can reuse the address while the
/// entry lives. It is not walker state: [`SynthesisSession::retained_entries`]
/// and [`SynthesisSession::peak_watermark`] do not count it.
#[derive(Debug, Default)]
struct Decorations(FxHashMap<(usize, Option<CallbackId>), Decorated>);

/// The topic name an entry of [`Decorations`] is keyed by, and its
/// decoration.
type Decorated = (Arc<str>, Arc<str>);

impl Decorations {
    /// The decoration of `topic` with `id`: [`cat_id`]'s bytes, shared.
    fn get(&mut self, topic: &Topic, id: Option<CallbackId>) -> Arc<str> {
        let name = topic.name_arc();
        let key = (Arc::as_ptr(name).cast::<u8>() as usize, id);
        let (_, decorated) =
            self.0.entry(key).or_insert_with(|| (Arc::clone(name), cat_id(topic, id)));
        Arc::clone(decorated)
    }
}

/// Incremental synthesis over streamed trace segments.
///
/// Trace data enters one of two ways: live segments in chronological
/// order through [`SynthesisSession::feed_segment`], or a recorded segment
/// file through [`SynthesisSession::feed_reader`]. Call
/// [`SynthesisSession::model`] at any point for the timing model of
/// everything fed so far.
///
/// # Example
///
/// ```
/// use rtms_core::{synthesize, SynthesisSession};
/// use rtms_trace::{split_by_events, CallbackId, CallbackKind, Nanos, Pid, RosEvent, RosPayload, Trace};
///
/// let pid = Pid::new(5);
/// let mut trace = Trace::new();
/// for (ms, payload) in [
///     (0, RosPayload::CallbackStart { kind: CallbackKind::Timer }),
///     (0, RosPayload::TimerCall { callback: CallbackId::new(1) }),
///     (3, RosPayload::CallbackEnd { kind: CallbackKind::Timer }),
/// ] {
///     trace.push_ros(RosEvent::new(Nanos::from_millis(ms), pid, payload));
/// }
///
/// let mut session = SynthesisSession::new();
/// for segment in split_by_events(&trace, 1) {
///     session.feed_segment(&segment);
/// }
/// assert_eq!(session.model(), synthesize(&trace));
/// ```
#[derive(Debug)]
pub struct SynthesisSession {
    names: Arc<HashMap<Pid, String>>,
    /// Per-node walker state, direct-indexed by PID: consulted for every
    /// event of both streams; read paths that need PID order sort on read.
    nodes: NodeTable,
    writes: FxHashMap<SourceTimestamp, Vec<WriteEntry>>,
    responses: FxHashMap<SourceTimestamp, Vec<RespState>>,
    next_seq: u64,
    segments_fed: usize,
    events_fed: u64,
    peak_segment_events: usize,
    peak_watermark: usize,
    dropped_unidentified: u64,
    overwritten_instances: u64,
    decorations: Decorations,
}

impl Default for SynthesisSession {
    fn default() -> Self {
        SynthesisSession::new()
    }
}

impl SynthesisSession {
    /// Creates an empty session. Node names are learned from the P1
    /// (`NodeInit`) events in the stream.
    pub fn new() -> SynthesisSession {
        SynthesisSession::with_names(Arc::new(HashMap::new()))
    }

    /// Creates a session seeded with a shared PID → node-name map — the map
    /// extracted from the INIT segment of an earlier session or run. The
    /// `Arc` is stored as-is, so any number of sessions can share one map
    /// without re-cloning it; the map is only copied (once, copy-on-write)
    /// if the stream contains a P1 event with a *new* name.
    pub fn with_names(names: Arc<HashMap<Pid, String>>) -> SynthesisSession {
        SynthesisSession {
            names,
            nodes: NodeTable::default(),
            writes: FxHashMap::default(),
            responses: FxHashMap::default(),
            next_seq: 0,
            segments_fed: 0,
            events_fed: 0,
            peak_segment_events: 0,
            peak_watermark: 0,
            dropped_unidentified: 0,
            overwritten_instances: 0,
            decorations: Decorations::default(),
        }
    }

    /// The PID → node-name map accumulated so far (seed map plus streamed
    /// P1 events). Clone the `Arc` to share it with later sessions.
    pub fn names(&self) -> &Arc<HashMap<Pid, String>> {
        &self.names
    }

    /// Consumes one trace segment. Events are walked chronologically
    /// (both streams merged by timestamp); the segment can be dropped
    /// afterwards — the session retains only derived state.
    pub fn feed_segment(&mut self, segment: &TraceSegment) {
        self.feed_events(segment.ros_events(), segment.sched_events());
    }

    /// Replays a recorded segment file into the session: reads every
    /// remaining segment from `reader` (in file order — the run order they
    /// were recorded in) and feeds each one. Returns the number of
    /// segments consumed.
    ///
    /// Decode is *fused* into the synthesis walk: segment frames store
    /// their records in exactly the merged chronological order the walker
    /// consumes, so each record goes codec → state machine as a borrowed
    /// [`EventView`] with no intermediate segment buffer, no re-sort, no
    /// cursor merge, and no owned event. Replay memory is one frame
    /// buffer plus the reader's topic table, and the per-event cost is
    /// decode plus the same walker step the live path takes. Feeding a
    /// reader positioned at the
    /// start of a file recorded by `Ros2World::record_segments` yields a
    /// model byte-identical to the live run's (pinned by the
    /// record-replay equivalence suite).
    ///
    /// # Errors
    ///
    /// Returns the first decode error; segments already fed stay fed.
    pub fn feed_reader<R: std::io::Read>(
        &mut self,
        reader: &mut rtms_trace::SegmentReader<R>,
    ) -> Result<usize, rtms_trace::CodecError> {
        let mut segments = 0;
        loop {
            match reader.walk_segment(|event| self.on_event(event))? {
                Some((_, len)) => {
                    // The event count is only known once the frame is
                    // walked; begin/end bookkeeping adjusts counters, so
                    // running both afterwards is equivalent.
                    self.begin_feed(len);
                    self.end_feed(len);
                    segments += 1;
                }
                None => return Ok(segments),
            }
        }
    }

    fn begin_feed(&mut self, len: usize) {
        self.segments_fed += 1;
        self.events_fed += len as u64;
        self.peak_segment_events = self.peak_segment_events.max(len);
    }

    fn end_feed(&mut self, len: usize) {
        let watermark = len + self.retained_entries();
        self.peak_watermark = self.peak_watermark.max(watermark);
    }

    /// The one live walk: both streams in [`SegmentCursor`] order, after
    /// sorting a copy if either stream is out of time order. Producers
    /// hand over sorted segments (the segment contract), so in steady
    /// state nothing is copied. The batch entry points feed whole traces
    /// through here too.
    pub(crate) fn feed_events(&mut self, ros: &[RosEvent], sched: &[SchedEvent]) {
        if !(ros.is_sorted_by_key(|e| e.time) && sched.is_sorted_by_key(|e| e.time)) {
            let mut sorted = Trace::from_events(ros.to_vec(), sched.to_vec());
            sorted.sort_by_time();
            return self.feed_events(sorted.ros_events(), sorted.sched_events());
        }
        let len = ros.len() + sched.len();
        self.begin_feed(len);
        for event in SegmentCursor::over(ros, sched) {
            self.on_event(event.view());
        }
        self.end_feed(len);
    }

    /// The walker's one entry: one record of either stream, borrowed.
    /// A name `Arc` is cloned only where the walker stores it.
    #[inline]
    fn on_event(&mut self, event: EventView<'_>) {
        let RosEventView { time, pid, payload } = match event {
            EventView::Ros(e) => e,
            EventView::Sched(e) => return self.on_switch(&e),
        };
        match payload {
            RosPayloadView::NodeInit { node_name } => {
                if self.names.get(&pid).map(String::as_str) != Some(node_name) {
                    Arc::make_mut(&mut self.names).insert(pid, node_name.to_string());
                }
            }
            RosPayloadView::CallbackStart { kind } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let st = self.nodes.entry(pid);
                st.last_identity = None;
                // A still-open instance lost its end event.
                let outs = std::mem::take(&mut st.spare_outs);
                let lost = st.wip.replace(OpenInstance::new(seq, kind, time, outs)).is_some();
                self.overwritten_instances += u64::from(lost);
            }
            RosPayloadView::TimerCall { callback } => {
                let st = self.nodes.entry(pid);
                st.last_identity = Some(callback);
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(callback);
                }
            }
            RosPayloadView::TakeData { callback, topic, .. } => {
                let st = self.nodes.entry(pid);
                st.last_identity = Some(callback);
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(callback);
                    // Shared, not copied: the name allocation travels from
                    // the tracer event (or the decoder's dictionary) into
                    // the record unchanged.
                    w.in_topic = Some(topic.name_arc().clone());
                }
            }
            RosPayloadView::TakeRequest { callback, topic, src_ts } => {
                // `FindCaller`, online: the matching request write (if
                // traced) streamed past earlier and recorded its caller;
                // the unique server consumes the entry.
                let in_wip = self.nodes.get(pid).is_some_and(|s| s.wip.is_some());
                let caller = if in_wip { self.consume_write(topic, src_ts) } else { None };
                let st = self.nodes.entry(pid);
                st.last_identity = Some(callback);
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(callback);
                    w.in_topic = Some(self.decorations.get(topic, caller));
                }
            }
            RosPayloadView::TakeResponse { callback, topic, src_ts } => {
                // Record the observation under its response key (the key
                // exists iff the traced response write is waiting on it)
                // and queue it for this node's next dispatch decision.
                let mut obs_idx = None;
                if let Some(states) = self.responses.get_mut(&src_ts) {
                    if let Some(rs) = states.iter_mut().find(|r| &r.topic == topic) {
                        rs.obs.push(RespObs { callback, dispatch: None });
                        obs_idx = Some(rs.obs.len() - 1);
                    }
                }
                let st = self.nodes.entry(pid);
                st.last_identity = Some(callback);
                if let Some(i) = obs_idx {
                    st.awaiting_dispatch.push((src_ts, topic.clone(), i));
                }
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(callback);
                    w.in_topic = Some(self.decorations.get(topic, Some(callback)));
                }
            }
            RosPayloadView::DdsWrite { topic, src_ts } => self.on_write(pid, topic, src_ts),
            RosPayloadView::ClientDispatch { will_dispatch } => {
                let awaiting = {
                    let st = self.nodes.entry(pid);
                    if !will_dispatch {
                        st.wip = None; // instance will not be dispatched (line 25)
                    }
                    std::mem::take(&mut st.awaiting_dispatch)
                };
                for (src_ts, topic, obs_idx) in awaiting {
                    if let Some(states) = self.responses.get_mut(&src_ts) {
                        if let Some(rs) = states.iter_mut().find(|r| r.topic == topic) {
                            rs.obs[obs_idx].dispatch = Some(will_dispatch);
                        }
                    }
                    self.try_commit_response(src_ts, &topic);
                }
            }
            RosPayloadView::SyncSubscribe => {
                if let Some(w) = self.nodes.entry(pid).wip.as_mut() {
                    w.sync = true;
                }
            }
            RosPayloadView::CallbackEnd { .. } => {
                let st = self.nodes.entry(pid);
                let Some(w) = st.wip.take() else { return };
                let Some(id) = w.id else {
                    self.dropped_unidentified += 1; // no identity event was traced
                    return;
                };
                let exec = w.clock.finalize(time);
                if st.pending.is_empty() && w.unresolved == 0 {
                    // Nothing earlier waits and nothing is unknown: fold
                    // straight into the list.
                    st.fold(pid, id, w.kind, w.in_topic, w.outs, w.sync, exec, w.start);
                } else {
                    st.pending.push_back(PendingInstance {
                        seq: w.seq,
                        id,
                        kind: w.kind,
                        in_topic: w.in_topic,
                        outs: w.outs,
                        unresolved: w.unresolved,
                        sync: w.sync,
                        start: w.start,
                        exec,
                    });
                }
            }
        }
    }

    fn on_write(&mut self, pid: Pid, topic: &Topic, src_ts: SourceTimestamp) {
        if topic.is_service_request() {
            // Record the caller (`FindCaller` resolved at write time);
            // the first write per key wins, like the batch index.
            let caller = self.nodes.get(pid).and_then(|s| s.last_identity);
            let entries = self.writes.entry(src_ts).or_default();
            if !entries.iter().any(|w| &w.topic == topic) {
                entries.push(WriteEntry { topic: topic.clone(), caller });
            }
        }
        let Some((seq, own)) =
            self.nodes.get(pid).and_then(|s| s.wip.as_ref().map(|w| (w.seq, w.id)))
        else {
            return;
        };
        let slot = if topic.is_service_request() {
            OutSlot::Ready(self.decorations.get(topic, own))
        } else if topic.is_service_response() {
            OutSlot::AwaitClient { topic: topic.clone(), src_ts }
        } else {
            OutSlot::Ready(topic.name_arc().clone())
        };
        let awaits_client = matches!(slot, OutSlot::AwaitClient { .. });
        let st = self.nodes.get_mut(pid).expect("wip implies state");
        let w = st.wip.as_mut().expect("checked above");
        w.outs.push(slot);
        if awaits_client {
            let waiter = Waiter { pid, seq, slot: w.outs.len() - 1 };
            w.unresolved += 1;
            let states = self.responses.entry(src_ts).or_default();
            match states.iter_mut().find(|r| &r.topic == topic) {
                Some(rs) => rs.waiters.push(waiter),
                None => states.push(RespState {
                    topic: topic.clone(),
                    obs: Vec::new(),
                    waiters: vec![waiter],
                }),
            }
        }
    }

    /// Looks up (and consumes) the recorded caller of a request write.
    fn consume_write(&mut self, topic: &Topic, src_ts: SourceTimestamp) -> Option<CallbackId> {
        let entries = self.writes.get_mut(&src_ts)?;
        let i = entries.iter().position(|w| &w.topic == topic)?;
        let entry = entries.swap_remove(i);
        if entries.is_empty() {
            self.writes.remove(&src_ts);
        }
        entry.caller
    }

    /// Commits a response key once its `FindClient` outcome can no longer
    /// change: the chronologically first dispatched-true observation, with
    /// every earlier observation decided. Delivers the client identity to
    /// all waiting output slots and drops the key.
    fn try_commit_response(&mut self, src_ts: SourceTimestamp, topic: &Topic) {
        let Some(states) = self.responses.get_mut(&src_ts) else { return };
        let Some(idx) = states.iter().position(|r| &r.topic == topic) else { return };
        let mut client = None;
        for obs in &states[idx].obs {
            match obs.dispatch {
                None => return, // an earlier observation is still undecided
                Some(true) => {
                    client = Some(obs.callback);
                    break;
                }
                Some(false) => {}
            }
        }
        // All decided-false so far: a future take of the same response
        // could still dispatch, so the key must stay open.
        let Some(client) = client else { return };
        let resolved = states.swap_remove(idx);
        if states.is_empty() {
            self.responses.remove(&src_ts);
        }
        for waiter in resolved.waiters {
            self.deliver(waiter, &resolved.topic, client);
        }
    }

    /// Fills a waiting output slot with the resolved client decoration.
    fn deliver(&mut self, waiter: Waiter, topic: &Topic, client: CallbackId) {
        let Some(st) = self.nodes.get_mut(waiter.pid) else { return };
        let resolved = OutSlot::Ready(self.decorations.get(topic, Some(client)));
        if let Some(w) = st.wip.as_mut().filter(|w| w.seq == waiter.seq) {
            w.outs[waiter.slot] = resolved;
            w.unresolved -= 1;
            return;
        }
        if let Some(p) = st.pending.iter_mut().find(|p| p.seq == waiter.seq) {
            p.outs[waiter.slot] = resolved;
            p.unresolved -= 1;
            Self::fold_ready(waiter.pid, st);
        }
        // Otherwise the instance was discarded (undispatched client): the
        // resolution has nowhere to go.
    }

    /// Folds fully resolved pending instances into the node's callback
    /// list, strictly in completion order. Everything is moved, not
    /// cloned, and folding a repeat instance of a known callback touches
    /// no allocator at all ([`CbList::fold_instance`]).
    fn fold_ready(pid: Pid, st: &mut PidState) {
        while st.pending.front().is_some_and(|p| p.unresolved == 0) {
            let p = st.pending.pop_front().expect("checked front");
            st.fold(pid, p.id, p.kind, p.in_topic, p.outs, p.sync, p.exec, p.start);
        }
    }

    fn on_switch(&mut self, e: &SchedEvent) {
        let SchedEventKind::Switch { prev_pid, next_pid, .. } = &e.kind else {
            return; // wakeups do not put a thread on a CPU
        };
        let involved = [*prev_pid, *next_pid];
        let targets = if prev_pid == next_pid { &involved[..1] } else { &involved[..] };
        for &pid in targets {
            if let Some(w) = self.nodes.get_mut(pid).and_then(|s| s.wip.as_mut()) {
                w.clock.on_switch(e.time, *prev_pid, *next_pid, pid);
            }
        }
    }

    /// The per-node callback lists for everything fed so far, sorted by
    /// PID, empty lists omitted — exactly what batch
    /// [`crate::synthesize_per_node`] returns for the same events.
    ///
    /// Pending instances are resolved against the current interaction
    /// tables without consuming them (a response still awaiting its
    /// dispatch decorates as `unknown`, as batch extraction would on a
    /// trace cut at this point); feeding may continue afterwards.
    pub fn callback_lists(&self) -> Vec<(Pid, CbList)> {
        self.node_lists().into_iter().map(|(pid, list)| (pid, list.into_owned())).collect()
    }

    /// The per-node lists of [`SynthesisSession::callback_lists`], each
    /// borrowed from the walker unless the node has pending instances to
    /// resolve into a copy.
    fn node_lists(&self) -> Vec<(Pid, Cow<'_, CbList>)> {
        let mut lists = Vec::new();
        let mut entries: Vec<(Pid, &PidState)> = self.nodes.iter().collect();
        entries.sort_unstable_by_key(|&(pid, _)| pid);
        for (pid, st) in entries {
            if st.pending.is_empty() {
                if !st.list.is_empty() {
                    lists.push((pid, Cow::Borrowed(&st.list)));
                }
                continue;
            }
            let mut list = st.list.clone();
            for p in &st.pending {
                let outs = p
                    .outs
                    .iter()
                    .map(|slot| match slot {
                        OutSlot::Ready(s) => s.clone(),
                        OutSlot::AwaitClient { topic, src_ts } => {
                            cat_id(topic, self.peek_client(*src_ts, topic))
                        }
                    })
                    .collect();
                let in_topic = p.in_topic.clone();
                list.add_instance(CallbackRecord::instance(
                    pid, p.id, p.kind, in_topic, outs, p.sync, p.exec, p.start,
                ));
            }
            lists.push((pid, Cow::Owned(list)));
        }
        lists
    }

    /// `FindClient` against the current tables, without committing: the
    /// first observation known to dispatch.
    fn peek_client(&self, src_ts: SourceTimestamp, topic: &Topic) -> Option<CallbackId> {
        let states = self.responses.get(&src_ts)?;
        let rs = states.iter().find(|r| &r.topic == topic)?;
        rs.obs.iter().find(|o| o.dispatch == Some(true)).map(|o| o.callback)
    }

    /// Synthesizes the timing model of everything fed so far, using the
    /// session's accumulated node-name map. Callable at any point; the
    /// session can keep consuming segments afterwards.
    pub fn model(&self) -> Dag {
        self.model_with_names(&self.names)
    }

    /// Like [`SynthesisSession::model`], but with an explicitly supplied
    /// node-name map (for streams whose P1 events live elsewhere).
    pub fn model_with_names(&self, names: &HashMap<Pid, String>) -> Dag {
        Dag::from_cblists(&self.node_lists(), names)
    }

    /// Number of segments fed so far.
    pub fn segments_fed(&self) -> usize {
        self.segments_fed
    }

    /// Total events (both streams) fed so far.
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// The largest single segment fed so far, in events.
    pub fn peak_segment_events(&self) -> usize {
        self.peak_segment_events
    }

    /// Derived entries currently retained across segment boundaries: open
    /// and pending instances, unmatched request writes, and open response
    /// keys (with their observations). This — not the events themselves —
    /// is all the session keeps between segments.
    pub fn retained_entries(&self) -> usize {
        let instances: usize = self
            .nodes
            .iter()
            .map(|(_, s)| s.pending.len() + usize::from(s.wip.is_some()))
            .sum();
        let writes: usize = self.writes.values().map(Vec::len).sum();
        let responses: usize = self
            .responses
            .values()
            .map(|v| v.iter().map(|r| r.obs.len() + 1).sum::<usize>())
            .sum();
        instances + writes + responses
    }

    /// Peak memory watermark, in event-equivalents: the maximum over all
    /// feeds of segment size plus retained derived entries. For a bounded
    /// segment size this stays bounded no matter how long the run is —
    /// the property the `streaming` experiment asserts.
    pub fn peak_watermark(&self) -> usize {
        self.peak_watermark
    }

    /// Instances dropped at their `CallbackEnd` because no identity event
    /// (`timer_call`/`take_*`) was seen for them — typically a lost
    /// record. Batch extraction drops them the same way.
    pub fn dropped_unidentified(&self) -> u64 {
        self.dropped_unidentified
    }

    /// Open instances discarded because a new `CallbackStart` arrived on
    /// their node before their `CallbackEnd` — a lost end record.
    pub fn overwritten_instances(&self) -> u64 {
        self.overwritten_instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::extract_callbacks;
    use crate::synthesis::synthesize;
    use rtms_trace::{split_by_events, Cpu, Priority, RosPayload, ThreadState};

    fn ros(ms: u64, pid: u32, payload: RosPayload) -> RosEvent {
        RosEvent::new(Nanos::from_millis(ms), Pid::new(pid), payload)
    }

    #[test]
    fn decorations_are_shared_per_name_allocation_and_callback() {
        let mut decorations = Decorations::default();
        let request = Topic::service_request("/sv");
        let a = CallbackId::new(1);
        let first = decorations.get(&request, Some(a));
        assert_eq!(first, cat_id(&request, Some(a)));
        assert!(Arc::ptr_eq(&first, &decorations.get(&request.clone(), Some(a))));
        assert_eq!(decorations.get(&request, None), cat_id(&request, None));
        assert_ne!(decorations.get(&request, Some(CallbackId::new(2))), first);
        // An equal name in another allocation gets equal bytes, its own entry.
        let twin = Topic::service_request("/sv");
        let other = decorations.get(&twin, Some(a));
        assert_eq!(other, first);
        assert!(!Arc::ptr_eq(&other, &first));
        assert_eq!(decorations.0.len(), 4);
    }

    fn sw(ms: u64, prev: u32, next: u32) -> SchedEvent {
        SchedEvent::switch(
            Nanos::from_millis(ms),
            Cpu::new(0),
            Pid::new(prev),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(next),
            Priority::NORMAL,
        )
    }

    /// A trace exercising every cross-segment hazard: a preempted timer
    /// callback, a two-node service interaction (request decoration via
    /// the write table, response decoration via the dispatch decision),
    /// and an undispatched client instance.
    fn service_trace() -> Trace {
        let rq = || Topic::service_request("/sv");
        let rs = || Topic::service_response("/sv");
        let mut t = Trace::new();
        t.push_ros(ros(0, 1, RosPayload::NodeInit { node_name: "caller".into() }));
        t.push_ros(ros(0, 3, RosPayload::NodeInit { node_name: "server".into() }));
        // Timer on pid 1 calls the service; preempted 2..4.
        t.push_ros(ros(1, 1, RosPayload::CallbackStart { kind: CallbackKind::Timer }));
        t.push_ros(ros(1, 1, RosPayload::TimerCall { callback: CallbackId::new(0x11) }));
        t.push_sched(sw(2, 1, 9));
        t.push_sched(sw(4, 9, 1));
        t.push_ros(ros(5, 1, RosPayload::DdsWrite {
            topic: rq(),
            src_ts: SourceTimestamp::new(100),
        }));
        t.push_ros(ros(5, 1, RosPayload::CallbackEnd { kind: CallbackKind::Timer }));
        // Server handles the request and responds.
        t.push_ros(ros(6, 3, RosPayload::CallbackStart { kind: CallbackKind::Service }));
        t.push_ros(ros(6, 3, RosPayload::TakeRequest {
            callback: CallbackId::new(0x33),
            topic: rq(),
            src_ts: SourceTimestamp::new(100),
        }));
        t.push_ros(ros(8, 3, RosPayload::DdsWrite {
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ros(8, 3, RosPayload::CallbackEnd { kind: CallbackKind::Service }));
        // Client instance on pid 1: dispatched.
        t.push_ros(ros(9, 1, RosPayload::CallbackStart { kind: CallbackKind::Client }));
        t.push_ros(ros(9, 1, RosPayload::TakeResponse {
            callback: CallbackId::new(0x21),
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ros(9, 1, RosPayload::ClientDispatch { will_dispatch: true }));
        t.push_ros(ros(10, 1, RosPayload::CallbackEnd { kind: CallbackKind::Client }));
        // A second, undispatched client instance on pid 2.
        t.push_ros(ros(9, 2, RosPayload::CallbackStart { kind: CallbackKind::Client }));
        t.push_ros(ros(9, 2, RosPayload::TakeResponse {
            callback: CallbackId::new(0x22),
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ros(9, 2, RosPayload::ClientDispatch { will_dispatch: false }));
        t.push_ros(ros(9, 2, RosPayload::CallbackEnd { kind: CallbackKind::Client }));
        t.sort_by_time();
        t
    }

    #[test]
    fn one_event_segments_equal_batch() {
        let trace = service_trace();
        let batch = synthesize(&trace);
        for per_segment in [1usize, 2, 3, 5, 1000] {
            let mut session = SynthesisSession::new();
            for seg in split_by_events(&trace, per_segment) {
                session.feed_segment(&seg);
            }
            assert_eq!(session.model(), batch, "segment size {per_segment}");
        }
    }

    #[test]
    fn model_at_any_point_equals_batch_on_prefix() {
        let trace = service_trace();
        let segments = split_by_events(&trace, 4);
        let mut session = SynthesisSession::new();
        let mut prefix = Trace::new();
        for seg in &segments {
            session.feed_segment(seg);
            for e in seg.ros_events() {
                prefix.push_ros(e.clone());
            }
            for e in seg.sched_events() {
                prefix.push_sched(e.clone());
            }
            assert_eq!(session.model(), synthesize(&prefix));
        }
        // Calling model() must not disturb subsequent feeding: final model
        // still matches the full batch.
        assert_eq!(session.model(), synthesize(&trace));
    }

    #[test]
    fn preemption_measured_across_boundaries() {
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
        }
        let lists = session.callback_lists();
        let (_, caller) = lists.iter().find(|(p, _)| *p == Pid::new(1)).expect("pid 1");
        let timer = caller
            .entries()
            .iter()
            .find(|e| e.kind == CallbackKind::Timer)
            .expect("timer entry");
        // Window [1,5] ms minus preemption [2,4) = 2 ms.
        assert_eq!(timer.stats.mwcet(), Some(Nanos::from_millis(2)));
        assert_eq!(timer.out_topics, [Arc::from("/svRequest#cb:0x11")]);
    }

    #[test]
    fn request_and_response_decorations_resolve_across_segments() {
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
        }
        let lists = session.callback_lists();
        let (_, server) = lists.iter().find(|(p, _)| *p == Pid::new(3)).expect("pid 3");
        let sv = &server.entries()[0];
        assert_eq!(sv.in_topic.as_deref(), Some("/svRequest#cb:0x11"));
        assert_eq!(sv.out_topics, [Arc::from("/svReply#cb:0x21")]);
    }

    #[test]
    fn tables_drain_once_interactions_complete() {
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
        }
        // Every interaction completed: nothing but closed state remains.
        assert_eq!(session.retained_entries(), 0);
        assert_eq!(session.events_fed(), trace.len() as u64);
        assert!(session.peak_watermark() >= 1);
        assert_eq!(session.segments_fed(), trace.len());
    }

    #[test]
    fn seeded_name_map_is_shared_not_cloned() {
        let names: Arc<HashMap<Pid, String>> = Arc::new(
            [(Pid::new(1), "caller".to_string()), (Pid::new(3), "server".to_string())].into(),
        );
        let trace = service_trace();
        let mut session = SynthesisSession::with_names(Arc::clone(&names));
        session.feed_segment(&trace.into());
        // The stream's P1 events agree with the seed map, so the Arc is
        // still the very same allocation — no copy-on-write happened.
        assert!(Arc::ptr_eq(session.names(), &names));
        let mut later = SynthesisSession::with_names(Arc::clone(session.names()));
        later.feed_segment(&TraceSegment::new());
        assert!(Arc::ptr_eq(later.names(), &names));
    }

    #[test]
    fn new_p1_event_copies_the_map_once() {
        let names: Arc<HashMap<Pid, String>> = Arc::new(HashMap::new());
        let mut session = SynthesisSession::with_names(Arc::clone(&names));
        let mut trace = Trace::new();
        trace.push_ros(ros(0, 7, RosPayload::NodeInit { node_name: "new".into() }));
        session.feed_segment(&trace.into());
        assert!(!Arc::ptr_eq(session.names(), &names));
        assert_eq!(session.names().get(&Pid::new(7)).map(String::as_str), Some("new"));
        assert!(names.is_empty(), "seed map untouched");
    }

    #[test]
    fn unsorted_segment_equals_batch() {
        use rtms_trace::EventSink;
        let trace = service_trace();
        // Streams arrive back to back, as a tracer drain delivers them,
        // each with its late events first, so the walk has to sort a copy
        // (equal timestamps keep their relative order).
        let late = |t: Nanos| t >= Nanos::from_millis(5);
        let mut segment = TraceSegment::new();
        for first in [true, false] {
            for e in trace.ros_events().iter().filter(|e| late(e.time) == first) {
                segment.push_ros(e.clone());
            }
        }
        for first in [true, false] {
            for e in trace.sched_events().iter().filter(|e| late(e.time) == first) {
                segment.push_sched(e.clone());
            }
        }
        assert!(!segment.ros_events().is_sorted_by_key(|e| e.time));
        let mut session = SynthesisSession::new();
        session.feed_segment(&segment);
        assert_eq!(session.model(), synthesize(&trace));
        assert_eq!(session.events_fed(), trace.len() as u64);
        assert_eq!(session.segments_fed(), 1);
    }

    /// Server pid 3 answers a request, and the response decoration waits
    /// for the client's dispatch decision on pid 1. Meanwhile pid 3
    /// completes a timer instance, which must queue behind the pending
    /// service instance; a second timer instance after the decision folds
    /// in place.
    fn pending_then_timer_trace() -> Trace {
        let rq = || Topic::service_request("/sv");
        let rs = || Topic::service_response("/sv");
        let timer_call = |id| RosPayload::TimerCall { callback: CallbackId::new(id) };
        let start = |kind| RosPayload::CallbackStart { kind };
        let end = |kind| RosPayload::CallbackEnd { kind };
        let ts = SourceTimestamp::new;
        let mut t = Trace::new();
        t.push_ros(ros(1, 1, start(CallbackKind::Timer)));
        t.push_ros(ros(1, 1, timer_call(0x11)));
        t.push_ros(ros(2, 1, RosPayload::DdsWrite { topic: rq(), src_ts: ts(100) }));
        t.push_ros(ros(3, 1, end(CallbackKind::Timer)));
        t.push_ros(ros(4, 3, start(CallbackKind::Service)));
        t.push_ros(ros(4, 3, RosPayload::TakeRequest {
            callback: CallbackId::new(0x33),
            topic: rq(),
            src_ts: ts(100),
        }));
        t.push_ros(ros(5, 3, RosPayload::DdsWrite { topic: rs(), src_ts: ts(200) }));
        t.push_ros(ros(6, 3, end(CallbackKind::Service)));
        t.push_ros(ros(7, 3, start(CallbackKind::Timer)));
        t.push_ros(ros(7, 3, timer_call(0x34)));
        t.push_sched(sw(8, 3, 9));
        t.push_ros(ros(8, 3, RosPayload::DdsWrite {
            topic: Topic::plain("/status"),
            src_ts: ts(300),
        }));
        t.push_sched(sw(9, 9, 3));
        t.push_ros(ros(10, 3, end(CallbackKind::Timer)));
        t.push_ros(ros(11, 1, start(CallbackKind::Client)));
        t.push_ros(ros(11, 1, RosPayload::TakeResponse {
            callback: CallbackId::new(0x21),
            topic: rs(),
            src_ts: ts(200),
        }));
        t.push_ros(ros(11, 1, RosPayload::ClientDispatch { will_dispatch: true }));
        t.push_ros(ros(12, 1, end(CallbackKind::Client)));
        t.push_ros(ros(13, 3, start(CallbackKind::Timer)));
        t.push_ros(ros(13, 3, timer_call(0x34)));
        t.push_ros(ros(15, 3, end(CallbackKind::Timer)));
        t.sort_by_time();
        t
    }

    /// Algorithm 1 over `trace`, node by node: the paper-literal oracle.
    fn oracle_lists(trace: &Trace) -> Vec<(Pid, CbList)> {
        let mut pids: Vec<Pid> = trace.ros_events().iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        pids.into_iter()
            .map(|pid| (pid, extract_callbacks(pid, trace)))
            .filter(|(_, list)| !list.is_empty())
            .collect()
    }

    #[test]
    fn later_instance_never_folds_ahead_of_a_pending_one() {
        let trace = pending_then_timer_trace();
        let mut session = SynthesisSession::new();
        let mut prefix = Trace::new();
        let mut saw_pending_behind = false;
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
            for e in seg.ros_events() {
                prefix.push_ros(e.clone());
            }
            for e in seg.sched_events() {
                prefix.push_sched(e.clone());
            }
            let server = session.nodes.get(Pid::new(3));
            saw_pending_behind |= server.is_some_and(|s| s.pending.len() == 2);
            assert_eq!(session.callback_lists(), oracle_lists(&prefix), "cut after {prefix:?}");
        }
        assert!(saw_pending_behind, "the timer instance must have queued behind the service");
        let lists = session.callback_lists();
        let (_, server) = lists.iter().find(|(p, _)| *p == Pid::new(3)).expect("pid 3");
        let kinds: Vec<CallbackKind> = server.entries().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [CallbackKind::Service, CallbackKind::Timer]);
        assert_eq!(server.entries()[1].stats.count(), 2);
        assert_eq!(server.entries()[1].stats.mwcet(), Some(Nanos::from_millis(2)));
    }

    #[test]
    fn model_with_pending_instances_equals_model_of_the_resolved_lists() {
        let trace = pending_then_timer_trace();
        // Cut just before the client's dispatch decision at 11 ms.
        let cut = trace.cursor().take_while(|e| e.time() < Nanos::from_millis(11)).count();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1).iter().take(cut) {
            session.feed_segment(seg);
        }
        assert_eq!(session.nodes.get(Pid::new(3)).map(|s| s.pending.len()), Some(2));
        let names: HashMap<Pid, String> = [(Pid::new(3), "server".to_string())].into();
        assert_eq!(session.model(), Dag::from_cblists(&session.callback_lists(), session.names()));
        assert_eq!(
            session.model_with_names(&names),
            Dag::from_cblists(&session.callback_lists(), &names)
        );
    }

    #[test]
    fn instance_without_identity_is_dropped_and_counted() {
        let mut trace = Trace::new();
        trace.push_ros(ros(0, 1, RosPayload::CallbackStart { kind: CallbackKind::Timer }));
        trace.push_ros(ros(1, 1, RosPayload::CallbackEnd { kind: CallbackKind::Timer }));
        trace.push_ros(ros(2, 1, RosPayload::CallbackStart { kind: CallbackKind::Timer }));
        trace.push_ros(ros(2, 1, RosPayload::TimerCall { callback: CallbackId::new(7) }));
        trace.push_ros(ros(3, 1, RosPayload::CallbackEnd { kind: CallbackKind::Timer }));
        let mut session = SynthesisSession::new();
        session.feed_segment(&trace.clone().into());
        assert_eq!(session.dropped_unidentified(), 1);
        assert_eq!(session.overwritten_instances(), 0);
        assert_eq!(session.callback_lists()[0].1.entries()[0].stats.count(), 1);
        assert_eq!(session.model(), synthesize(&trace));
    }

    #[test]
    fn lost_end_overwrites_the_open_instance_and_is_counted() {
        let mut trace = Trace::new();
        trace.push_ros(ros(0, 1, RosPayload::CallbackStart { kind: CallbackKind::Timer }));
        trace.push_ros(ros(0, 1, RosPayload::TimerCall { callback: CallbackId::new(7) }));
        // The end record of the first instance was lost.
        trace.push_ros(ros(5, 1, RosPayload::CallbackStart { kind: CallbackKind::Timer }));
        trace.push_ros(ros(5, 1, RosPayload::TimerCall { callback: CallbackId::new(7) }));
        trace.push_ros(ros(6, 1, RosPayload::CallbackEnd { kind: CallbackKind::Timer }));
        let mut session = SynthesisSession::new();
        session.feed_segment(&trace.clone().into());
        assert_eq!(session.overwritten_instances(), 1);
        assert_eq!(session.dropped_unidentified(), 0);
        let lists = session.callback_lists();
        assert_eq!(lists[0].1.entries()[0].stats.count(), 1);
        let five = Nanos::from_millis(5);
        assert_eq!(lists[0].1.entries()[0].starts, Some((five, five)));
        assert_eq!(session.model(), synthesize(&trace));
    }
}
