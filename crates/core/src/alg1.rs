//! Algorithm 1 — extract callback attributes for a ROS2 node.

use crate::alg2::execution_time;
use crate::cblist::{CallbackRecord, CbList};
use rtms_trace::{
    CallbackId, CallbackKind, Nanos, Pid, RosEvent, RosPayload, SourceTimestamp, Topic, Trace,
};
use rtms_util::FxHashMap;
use std::sync::Arc;

/// Decoration used when the caller/client of a service interaction cannot
/// be identified in the trace (e.g. the matching events fell outside the
/// tracing window).
pub(crate) const UNKNOWN: &str = "unknown";

pub(crate) fn cat(topic: &Topic, suffix: &str) -> Arc<str> {
    rtms_util::concat3(topic.name(), "#", suffix)
}

/// Decorates `topic` with a callback identity, or with [`UNKNOWN`] when
/// the peer could not be identified — formatting straight into the shared
/// scratch buffer, with no intermediate `to_string`.
pub(crate) fn cat_id(topic: &Topic, id: Option<CallbackId>) -> Arc<str> {
    match id {
        Some(id) => rtms_util::concat2_fmt(topic.name(), "#", format_args!("{id}")),
        None => cat(topic, UNKNOWN),
    }
}

/// A callback instance being assembled while walking the event stream.
#[derive(Debug)]
struct Wip {
    kind: CallbackKind,
    start: Nanos,
    id: Option<CallbackId>,
    in_topic: Option<Arc<str>>,
    out_topics: Vec<Arc<str>>,
    sync: bool,
}

/// Chronologically sorted event view with the lookup structures
/// `FindCaller` and `FindClient` need, built once per extraction.
///
/// Both maps key on the (`Copy`) source timestamp and disambiguate the
/// topic inside the tiny per-key vector, so lookups compare topics by
/// reference — no `Topic` clone or allocation on the lookup path.
struct EventIndex {
    all: Vec<RosEvent>,
    /// `srcTS` of `dds_write` events -> `(topic, index in all)` per write,
    /// first write per `(topic, srcTS)` wins.
    writes: FxHashMap<SourceTimestamp, Vec<(Topic, usize)>>,
    /// `srcTS` of `take_response` events -> per-topic indices in `all`.
    responses: FxHashMap<SourceTimestamp, Vec<(Topic, Vec<usize>)>>,
}

impl EventIndex {
    fn build(trace: &Trace) -> EventIndex {
        let mut all: Vec<RosEvent> = trace.ros_events().to_vec();
        all.sort_by_key(|e| e.time);
        let mut writes: FxHashMap<SourceTimestamp, Vec<(Topic, usize)>> = FxHashMap::default();
        let mut responses: FxHashMap<SourceTimestamp, Vec<(Topic, Vec<usize>)>> =
            FxHashMap::default();
        for (i, e) in all.iter().enumerate() {
            match &e.payload {
                RosPayload::DdsWrite { topic, src_ts } => {
                    let entries = writes.entry(*src_ts).or_default();
                    if !entries.iter().any(|(t, _)| t == topic) {
                        entries.push((topic.clone(), i));
                    }
                }
                RosPayload::TakeResponse { topic, src_ts, .. } => {
                    let entries = responses.entry(*src_ts).or_default();
                    match entries.iter_mut().find(|(t, _)| t == topic) {
                        Some((_, indices)) => indices.push(i),
                        None => entries.push((topic.clone(), vec![i])),
                    }
                }
                _ => {}
            }
        }
        EventIndex { all, writes, responses }
    }

    /// `FindCaller` of Algorithm 1 (line 13): identify the callback that
    /// wrote the service request with this topic and source timestamp.
    ///
    /// First locate the `dds_write` event with the same topic and `srcTS`;
    /// then, within the writer's PID, the chronologically preceding
    /// `timer_call`/`take` event after the last callback start provides
    /// the caller's callback ID.
    fn find_caller(&self, topic: &Topic, src_ts: SourceTimestamp) -> Option<CallbackId> {
        let write_idx = self
            .writes
            .get(&src_ts)?
            .iter()
            .find_map(|(t, i)| (t == topic).then_some(*i))?;
        let writer = self.all[write_idx].pid;
        for e in self.all[..write_idx].iter().rev().filter(|e| e.pid == writer) {
            match &e.payload {
                RosPayload::TimerCall { callback }
                | RosPayload::TakeData { callback, .. }
                | RosPayload::TakeRequest { callback, .. }
                | RosPayload::TakeResponse { callback, .. } => return Some(*callback),
                RosPayload::CallbackStart { .. } => return None, // crossed the boundary
                _ => {}
            }
        }
        None
    }

    /// `FindClient` of Algorithm 1 (line 20): identify the client callback
    /// that will be dispatched for the service response with this topic
    /// and source timestamp.
    ///
    /// There are `n_cl` `take_response` events with the matching topic and
    /// `srcTS` (one per client of the service); for each, the
    /// chronologically next `take_type_erased_response` event in the same
    /// PID tells whether the client callback is dispatched there.
    fn find_client(&self, topic: &Topic, src_ts: SourceTimestamp) -> Option<CallbackId> {
        let indices = self
            .responses
            .get(&src_ts)?
            .iter()
            .find_map(|(t, indices)| (t == topic).then_some(indices))?;
        for &idx in indices {
            let e = &self.all[idx];
            let callback = match &e.payload {
                RosPayload::TakeResponse { callback, .. } => *callback,
                _ => continue,
            };
            let dispatched = self.all[idx + 1..]
                .iter()
                .filter(|n| n.pid == e.pid)
                .find_map(|n| match n.payload {
                    RosPayload::ClientDispatch { will_dispatch } => Some(will_dispatch),
                    _ => None,
                });
            if dispatched == Some(true) {
                return Some(callback);
            }
        }
        None
    }
}

/// Extracts the callback list of the node identified by `pid`
/// (Algorithm 1 of the paper).
///
/// Walks the node's ROS2 events chronologically; every window between a
/// callback-start and the next callback-end event is one callback instance
/// (single-threaded executor). The instance's execution time is measured
/// from the scheduler events with [`execution_time`] (Algorithm 2).
///
/// # Example
///
/// ```
/// use rtms_core::extract_callbacks;
/// use rtms_trace::{
///     CallbackId, CallbackKind, Nanos, Pid, RosEvent, RosPayload, Trace,
/// };
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
/// let cbs = extract_callbacks(pid, &trace);
/// assert_eq!(cbs.len(), 1);
/// assert_eq!(cbs.entries()[0].stats.mwcet(), Some(Nanos::from_millis(3)));
/// ```
pub fn extract_callbacks(pid: Pid, trace: &Trace) -> CbList {
    extract_callbacks_indexed(pid, trace, &EventIndex::build(trace))
}

fn extract_callbacks_indexed(pid: Pid, trace: &Trace, index: &EventIndex) -> CbList {
    let events = trace.ros_events_for(pid);
    let sched = trace.sched_events();

    let mut list = CbList::new();
    let mut wip: Option<Wip> = None;

    for event in &events {
        match &event.payload {
            RosPayload::CallbackStart { kind } => {
                wip = Some(Wip {
                    kind: *kind,
                    start: event.time,
                    id: None,
                    in_topic: None,
                    out_topics: Vec::new(),
                    sync: false,
                });
            }
            RosPayload::TimerCall { callback } => {
                if let Some(w) = wip.as_mut() {
                    w.id = Some(*callback);
                }
            }
            RosPayload::TakeData { callback, topic, .. } => {
                if let Some(w) = wip.as_mut() {
                    w.id = Some(*callback);
                    w.in_topic = Some(topic.name_arc().clone());
                }
            }
            RosPayload::TakeRequest { callback, topic, src_ts } => {
                if let Some(w) = wip.as_mut() {
                    w.id = Some(*callback);
                    let caller = index
                        .find_caller(topic, *src_ts)
                        .map_or_else(|| UNKNOWN.to_string(), |c| c.to_string());
                    w.in_topic = Some(cat(topic, &caller));
                }
            }
            RosPayload::TakeResponse { callback, topic, .. } => {
                if let Some(w) = wip.as_mut() {
                    w.id = Some(*callback);
                    w.in_topic = Some(cat(topic, &callback.to_string()));
                }
            }
            RosPayload::DdsWrite { topic, src_ts } => {
                if let Some(w) = wip.as_mut() {
                    let out = if topic.is_service_request() {
                        let own = w.id.map_or_else(|| UNKNOWN.to_string(), |c| c.to_string());
                        cat(topic, &own)
                    } else if topic.is_service_response() {
                        let client = index
                            .find_client(topic, *src_ts)
                            .map_or_else(|| UNKNOWN.to_string(), |c| c.to_string());
                        cat(topic, &client)
                    } else {
                        topic.name_arc().clone()
                    };
                    w.out_topics.push(out);
                }
            }
            RosPayload::ClientDispatch { will_dispatch } => {
                if !will_dispatch {
                    wip = None; // this instance will not be dispatched (line 25)
                }
            }
            RosPayload::SyncSubscribe => {
                if let Some(w) = wip.as_mut() {
                    w.sync = true;
                }
            }
            RosPayload::CallbackEnd { .. } => {
                if let Some(w) = wip.take() {
                    let Some(id) = w.id else { continue }; // unidentifiable instance
                    let et = execution_time(w.start, event.time, pid, sched);
                    list.add_instance(CallbackRecord::instance(
                        pid,
                        id,
                        w.kind,
                        w.in_topic,
                        w.out_topics,
                        w.sync,
                        et,
                        w.start,
                    ));
                }
            }
            RosPayload::NodeInit { .. } => {}
        }
    }
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64, pid: u32, payload: RosPayload) -> RosEvent {
        RosEvent::new(Nanos::from_millis(ms), Pid::new(pid), payload)
    }

    fn start(kind: CallbackKind) -> RosPayload {
        RosPayload::CallbackStart { kind }
    }
    fn end(kind: CallbackKind) -> RosPayload {
        RosPayload::CallbackEnd { kind }
    }

    #[test]
    fn timer_instances_collected() {
        let mut trace = Trace::new();
        for base in [0u64, 100] {
            trace.push_ros(ev(base, 1, start(CallbackKind::Timer)));
            trace.push_ros(ev(base, 1, RosPayload::TimerCall { callback: CallbackId::new(7) }));
            trace.push_ros(ev(base + 5, 1, end(CallbackKind::Timer)));
        }
        let cbs = extract_callbacks(Pid::new(1), &trace);
        assert_eq!(cbs.len(), 1);
        let e = &cbs.entries()[0];
        assert_eq!(e.stats.count(), 2);
        assert_eq!(e.estimated_period(), Some(Nanos::from_millis(100)));
    }

    #[test]
    fn subscriber_with_publish() {
        let mut trace = Trace::new();
        trace.push_ros(ev(0, 1, start(CallbackKind::Subscriber)));
        trace.push_ros(ev(0, 1, RosPayload::TakeData {
            callback: CallbackId::new(3),
            topic: Topic::plain("/in"),
            src_ts: SourceTimestamp::new(1),
        }));
        trace.push_ros(ev(4, 1, RosPayload::DdsWrite {
            topic: Topic::plain("/out"),
            src_ts: SourceTimestamp::new(2),
        }));
        trace.push_ros(ev(4, 1, end(CallbackKind::Subscriber)));
        let cbs = extract_callbacks(Pid::new(1), &trace);
        let e = &cbs.entries()[0];
        assert_eq!(e.in_topic.as_deref(), Some("/in"));
        assert_eq!(e.out_topics, [Arc::from("/out")]);
        assert_eq!(e.stats.mwcet(), Some(Nanos::from_millis(4)));
    }

    /// Builds the full two-caller service scenario: timer T (pid 1) and
    /// subscriber S (pid 2) both call service SV (pid 3); responses are
    /// broadcast to both client readers but dispatched only at the caller.
    fn two_caller_service_trace() -> Trace {
        let sv_req = || Topic::service_request("/sv");
        let sv_rsp = || Topic::service_response("/sv");
        let mut t = Trace::new();
        // pid 1: timer CB id 0x11 sends request (srcTS 100); client CB 0x21.
        t.push_ros(ev(0, 1, start(CallbackKind::Timer)));
        t.push_ros(ev(0, 1, RosPayload::TimerCall { callback: CallbackId::new(0x11) }));
        t.push_ros(ev(1, 1, RosPayload::DdsWrite { topic: sv_req(), src_ts: SourceTimestamp::new(100) }));
        t.push_ros(ev(1, 1, end(CallbackKind::Timer)));
        // pid 2: subscriber CB id 0x12 takes /x (srcTS 50) and sends request
        // (srcTS 101); client CB 0x22.
        t.push_ros(ev(2, 2, start(CallbackKind::Subscriber)));
        t.push_ros(ev(2, 2, RosPayload::TakeData {
            callback: CallbackId::new(0x12),
            topic: Topic::plain("/x"),
            src_ts: SourceTimestamp::new(50),
        }));
        t.push_ros(ev(3, 2, RosPayload::DdsWrite { topic: sv_req(), src_ts: SourceTimestamp::new(101) }));
        t.push_ros(ev(3, 2, end(CallbackKind::Subscriber)));
        // pid 3: service CB 0x33 handles request 100, responds srcTS 200.
        t.push_ros(ev(5, 3, start(CallbackKind::Service)));
        t.push_ros(ev(5, 3, RosPayload::TakeRequest {
            callback: CallbackId::new(0x33),
            topic: sv_req(),
            src_ts: SourceTimestamp::new(100),
        }));
        t.push_ros(ev(7, 3, RosPayload::DdsWrite { topic: sv_rsp(), src_ts: SourceTimestamp::new(200) }));
        t.push_ros(ev(7, 3, end(CallbackKind::Service)));
        // ... and request 101, responding srcTS 201.
        t.push_ros(ev(8, 3, start(CallbackKind::Service)));
        t.push_ros(ev(8, 3, RosPayload::TakeRequest {
            callback: CallbackId::new(0x33),
            topic: sv_req(),
            src_ts: SourceTimestamp::new(101),
        }));
        t.push_ros(ev(10, 3, RosPayload::DdsWrite { topic: sv_rsp(), src_ts: SourceTimestamp::new(201) }));
        t.push_ros(ev(10, 3, end(CallbackKind::Service)));
        // Response 200 reaches both clients; dispatched only at pid 1.
        t.push_ros(ev(11, 1, start(CallbackKind::Client)));
        t.push_ros(ev(11, 1, RosPayload::TakeResponse {
            callback: CallbackId::new(0x21),
            topic: sv_rsp(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ev(11, 1, RosPayload::ClientDispatch { will_dispatch: true }));
        t.push_ros(ev(13, 1, end(CallbackKind::Client)));
        t.push_ros(ev(11, 2, start(CallbackKind::Client)));
        t.push_ros(ev(11, 2, RosPayload::TakeResponse {
            callback: CallbackId::new(0x22),
            topic: sv_rsp(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ev(11, 2, RosPayload::ClientDispatch { will_dispatch: false }));
        t.push_ros(ev(11, 2, end(CallbackKind::Client)));
        // Response 201: dispatched only at pid 2.
        t.push_ros(ev(14, 2, start(CallbackKind::Client)));
        t.push_ros(ev(14, 2, RosPayload::TakeResponse {
            callback: CallbackId::new(0x22),
            topic: sv_rsp(),
            src_ts: SourceTimestamp::new(201),
        }));
        t.push_ros(ev(14, 2, RosPayload::ClientDispatch { will_dispatch: true }));
        t.push_ros(ev(16, 2, end(CallbackKind::Client)));
        t.push_ros(ev(14, 1, start(CallbackKind::Client)));
        t.push_ros(ev(14, 1, RosPayload::TakeResponse {
            callback: CallbackId::new(0x21),
            topic: sv_rsp(),
            src_ts: SourceTimestamp::new(201),
        }));
        t.push_ros(ev(14, 1, RosPayload::ClientDispatch { will_dispatch: false }));
        t.push_ros(ev(14, 1, end(CallbackKind::Client)));
        t.sort_by_time();
        t
    }

    #[test]
    fn service_split_per_caller() {
        let trace = two_caller_service_trace();
        let sv = extract_callbacks(Pid::new(3), &trace);
        assert_eq!(sv.len(), 2, "one entry per caller");
        let in_topics: Vec<&str> =
            sv.entries().iter().map(|e| e.in_topic.as_deref().expect("in topic")).collect();
        assert!(in_topics.contains(&"/svRequest#cb:0x11"), "{in_topics:?}");
        assert!(in_topics.contains(&"/svRequest#cb:0x12"), "{in_topics:?}");
        // Response topics are decorated with the dispatched client's ID.
        let outs: Vec<&Arc<str>> = sv.entries().iter().flat_map(|e| &e.out_topics).collect();
        assert!(outs.iter().any(|t| &***t == "/svReply#cb:0x21"), "{outs:?}");
        assert!(outs.iter().any(|t| &***t == "/svReply#cb:0x22"), "{outs:?}");
    }

    #[test]
    fn request_write_decorated_with_caller_own_id() {
        let trace = two_caller_service_trace();
        let caller = extract_callbacks(Pid::new(1), &trace);
        let timer = caller
            .entries()
            .iter()
            .find(|e| e.kind == CallbackKind::Timer)
            .expect("timer entry");
        assert_eq!(timer.out_topics, [Arc::from("/svRequest#cb:0x11")]);
    }

    #[test]
    fn undispatched_client_instances_discarded() {
        let trace = two_caller_service_trace();
        let n1 = extract_callbacks(Pid::new(1), &trace);
        // pid 1 has: timer 0x11, client 0x21 (one dispatched instance; the
        // undispatched one was dropped via P14=false).
        let client = n1
            .entries()
            .iter()
            .find(|e| e.kind == CallbackKind::Client)
            .expect("client entry");
        assert_eq!(client.stats.count(), 1);
        assert_eq!(client.in_topic.as_deref(), Some("/svReply#cb:0x21"));
    }

    #[test]
    fn client_response_edge_names_align() {
        // The service's decorated out topic must equal the client's
        // decorated in topic — the property DAG edge drawing relies on.
        let trace = two_caller_service_trace();
        let sv = extract_callbacks(Pid::new(3), &trace);
        let n1 = extract_callbacks(Pid::new(1), &trace);
        let client_in = n1
            .entries()
            .iter()
            .find(|e| e.kind == CallbackKind::Client)
            .and_then(|e| e.in_topic.clone())
            .expect("client in");
        let sv_outs: Vec<&Arc<str>> = sv.entries().iter().flat_map(|e| &e.out_topics).collect();
        assert!(sv_outs.iter().any(|t| ***t == *client_in));
    }

    #[test]
    fn sync_subscriber_flagged() {
        let mut trace = Trace::new();
        trace.push_ros(ev(0, 1, start(CallbackKind::Subscriber)));
        trace.push_ros(ev(0, 1, RosPayload::TakeData {
            callback: CallbackId::new(3),
            topic: Topic::plain("/f1"),
            src_ts: SourceTimestamp::new(1),
        }));
        trace.push_ros(ev(0, 1, RosPayload::SyncSubscribe));
        trace.push_ros(ev(2, 1, end(CallbackKind::Subscriber)));
        let cbs = extract_callbacks(Pid::new(1), &trace);
        assert!(cbs.entries()[0].is_sync_subscriber);
    }

    #[test]
    fn unknown_caller_marked() {
        // A request whose matching dds_write is missing from the trace.
        let mut trace = Trace::new();
        trace.push_ros(ev(0, 3, start(CallbackKind::Service)));
        trace.push_ros(ev(0, 3, RosPayload::TakeRequest {
            callback: CallbackId::new(9),
            topic: Topic::service_request("/sv"),
            src_ts: SourceTimestamp::new(404),
        }));
        trace.push_ros(ev(2, 3, end(CallbackKind::Service)));
        let cbs = extract_callbacks(Pid::new(3), &trace);
        assert_eq!(cbs.entries()[0].in_topic.as_deref(), Some("/svRequest#unknown"));
    }

    #[test]
    fn events_of_other_pids_ignored() {
        let trace = two_caller_service_trace();
        let cbs = extract_callbacks(Pid::new(99), &trace);
        assert!(cbs.is_empty());
    }
}
