//! ROS2 middleware events as exported by the eBPF probes.
//!
//! Each event carries the three fields the paper requires of every probe
//! record (Sec. III-A): a timestamp for chronological ordering, a PID to
//! associate the event to a ROS2 node, and the probe identity — here implied
//! by the [`RosPayload`] variant, which also carries the probe-specific
//! arguments read from the middleware function.

use crate::ids::{CallbackId, Pid};
use crate::probe::Probe;
use crate::time::Nanos;
use crate::topic::{SourceTimestamp, Topic};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four kinds of ROS2 callbacks the paper models (Sec. II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CallbackKind {
    /// Triggered by a periodic timer signal.
    Timer,
    /// Triggered by new data on a subscribed topic.
    Subscriber,
    /// Triggered by a service request (server side of an RPC).
    Service,
    /// Triggered by a service response (caller side of an RPC).
    Client,
}

impl CallbackKind {
    /// The probe that notifies the start of this kind of callback.
    pub fn start_probe(self) -> Probe {
        match self {
            CallbackKind::Timer => Probe::P2,
            CallbackKind::Subscriber => Probe::P5,
            CallbackKind::Service => Probe::P9,
            CallbackKind::Client => Probe::P12,
        }
    }

    /// The lowercase name of the kind (`timer`, `subscriber`, `service`,
    /// `client`), as `Display` prints it.
    pub fn name(self) -> &'static str {
        match self {
            CallbackKind::Timer => "timer",
            CallbackKind::Subscriber => "subscriber",
            CallbackKind::Service => "service",
            CallbackKind::Client => "client",
        }
    }

    /// The probe that notifies the end of this kind of callback.
    pub fn end_probe(self) -> Probe {
        match self {
            CallbackKind::Timer => Probe::P4,
            CallbackKind::Subscriber => Probe::P8,
            CallbackKind::Service => Probe::P11,
            CallbackKind::Client => Probe::P15,
        }
    }
}

impl fmt::Display for CallbackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Probe-specific information carried by a [`RosEvent`].
///
/// Variants map 1:1 onto the probes of Table I; the mapping is exposed by
/// [`RosPayload::probe`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RosPayload {
    /// P1 — `rmw_create_node`: a node was created.
    NodeInit {
        /// The node name, e.g. `point_cloud_fusion`.
        node_name: String,
    },
    /// P2/P5/P9/P12 — `execute_*` entry: a callback instance starts.
    CallbackStart {
        /// Which executor function fired, identifying the callback kind.
        kind: CallbackKind,
    },
    /// P3 — `rcl_timer_call`: the timer callback's identity.
    TimerCall {
        /// The timer callback ID.
        callback: CallbackId,
    },
    /// P4/P8/P11/P15 — `execute_*` exit: a callback instance ends.
    CallbackEnd {
        /// Which executor function returned.
        kind: CallbackKind,
    },
    /// P6 — `rmw_take_int` exit: data was read from a topic.
    TakeData {
        /// The subscriber callback ID.
        callback: CallbackId,
        /// The subscribed topic.
        topic: Topic,
        /// The source timestamp of the taken sample.
        src_ts: SourceTimestamp,
    },
    /// P7 — `message_filters` `operator()`: the enclosing subscriber
    /// callback feeds a data synchronizer.
    SyncSubscribe,
    /// P10 — `rmw_take_request` exit: a service request was received.
    TakeRequest {
        /// The service callback ID.
        callback: CallbackId,
        /// The service request topic.
        topic: Topic,
        /// The source timestamp of the request.
        src_ts: SourceTimestamp,
    },
    /// P13 — `rmw_take_response` exit: a service response was received.
    TakeResponse {
        /// The client callback ID.
        callback: CallbackId,
        /// The service response topic.
        topic: Topic,
        /// The source timestamp of the response.
        src_ts: SourceTimestamp,
    },
    /// P14 — `take_type_erased_response` exit: whether the client callback
    /// will actually be dispatched in this node (return value `1`) or the
    /// response was addressed to a different client (`0`).
    ClientDispatch {
        /// `true` iff the client callback will run here.
        will_dispatch: bool,
    },
    /// P16 — `dds_write_impl`: data/request/response written to a topic.
    DdsWrite {
        /// The written topic.
        topic: Topic,
        /// The source timestamp assigned to the sample.
        src_ts: SourceTimestamp,
    },
}

impl RosPayload {
    /// The probe that produced this payload.
    pub fn probe(&self) -> Probe {
        match self {
            RosPayload::NodeInit { .. } => Probe::P1,
            RosPayload::CallbackStart { kind } => kind.start_probe(),
            RosPayload::TimerCall { .. } => Probe::P3,
            RosPayload::CallbackEnd { kind } => kind.end_probe(),
            RosPayload::TakeData { .. } => Probe::P6,
            RosPayload::SyncSubscribe => Probe::P7,
            RosPayload::TakeRequest { .. } => Probe::P10,
            RosPayload::TakeResponse { .. } => Probe::P13,
            RosPayload::ClientDispatch { .. } => Probe::P14,
            RosPayload::DdsWrite { .. } => Probe::P16,
        }
    }
}

/// One event exported by a middleware probe through the perf buffer.
///
/// # Example
///
/// ```
/// use rtms_trace::{Nanos, Pid, Probe, RosEvent, RosPayload, CallbackKind};
///
/// let ev = RosEvent::new(
///     Nanos::from_micros(5),
///     Pid::new(7),
///     RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
/// );
/// assert_eq!(ev.probe(), Probe::P5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RosEvent {
    /// Timestamp for chronological ordering.
    pub time: Nanos,
    /// PID of the thread on which the probed function ran, identifying the
    /// ROS2 node.
    pub pid: Pid,
    /// Probe-specific data.
    pub payload: RosPayload,
}

impl RosEvent {
    /// Creates an event.
    pub fn new(time: Nanos, pid: Pid, payload: RosPayload) -> Self {
        RosEvent { time, pid, payload }
    }

    /// The probe that produced this event.
    pub fn probe(&self) -> Probe {
        self.payload.probe()
    }

    /// On-the-wire size of this event in bytes, modeling the fixed-size C
    /// structs BCC programs push through `bpf_perf_event_output` (string
    /// fields are fixed-width `char` buffers, records are 8-byte aligned).
    /// Used by the trace-volume experiment (Sec. VI: ~9 MB per 60 s).
    pub fn encoded_size(&self) -> usize {
        // 8 B timestamp + 4 B PID + 4 B probe tag/padding.
        const HEADER: usize = 16;
        // Fixed-width topic/name buffer, as in BCC's TASK_COMM-style structs.
        const NAME_BUF: usize = 64;
        let payload = match &self.payload {
            RosPayload::NodeInit { .. } => NAME_BUF,
            RosPayload::CallbackStart { .. } | RosPayload::CallbackEnd { .. } => 8,
            RosPayload::TimerCall { .. } => 8,
            RosPayload::TakeData { .. }
            | RosPayload::TakeRequest { .. }
            | RosPayload::TakeResponse { .. } => 8 + 8 + NAME_BUF,
            RosPayload::SyncSubscribe => 0,
            RosPayload::ClientDispatch { .. } => 8,
            RosPayload::DdsWrite { .. } => 8 + NAME_BUF,
        };
        HEADER + payload
    }
}

/// A borrowed view of a [`RosPayload`]: topics are `&Topic` and the node
/// name is `&str`, so reading a record costs no reference-count change
/// and no string copy.
///
/// This is the one shape the synthesis walker consumes. A live event
/// lends its fields through [`RosEvent::view`]; the segment decoder
/// (`rtms_trace::codec::walk_segment`) lends topics straight from its
/// [`crate::codec::TopicTable`] and node names from the frame buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields mirror the documented `RosPayload` ones
pub enum RosPayloadView<'a> {
    NodeInit { node_name: &'a str },
    CallbackStart { kind: CallbackKind },
    TimerCall { callback: CallbackId },
    CallbackEnd { kind: CallbackKind },
    TakeData { callback: CallbackId, topic: &'a Topic, src_ts: SourceTimestamp },
    SyncSubscribe,
    TakeRequest { callback: CallbackId, topic: &'a Topic, src_ts: SourceTimestamp },
    TakeResponse { callback: CallbackId, topic: &'a Topic, src_ts: SourceTimestamp },
    ClientDispatch { will_dispatch: bool },
    DdsWrite { topic: &'a Topic, src_ts: SourceTimestamp },
}

/// A borrowed view of a [`RosEvent`] (see [`RosPayloadView`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RosEventView<'a> {
    /// Timestamp for chronological ordering.
    pub time: Nanos,
    /// PID of the thread the probed function ran on.
    pub pid: Pid,
    /// Probe-specific data, borrowed.
    pub payload: RosPayloadView<'a>,
}

impl RosEventView<'_> {
    /// Materializes the owned event: topic names become reference-count
    /// bumps of the viewed topics, the node name a fresh `String`.
    pub fn to_owned(self) -> RosEvent {
        let payload = match self.payload {
            RosPayloadView::NodeInit { node_name } => {
                RosPayload::NodeInit { node_name: node_name.to_string() }
            }
            RosPayloadView::CallbackStart { kind } => RosPayload::CallbackStart { kind },
            RosPayloadView::TimerCall { callback } => RosPayload::TimerCall { callback },
            RosPayloadView::CallbackEnd { kind } => RosPayload::CallbackEnd { kind },
            RosPayloadView::TakeData { callback, topic, src_ts } => {
                RosPayload::TakeData { callback, topic: topic.clone(), src_ts }
            }
            RosPayloadView::SyncSubscribe => RosPayload::SyncSubscribe,
            RosPayloadView::TakeRequest { callback, topic, src_ts } => {
                RosPayload::TakeRequest { callback, topic: topic.clone(), src_ts }
            }
            RosPayloadView::TakeResponse { callback, topic, src_ts } => {
                RosPayload::TakeResponse { callback, topic: topic.clone(), src_ts }
            }
            RosPayloadView::ClientDispatch { will_dispatch } => {
                RosPayload::ClientDispatch { will_dispatch }
            }
            RosPayloadView::DdsWrite { topic, src_ts } => {
                RosPayload::DdsWrite { topic: topic.clone(), src_ts }
            }
        };
        RosEvent { time: self.time, pid: self.pid, payload }
    }
}

impl RosEvent {
    /// Borrows this event as a [`RosEventView`].
    #[inline]
    pub fn view(&self) -> RosEventView<'_> {
        let payload = match &self.payload {
            RosPayload::NodeInit { node_name } => RosPayloadView::NodeInit { node_name },
            RosPayload::CallbackStart { kind } => RosPayloadView::CallbackStart { kind: *kind },
            RosPayload::TimerCall { callback } => RosPayloadView::TimerCall { callback: *callback },
            RosPayload::CallbackEnd { kind } => RosPayloadView::CallbackEnd { kind: *kind },
            RosPayload::TakeData { callback, topic, src_ts } => {
                RosPayloadView::TakeData { callback: *callback, topic, src_ts: *src_ts }
            }
            RosPayload::SyncSubscribe => RosPayloadView::SyncSubscribe,
            RosPayload::TakeRequest { callback, topic, src_ts } => {
                RosPayloadView::TakeRequest { callback: *callback, topic, src_ts: *src_ts }
            }
            RosPayload::TakeResponse { callback, topic, src_ts } => {
                RosPayloadView::TakeResponse { callback: *callback, topic, src_ts: *src_ts }
            }
            RosPayload::ClientDispatch { will_dispatch } => {
                RosPayloadView::ClientDispatch { will_dispatch: *will_dispatch }
            }
            RosPayload::DdsWrite { topic, src_ts } => {
                RosPayloadView::DdsWrite { topic, src_ts: *src_ts }
            }
        };
        RosEventView { time: self.time, pid: self.pid, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(payload: RosPayload) -> RosEvent {
        RosEvent::new(Nanos::from_nanos(1), Pid::new(1), payload)
    }

    #[test]
    fn payload_probe_mapping() {
        assert_eq!(ev(RosPayload::NodeInit { node_name: "n".into() }).probe(), Probe::P1);
        assert_eq!(
            ev(RosPayload::CallbackStart { kind: CallbackKind::Timer }).probe(),
            Probe::P2
        );
        assert_eq!(ev(RosPayload::TimerCall { callback: CallbackId::new(1) }).probe(), Probe::P3);
        assert_eq!(
            ev(RosPayload::CallbackEnd { kind: CallbackKind::Client }).probe(),
            Probe::P15
        );
        assert_eq!(ev(RosPayload::SyncSubscribe).probe(), Probe::P7);
        assert_eq!(
            ev(RosPayload::ClientDispatch { will_dispatch: true }).probe(),
            Probe::P14
        );
        assert_eq!(
            ev(RosPayload::DdsWrite {
                topic: Topic::plain("/t"),
                src_ts: SourceTimestamp::new(9)
            })
            .probe(),
            Probe::P16
        );
    }

    #[test]
    fn start_end_probe_pairs() {
        for kind in [
            CallbackKind::Timer,
            CallbackKind::Subscriber,
            CallbackKind::Service,
            CallbackKind::Client,
        ] {
            assert!(kind.start_probe().is_callback_start());
            assert!(kind.end_probe().is_callback_end());
        }
    }

    #[test]
    fn take_events_map_to_take_probes() {
        let t = Topic::plain("/x");
        let ts = SourceTimestamp::new(1);
        assert_eq!(
            ev(RosPayload::TakeData { callback: CallbackId::new(1), topic: t.clone(), src_ts: ts })
                .probe(),
            Probe::P6
        );
        assert_eq!(
            ev(RosPayload::TakeRequest {
                callback: CallbackId::new(1),
                topic: Topic::service_request("/s"),
                src_ts: ts
            })
            .probe(),
            Probe::P10
        );
        assert_eq!(
            ev(RosPayload::TakeResponse {
                callback: CallbackId::new(1),
                topic: Topic::service_response("/s"),
                src_ts: ts
            })
            .probe(),
            Probe::P13
        );
    }

    #[test]
    fn encoded_size_is_fixed_per_record_kind() {
        let small = ev(RosPayload::SyncSubscribe).encoded_size();
        let big = ev(RosPayload::DdsWrite {
            topic: Topic::plain("/a/very/long/topic/name"),
            src_ts: SourceTimestamp::new(1),
        })
        .encoded_size();
        assert!(big > small);
        assert_eq!(small, 16, "SyncSubscribe is header-only");
        assert_eq!(big, 16 + 8 + 64, "DdsWrite carries srcTS + fixed topic buffer");
    }

    #[test]
    fn view_round_trips_and_shares_topic_names() {
        let topic = Topic::service_request("/s");
        let ts = SourceTimestamp::new(4);
        let callback = CallbackId::new(2);
        for payload in [
            RosPayload::NodeInit { node_name: "n".into() },
            RosPayload::CallbackStart { kind: CallbackKind::Service },
            RosPayload::TimerCall { callback },
            RosPayload::CallbackEnd { kind: CallbackKind::Client },
            RosPayload::TakeData { callback, topic: topic.clone(), src_ts: ts },
            RosPayload::SyncSubscribe,
            RosPayload::TakeRequest { callback, topic: topic.clone(), src_ts: ts },
            RosPayload::TakeResponse { callback, topic: topic.clone(), src_ts: ts },
            RosPayload::ClientDispatch { will_dispatch: true },
            RosPayload::DdsWrite { topic: topic.clone(), src_ts: ts },
        ] {
            let e = ev(payload);
            let back = e.view().to_owned();
            assert_eq!(back, e);
            if let RosPayload::DdsWrite { topic: t, .. } = &back.payload {
                assert!(std::sync::Arc::ptr_eq(t.name_arc(), topic.name_arc()));
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let e = ev(RosPayload::TakeData {
            callback: CallbackId::new(3),
            topic: Topic::plain("/t"),
            src_ts: SourceTimestamp::new(5),
        });
        let json = serde_json::to_string(&e).expect("ser");
        let back: RosEvent = serde_json::from_str(&json).expect("de");
        assert_eq!(e, back);
    }
}
