//! Whole-trace model synthesis: the top of the pipeline in Fig. 1.
//!
//! The batch entry points here are thin wrappers around the incremental
//! [`SynthesisSession`] — a whole trace is simply a stream of one segment,
//! fed through the same walk as a live segment. The session walks one
//! shared chronological cursor and keeps per-node walker state, so
//! synthesis never clones and re-sorts the full event vector once per
//! node.

use crate::cblist::CbList;
use crate::dag::Dag;
use crate::session::SynthesisSession;
use rtms_trace::{Pid, RosPayload, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// Extracts the node-name map (PID → node name) from the P1 events of the
/// INIT tracer.
///
/// The INIT tracer runs only during application startup (Fig. 2), so later
/// trace segments contain no P1 events; keep this map from the first
/// segment and pass it to [`synthesize_with_names`] for the rest.
pub fn node_name_map(trace: &Trace) -> HashMap<Pid, String> {
    trace
        .ros_events()
        .iter()
        .filter_map(|e| match &e.payload {
            RosPayload::NodeInit { node_name } => Some((e.pid, node_name.clone())),
            _ => None,
        })
        .collect()
}

/// Like [`node_name_map`], but shared: hand the `Arc` to any number of
/// [`SynthesisSession::with_names`] calls (one per later segment stream)
/// without ever cloning the map itself.
pub fn node_name_map_shared(trace: &Trace) -> Arc<HashMap<Pid, String>> {
    Arc::new(node_name_map(trace))
}

/// Runs Algorithm 1 for every node observed in the trace, returning the
/// per-node callback lists.
pub fn synthesize_per_node(trace: &Trace) -> Vec<(Pid, CbList)> {
    session_over(trace).callback_lists()
}

/// Synthesizes the timing model of all applications in the trace: callback
/// extraction (Algorithm 1 + 2) for every node, then DAG synthesis with
/// service splitting and OR/AND junctions.
///
/// # Example
///
/// ```
/// use rtms_core::synthesize;
/// use rtms_trace::Trace;
///
/// let dag = synthesize(&Trace::new());
/// assert!(dag.vertices().is_empty());
/// ```
pub fn synthesize(trace: &Trace) -> Dag {
    session_over(trace).model()
}

/// Like [`synthesize`], but with an explicitly supplied node-name map —
/// required for trace segments collected after the INIT tracer stopped
/// (their P1 events live in an earlier segment).
pub fn synthesize_with_names(trace: &Trace, names: &HashMap<Pid, String>) -> Dag {
    session_over(trace).model_with_names(names)
}

/// A fresh session fed the whole trace as one segment.
fn session_over(trace: &Trace) -> SynthesisSession {
    let mut session = SynthesisSession::new();
    session.feed_events(trace.ros_events(), trace.sched_events());
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_trace::{CallbackId, CallbackKind, Nanos, RosEvent, SourceTimestamp, Topic};

    #[test]
    fn names_resolved_from_p1() {
        let mut trace = Trace::new();
        trace.push_ros(RosEvent::new(
            Nanos::ZERO,
            Pid::new(1),
            RosPayload::NodeInit { node_name: "talker".into() },
        ));
        trace.push_ros(RosEvent::new(
            Nanos::ZERO,
            Pid::new(1),
            RosPayload::CallbackStart { kind: CallbackKind::Timer },
        ));
        trace.push_ros(RosEvent::new(
            Nanos::ZERO,
            Pid::new(1),
            RosPayload::TimerCall { callback: CallbackId::new(1) },
        ));
        trace.push_ros(RosEvent::new(
            Nanos::from_millis(1),
            Pid::new(1),
            RosPayload::CallbackEnd { kind: CallbackKind::Timer },
        ));
        let dag = synthesize(&trace);
        assert_eq!(dag.vertices().len(), 1);
        assert_eq!(dag.vertices()[0].node, "talker");
    }

    #[test]
    fn unknown_pid_gets_fallback_name() {
        let mut trace = Trace::new();
        trace.push_ros(RosEvent::new(
            Nanos::ZERO,
            Pid::new(9),
            RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
        ));
        trace.push_ros(RosEvent::new(
            Nanos::ZERO,
            Pid::new(9),
            RosPayload::TakeData {
                callback: CallbackId::new(1),
                topic: Topic::plain("/t"),
                src_ts: SourceTimestamp::new(1),
            },
        ));
        trace.push_ros(RosEvent::new(
            Nanos::from_millis(1),
            Pid::new(9),
            RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
        ));
        let dag = synthesize(&trace);
        assert_eq!(dag.vertices()[0].node, "pid:9");
    }

    #[test]
    fn empty_trace_empty_model() {
        assert!(synthesize(&Trace::new()).vertices().is_empty());
        assert!(synthesize_per_node(&Trace::new()).is_empty());
    }
}
