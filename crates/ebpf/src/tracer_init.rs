//! The ROS2-INIT tracer (TR_IN): probe P1.
//!
//! Runs while applications start, records node creation, and publishes the
//! PIDs of ROS2 node threads into the shared [`PidFilterMap`] so the kernel
//! tracer can filter `sched_switch` events (Fig. 2 deployment).

use crate::call::{AttachPoint, FunctionArgs, FunctionCall};
use crate::map::PidFilterMap;
use crate::overhead::OverheadModel;
use crate::perf::PerfBuffer;
use crate::program::{Helper, ProgramSpec};
use crate::verifier::{Verifier, VerifyError};
use rtms_trace::{Probe, RosEvent, RosPayload};

/// The node-initialization tracer.
///
/// # Example
///
/// ```
/// use rtms_ebpf::{map, FunctionArgs, FunctionCall, Ros2InitTracer};
/// use rtms_trace::{Nanos, Pid};
///
/// let filter = map::pid_filter_map();
/// let mut tracer = Ros2InitTracer::new(filter.clone())?;
/// tracer.start();
/// tracer.on_function(&FunctionCall::entry(
///     Nanos::ZERO,
///     Pid::new(42),
///     FunctionArgs::RmwCreateNode { node_name: "lidar_filter" },
/// ));
/// assert!(filter.contains(&Pid::new(42)));
/// assert_eq!(tracer.drain_segment().len(), 1);
/// # Ok::<(), Vec<rtms_ebpf::VerifyError>>(())
/// ```
#[derive(Debug)]
pub struct Ros2InitTracer {
    enabled: bool,
    pid_filter: PidFilterMap,
    perf: PerfBuffer<RosEvent>,
    overhead: OverheadModel,
}

impl Ros2InitTracer {
    /// Creates the tracer, verifying its program against the default
    /// [`Verifier`].
    ///
    /// # Errors
    ///
    /// Returns the verifier's findings if the P1 program is rejected
    /// (cannot happen with the built-in program; the signature documents
    /// the load-time contract).
    pub fn new(pid_filter: PidFilterMap) -> Result<Self, Vec<VerifyError>> {
        // Constant program, constant verdict: verify once per process.
        static VERIFIED: std::sync::OnceLock<Result<(), Vec<VerifyError>>> =
            std::sync::OnceLock::new();
        VERIFIED
            .get_or_init(|| {
                let program = ProgramSpec::new(Probe::P1, AttachPoint::Entry, 180)
                    .with_helpers([
                        Helper::KtimeGetNs,
                        Helper::GetCurrentPidTgid,
                        Helper::ProbeReadUser,
                        Helper::MapUpdate,
                        Helper::PerfEventOutput,
                    ])
                    .with_maps(["ros2_pids"]);
                Verifier::default().verify_all(std::slice::from_ref(&program))
            })
            .clone()?;
        Ok(Ros2InitTracer {
            enabled: false,
            pid_filter,
            perf: PerfBuffer::new(1 << 20),
            overhead: OverheadModel::new(),
        })
    }

    /// Starts exporting events.
    pub fn start(&mut self) {
        self.enabled = true;
    }

    /// Stops exporting events (probe stays attached; cost still accrues on
    /// a real system, but BCC detaches on stop, so we stop charging too).
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Whether the tracer is currently exporting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Observes a probed function call.
    pub fn on_function(&mut self, call: &FunctionCall<'_>) {
        if !self.enabled || call.point != AttachPoint::Entry {
            return;
        }
        if let FunctionArgs::RmwCreateNode { node_name } = call.args {
            // 5 helper calls: ktime, pid, read node name, map update, output.
            self.overhead.charge(Probe::P1, 5);
            let _ = self.pid_filter.update(call.pid, ());
            self.perf.push(RosEvent::new(
                call.time,
                call.pid,
                RosPayload::NodeInit { node_name: node_name.to_string() },
            ));
        }
    }

    /// Drains the buffered events (one trace segment).
    pub fn drain_segment(&mut self) -> Vec<RosEvent> {
        self.perf.drain()
    }

    /// Drains the buffered events directly into an event sink (generic:
    /// a concrete sink type gets a monomorphized, dispatch-free drain).
    pub fn drain_segment_into<S: rtms_trace::EventSink + ?Sized>(&mut self, sink: &mut S) {
        self.perf.drain_into(sink);
    }

    /// The overhead accounting of this tracer's probe.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    /// The shared PID-filter map.
    pub fn pid_filter(&self) -> &PidFilterMap {
        &self.pid_filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::pid_filter_map;
    use rtms_trace::{Nanos, Pid};

    fn create_node_call(pid: u32, name: &str) -> FunctionCall<'_> {
        FunctionCall::entry(
            Nanos::ZERO,
            Pid::new(pid),
            FunctionArgs::RmwCreateNode { node_name: name },
        )
    }

    #[test]
    fn records_node_init_and_fills_filter() {
        let filter = pid_filter_map();
        let mut tr = Ros2InitTracer::new(filter.clone()).expect("verified");
        tr.start();
        tr.on_function(&create_node_call(10, "a"));
        tr.on_function(&create_node_call(11, "b"));
        assert!(filter.contains(&Pid::new(10)));
        assert!(filter.contains(&Pid::new(11)));
        let events = tr.drain_segment();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0].payload, RosPayload::NodeInit { node_name } if node_name == "a"));
        assert_eq!(tr.overhead().total_firings(), 2);
    }

    #[test]
    fn disabled_tracer_ignores_calls() {
        let filter = pid_filter_map();
        let mut tr = Ros2InitTracer::new(filter.clone()).expect("verified");
        tr.on_function(&create_node_call(10, "a"));
        assert!(!filter.contains(&Pid::new(10)));
        assert!(tr.drain_segment().is_empty());
    }

    #[test]
    fn ignores_unrelated_calls() {
        let filter = pid_filter_map();
        let mut tr = Ros2InitTracer::new(filter).expect("verified");
        tr.start();
        tr.on_function(&FunctionCall::entry(
            Nanos::ZERO,
            Pid::new(1),
            FunctionArgs::ExecuteTimer,
        ));
        assert!(tr.drain_segment().is_empty());
    }

    #[test]
    fn stop_then_start_again() {
        let filter = pid_filter_map();
        let mut tr = Ros2InitTracer::new(filter).expect("verified");
        tr.start();
        tr.on_function(&create_node_call(1, "x"));
        tr.stop();
        tr.on_function(&create_node_call(2, "y"));
        tr.start();
        tr.on_function(&create_node_call(3, "z"));
        assert_eq!(tr.drain_segment().len(), 2);
    }
}
