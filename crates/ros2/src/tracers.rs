//! The attached tracer set and its wiring to the simulated kernel.

use rtms_ebpf::{map, FunctionCall, KernelTracer, PidFilterMap, Ros2InitTracer, Ros2RtTracer};
use rtms_sched::SchedSink;
use rtms_trace::SchedEvent;

/// The three tracers of Fig. 1, owned together so the world can start/stop
/// them per the deployment flow of Fig. 2.
#[derive(Debug)]
pub struct TracerSet {
    /// TR_IN — node initialization (P1).
    pub init: Ros2InitTracer,
    /// TR_RT — runtime middleware events (P2–P16).
    pub rt: Ros2RtTracer,
    /// TR_KN — scheduler events with PID filtering.
    pub kernel: KernelTracer,
}

impl TracerSet {
    /// Creates the tracer set with a shared PID-filter map (the paper's
    /// configuration: the kernel tracer filters on PIDs registered by the
    /// INIT tracer).
    ///
    /// # Panics
    ///
    /// Panics if any built-in program fails verification (a bug in this
    /// crate, not a runtime condition).
    pub fn new() -> Self {
        let filter = map::pid_filter_map();
        let init = Ros2InitTracer::new(filter.clone()).expect("P1 program verifies");
        let rt = Ros2RtTracer::new().expect("P2-P16 programs verify");
        let kernel = KernelTracer::new(Some(filter)).expect("sched_switch program verifies");
        TracerSet { init, rt, kernel }
    }

    /// Creates a tracer set whose kernel tracer exports *all* scheduler
    /// events (the unfiltered baseline of the Sec. III-B footprint
    /// experiment).
    ///
    /// # Panics
    ///
    /// Panics if any built-in program fails verification.
    pub fn new_unfiltered() -> Self {
        let filter = map::pid_filter_map();
        let init = Ros2InitTracer::new(filter).expect("P1 program verifies");
        let rt = Ros2RtTracer::new().expect("P2-P16 programs verify");
        let kernel = KernelTracer::new(None).expect("sched_switch program verifies");
        TracerSet { init, rt, kernel }
    }

    /// The shared PID-filter map.
    pub fn pid_filter(&self) -> &PidFilterMap {
        self.init.pid_filter()
    }

    /// Reports a middleware function call to the INIT and RT tracers. A
    /// stopped tracer is not called at all, so an untraced run pays one
    /// flag test per tracer and probe.
    pub fn on_function(&mut self, call: &FunctionCall<'_>) {
        if self.init.is_enabled() {
            self.init.on_function(call);
        }
        if self.rt.is_enabled() {
            self.rt.on_function(call);
        }
    }
}

impl Default for TracerSet {
    fn default() -> Self {
        TracerSet::new()
    }
}

impl SchedSink for TracerSet {
    fn on_sched_event(&mut self, event: &SchedEvent) {
        self.kernel.on_sched_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_ebpf::FunctionArgs;
    use rtms_trace::{Nanos, Pid};

    #[test]
    fn set_builds_and_shares_filter() {
        let mut set = TracerSet::new();
        set.init.start();
        set.on_function(&FunctionCall::entry(
            Nanos::ZERO,
            Pid::new(9),
            FunctionArgs::RmwCreateNode { node_name: "x" },
        ));
        assert!(set.pid_filter().contains(&Pid::new(9)));
    }

    #[test]
    fn sched_sink_forwards_to_kernel_tracer() {
        use rtms_trace::{Cpu, Priority, ThreadState};
        let mut set = TracerSet::new_unfiltered();
        set.kernel.start();
        set.on_sched_event(&SchedEvent::switch(
            Nanos::ZERO,
            Cpu::new(0),
            Pid::new(1),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(2),
            Priority::NORMAL,
        ));
        assert_eq!(set.kernel.exported(), 1);
    }
}
