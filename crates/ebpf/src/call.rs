//! The probed function-call surface.
//!
//! The middleware simulator reports every entry/exit of a traced function
//! as a [`FunctionCall`]. The argument payload mirrors what the real eBPF
//! program can reach by traversing the function's argument structures —
//! including the restriction that out-parameters (the source timestamp of
//! `rmw_take_*`) have no defined value at function entry.
//!
//! Arguments *borrow* the caller's names, like the pointers a real probe
//! reads through: a call costs no allocation or refcount traffic, and a
//! tracer copies a name only when it exports a record that carries it.

use rtms_trace::{CallbackId, Nanos, Pid, SourceTimestamp, Topic};
use std::fmt;

/// Whether a probe fires at function entry (uprobe) or exit (uretprobe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttachPoint {
    /// Function entry: arguments are readable, return value is not.
    Entry,
    /// Function exit: return value and out-parameters are readable.
    Exit,
}

impl fmt::Display for AttachPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachPoint::Entry => write!(f, "entry"),
            AttachPoint::Exit => write!(f, "exit"),
        }
    }
}

/// A by-reference source-timestamp argument (`srcTS` in the paper).
///
/// At function entry only the *address* is known; the value is filled in by
/// lower-level DDS functions and becomes readable at exit. The RT tracer
/// stores `addr` in a BPF map at entry and dereferences it at exit — if the
/// simulator hands it a `value` at that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcTsRef {
    /// The (simulated) address of the out-parameter.
    pub addr: u64,
    /// The pointee, present only in `Exit` calls.
    pub value: Option<SourceTimestamp>,
}

impl SrcTsRef {
    /// An entry-time reference: address known, value not yet written.
    pub fn pending(addr: u64) -> Self {
        SrcTsRef { addr, value: None }
    }

    /// An exit-time reference with the value filled in.
    pub fn resolved(addr: u64, value: SourceTimestamp) -> Self {
        SrcTsRef { addr, value: Some(value) }
    }
}

/// Simulated argument structures of the probed ROS2 functions.
///
/// Each variant corresponds to a probed symbol; the fields are what the
/// paper's programs extract by walking the real argument structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionArgs<'a> {
    /// `rmw_create_node(name, ...)` — P1.
    RmwCreateNode {
        /// The node name.
        node_name: &'a str,
    },
    /// `rclcpp::Executor::execute_timer(...)` — P2 (entry) / P4 (exit).
    ExecuteTimer,
    /// `rcl_timer_call(timer)` — P3.
    RclTimerCall {
        /// The timer callback identity.
        timer: CallbackId,
    },
    /// `rclcpp::Executor::execute_subscription(...)` — P5 / P8.
    ExecuteSubscription,
    /// `rmw_take_int(subscription, msg, taken, src_ts*)` — P6.
    RmwTakeInt {
        /// The subscriber callback identity.
        subscription: CallbackId,
        /// The subscribed topic.
        topic: &'a Topic,
        /// The by-reference source timestamp.
        src_ts: SrcTsRef,
    },
    /// `message_filters::...::operator()(msg)` — P7.
    MessageFilterOp,
    /// `rclcpp::Executor::execute_service(...)` — P9 / P11.
    ExecuteService,
    /// `rmw_take_request(service, request, taken, src_ts*)` — P10.
    RmwTakeRequest {
        /// The service callback identity.
        service: CallbackId,
        /// The service request topic.
        topic: &'a Topic,
        /// The by-reference source timestamp.
        src_ts: SrcTsRef,
    },
    /// `rclcpp::Executor::execute_client(...)` — P12 / P15.
    ExecuteClient,
    /// `rmw_take_response(client, response, taken, src_ts*)` — P13.
    RmwTakeResponse {
        /// The client callback identity.
        client: CallbackId,
        /// The service response topic.
        topic: &'a Topic,
        /// The by-reference source timestamp.
        src_ts: SrcTsRef,
    },
    /// `rclcpp::ClientBase::take_type_erased_response(...)` — P14.
    ///
    /// The return value (`true` = the client callback will be dispatched in
    /// this node) is only present in `Exit` calls.
    TakeTypeErasedResponse {
        /// The function's return value, available at exit only.
        ret: Option<bool>,
    },
    /// `dds_write_impl(writer, sample)` — P16.
    DdsWriteImpl {
        /// The written topic.
        topic: &'a Topic,
        /// The source timestamp stamped on the sample.
        src_ts: SourceTimestamp,
    },
}

impl FunctionArgs<'_> {
    /// The `(library, function)` symbol this argument structure belongs to,
    /// matching Table I.
    pub fn symbol(&self) -> (&'static str, &'static str) {
        match self {
            FunctionArgs::RmwCreateNode { .. } => ("rmw_cyclonedds_cpp", "rmw_create_node"),
            FunctionArgs::ExecuteTimer => ("rclcpp", "execute_timer"),
            FunctionArgs::RclTimerCall { .. } => ("rcl", "rcl_timer_call"),
            FunctionArgs::ExecuteSubscription => ("rclcpp", "execute_subscription"),
            FunctionArgs::RmwTakeInt { .. } => ("rmw_cyclonedds_cpp", "rmw_take_int"),
            FunctionArgs::MessageFilterOp => ("message_filters", "operator()"),
            FunctionArgs::ExecuteService => ("rclcpp", "execute_service"),
            FunctionArgs::RmwTakeRequest { .. } => ("rmw_cyclonedds_cpp", "rmw_take_request"),
            FunctionArgs::ExecuteClient => ("rclcpp", "execute_client"),
            FunctionArgs::RmwTakeResponse { .. } => ("rmw_cyclonedds_cpp", "rmw_take_response"),
            FunctionArgs::TakeTypeErasedResponse { .. } => {
                ("rclcpp", "take_type_erased_response")
            }
            FunctionArgs::DdsWriteImpl { .. } => ("cyclonedds", "dds_write_impl"),
        }
    }
}

/// One observed function entry or exit, as seen by an attached probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionCall<'a> {
    /// When the probe fired.
    pub time: Nanos,
    /// The thread on which the function ran.
    pub pid: Pid,
    /// Entry (uprobe) or exit (uretprobe).
    pub point: AttachPoint,
    /// The simulated argument structures.
    pub args: FunctionArgs<'a>,
}

impl<'a> FunctionCall<'a> {
    /// Creates a function-entry observation.
    pub fn entry(time: Nanos, pid: Pid, args: FunctionArgs<'a>) -> Self {
        FunctionCall { time, pid, point: AttachPoint::Entry, args }
    }

    /// Creates a function-exit observation.
    pub fn exit(time: Nanos, pid: Pid, args: FunctionArgs<'a>) -> Self {
        FunctionCall { time, pid, point: AttachPoint::Exit, args }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_ts_ref_lifecycle() {
        let pending = SrcTsRef::pending(0xdead);
        assert_eq!(pending.value, None);
        let resolved = SrcTsRef::resolved(0xdead, SourceTimestamp::new(7));
        assert_eq!(resolved.addr, pending.addr);
        assert_eq!(resolved.value, Some(SourceTimestamp::new(7)));
    }

    #[test]
    fn symbols_match_table_i() {
        assert_eq!(
            FunctionArgs::RmwCreateNode { node_name: "n" }.symbol(),
            ("rmw_cyclonedds_cpp", "rmw_create_node")
        );
        assert_eq!(FunctionArgs::ExecuteTimer.symbol(), ("rclcpp", "execute_timer"));
        assert_eq!(
            FunctionArgs::DdsWriteImpl {
                topic: &Topic::plain("/t"),
                src_ts: SourceTimestamp::new(1)
            }
            .symbol(),
            ("cyclonedds", "dds_write_impl")
        );
        assert_eq!(FunctionArgs::MessageFilterOp.symbol(), ("message_filters", "operator()"));
    }

    #[test]
    fn constructors_set_point() {
        let e = FunctionCall::entry(Nanos::ZERO, Pid::new(1), FunctionArgs::ExecuteTimer);
        assert_eq!(e.point, AttachPoint::Entry);
        let x = FunctionCall::exit(Nanos::ZERO, Pid::new(1), FunctionArgs::ExecuteTimer);
        assert_eq!(x.point, AttachPoint::Exit);
    }
}
