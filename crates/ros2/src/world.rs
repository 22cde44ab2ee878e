//! Assembling applications, machine, and tracers into a runnable world.

use crate::app::{AppSpec, CallbackSpec, GroupKind, OutputAction};
use crate::dds::{DdsDomain, QosSpec, RouteId};
use crate::executor::{CbDetail, CbRuntime, ExecCore, NodeExecutor, ResolvedOutput, SyncRuntime};
use crate::fault::{CbFaults, FaultKind, FaultPlan};
use crate::ground_truth::{CallbackInfo, GroundTruth};
use crate::tracers::TracerSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtms_ebpf::{FunctionArgs, FunctionCall, OverheadModel, OverheadReport};
use rtms_sched::{Affinity, PeriodicLoad, SchedSink, Simulator, SimulatorBuilder};
use rtms_trace::{
    CallbackId, CallbackKind, CodecError, EventSink, Nanos, Pid, Priority, SchedEvent,
    SegmentWriter, Topic, Trace, TraceSegment,
};
use rtms_util::FxHashMap;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Errors detected while assembling a world.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldError {
    /// Two nodes (possibly in different apps) offer the same service.
    DuplicateService(String),
    /// No application was added.
    NoApps,
    /// A fault targets a callback no application declares.
    UnknownFaultCallback(String),
    /// A fault targets a callback name declared by more than one
    /// application in this world (names are only unique per app), so the
    /// target is ambiguous.
    AmbiguousFaultCallback(String),
    /// A [`FaultKind::TimerStutter`] targets a non-timer callback.
    StutterOnNonTimer(String),
    /// A fault factor is invalid: not a finite positive number, a stutter
    /// factor below 1, or a message-drop probability outside `(0, 1]`.
    BadFaultFactor {
        /// The target callback.
        callback: String,
        /// The offending fault, so the message names what was misconfigured.
        kind: FaultKind,
        /// The offending factor.
        factor: f64,
    },
    /// The QoS spec sets a drop probability, but reorder bound 0 marks the
    /// spec reliable — a reliable transport never drops, so the setting
    /// would be a confusing no-op. Use `reorder_bound >= 1` to opt into
    /// best-effort delivery (bound 1 alone never reorders anything).
    QosDropOnReliableSpec {
        /// The drop probability that would have been ignored.
        drop_prob: f64,
    },
    /// A QoS drop probability outside `[0, 1)`.
    BadQosDropProbability {
        /// The offending probability.
        drop_prob: f64,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::DuplicateService(s) => write!(f, "service {s:?} offered twice"),
            WorldError::NoApps => write!(f, "world has no applications"),
            WorldError::UnknownFaultCallback(c) => {
                write!(f, "fault targets unknown callback {c:?}")
            }
            WorldError::AmbiguousFaultCallback(c) => {
                write!(f, "fault target {c:?} is declared by more than one application")
            }
            WorldError::StutterOnNonTimer(c) => {
                write!(f, "timer-stutter fault targets non-timer callback {c:?}")
            }
            WorldError::BadFaultFactor { callback, kind, factor } => {
                write!(f, "fault {kind} on {callback:?} has invalid factor {factor}")
            }
            WorldError::QosDropOnReliableSpec { drop_prob } => {
                write!(
                    f,
                    "QoS drop probability {drop_prob} with reorder bound 0 is a no-op: \
                     a reliable spec never drops (set reorder_bound >= 1 for best effort)"
                )
            }
            WorldError::BadQosDropProbability { drop_prob } => {
                write!(f, "QoS drop probability {drop_prob} is outside [0, 1)")
            }
        }
    }
}

impl std::error::Error for WorldError {}

/// Mutable state shared by all executors: the DDS domain, the tracers, the
/// ground truth, and the workload RNG.
pub(crate) struct WorldState {
    pub(crate) dds: DdsDomain,
    pub(crate) tracers: TracerSet,
    pub(crate) ground_truth: GroundTruth,
    pub(crate) rng: StdRng,
    addr_ctr: u64,
    /// For multi-threaded nodes: primary (reader-owning) pid → all worker
    /// pids, rank order. Absent for single-threaded nodes.
    wake_fanout: FxHashMap<Pid, Vec<Pid>>,
    /// Scratch buffer for expanding reader wakeups through `wake_fanout`,
    /// reused across publishes so the fanout path stays allocation-free.
    fan_scratch: Vec<(Pid, Nanos)>,
}

impl WorldState {
    /// Reports a traced middleware function call.
    pub(crate) fn call(&mut self, call: FunctionCall<'_>) {
        self.tracers.on_function(&call);
    }

    /// A fresh fake stack address for a `srcTS` out-parameter.
    pub(crate) fn fresh_addr(&mut self) -> u64 {
        self.addr_ctr += 0x10;
        0x7fff_0000_0000 + self.addr_ctr
    }

    /// The domain's shared instance of `topic` (see [`DdsDomain::topic`]),
    /// for a reader or a take probe.
    fn shared_topic(&mut self, topic: &Topic) -> Topic {
        let route = self.dds.route(topic);
        self.dds.topic(route).clone()
    }

    /// Writes a sample (emitting the P16 probe), appending the wakeups the
    /// caller must schedule onto `out`. `extra_drop` is the fault-injected
    /// per-copy loss probability stacked on top of the QoS one. Reader
    /// wakeups are fanned out to every worker of a multi-threaded reading
    /// node — which worker's wait-set returns first is exactly the
    /// scheduling race the real executor has.
    ///
    /// The out-parameter shape (instead of returning a vector) is what
    /// keeps the per-publish path of [`crate::NodeExecutor`] allocation
    /// free: every executor owns one scratch buffer that every publish of
    /// every instance appends into.
    pub(crate) fn dds_write_into(
        &mut self,
        now: Nanos,
        pid: Pid,
        route: RouteId,
        rpc_target: Option<(Pid, CallbackId)>,
        extra_drop: f64,
        out: &mut Vec<(Pid, Nanos)>,
    ) {
        let start = out.len();
        let src_ts = self.dds.write_route_into(now, route, rpc_target, extra_drop, out);
        self.tracers.on_function(&FunctionCall::entry(
            now,
            pid,
            FunctionArgs::DdsWriteImpl { topic: self.dds.topic(route), src_ts },
        ));
        if self.wake_fanout.is_empty() {
            return;
        }
        // Expand multi-threaded readers into per-worker wakeups, reusing
        // the world's scratch to hold the unexpanded suffix.
        let mut scratch = std::mem::take(&mut self.fan_scratch);
        scratch.extend(out.drain(start..));
        for &(target, at) in &scratch {
            match self.wake_fanout.get(&target) {
                Some(workers) => out.extend(workers.iter().map(|&w| (w, at))),
                None => out.push((target, at)),
            }
        }
        scratch.clear();
        self.fan_scratch = scratch;
    }
}

/// Adapter giving the simulated kernel's tracepoint stream to the kernel
/// tracer.
struct KernelSink(Rc<RefCell<WorldState>>);

impl SchedSink for KernelSink {
    fn on_sched_event(&mut self, event: &SchedEvent) {
        self.0.borrow_mut().tracers.kernel.on_sched_event(event);
    }
}

/// Builder for a [`Ros2World`].
///
/// Configure the machine (cores, timeslice), the DDS latency, the workload
/// seed, the applications, and optional non-ROS2 background load, then call
/// [`WorldBuilder::build`].
pub struct WorldBuilder {
    cpus: usize,
    timeslice: Nanos,
    dds_latency: Nanos,
    qos: QosSpec,
    seed: u64,
    apps: Vec<AppSpec>,
    background: Vec<(Nanos, Nanos, Nanos)>,
    filtered_kernel: bool,
    record_wakeups: bool,
    faults: FaultPlan,
}

impl WorldBuilder {
    /// Starts a world on a machine with `cpus` cores.
    pub fn new(cpus: usize) -> Self {
        WorldBuilder {
            cpus,
            timeslice: Nanos::from_millis(1),
            dds_latency: Nanos::from_micros(50),
            qos: QosSpec::reliable(),
            seed: 0,
            apps: Vec::new(),
            background: Vec::new(),
            filtered_kernel: true,
            record_wakeups: false,
            faults: FaultPlan::new(),
        }
    }

    /// Sets the round-robin timeslice.
    pub fn timeslice(mut self, slice: Nanos) -> Self {
        self.timeslice = slice;
        self
    }

    /// Sets the DDS transport latency (default 50 µs).
    pub fn dds_latency(mut self, latency: Nanos) -> Self {
        self.dds_latency = latency;
        self
    }

    /// Sets the DDS QoS spec (default reliable: no drops, strict FIFO, no
    /// jitter). Validated in [`WorldBuilder::build`]: the drop probability
    /// must lie in `[0, 1)` and requires `reorder_bound >= 1` (best-effort
    /// delivery) to take effect. The QoS RNG is seeded from the world
    /// seed, so degraded worlds stay deterministic.
    pub fn qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Seeds the workload RNG, making the run deterministic.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds an application.
    pub fn app(mut self, app: AppSpec) -> Self {
        self.apps.push(app);
        self
    }

    /// Adds a non-ROS2 background thread: every `period` it computes for a
    /// duration uniform in `[min, max]`. These threads generate the
    /// `sched_switch` noise the kernel tracer's PID filter removes.
    pub fn background_load(mut self, period: Nanos, min: Nanos, max: Nanos) -> Self {
        self.background.push((period, min, max));
        self
    }

    /// Uses an *unfiltered* kernel tracer (the baseline of the Sec. III-B
    /// footprint experiment). Default is filtered, as in the paper.
    pub fn unfiltered_kernel_tracer(mut self) -> Self {
        self.filtered_kernel = false;
        self
    }

    /// Also records `sched_wakeup` events, enabling the waiting-time
    /// measurement of Sec. VII. Off by default, as in the paper. Combined
    /// with [`WorldBuilder::unfiltered_kernel_tracer`], the kernel tracer
    /// exports the machine's complete scheduler stream.
    pub fn record_wakeups(mut self) -> Self {
        self.record_wakeups = true;
        self
    }

    /// Attaches a fault plan: timed behaviour degradations of named
    /// callbacks (see [`crate::fault`]). Faults from repeated calls
    /// accumulate. Targets are validated in [`WorldBuilder::build`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        for fault in plan.faults() {
            self.faults.push(fault.clone());
        }
        self
    }

    /// Assembles the world.
    ///
    /// # Errors
    ///
    /// Returns [`WorldError::NoApps`] if no application was added, or
    /// [`WorldError::DuplicateService`] if two nodes offer the same
    /// service.
    pub fn build(self) -> Result<Ros2World, WorldError> {
        if self.apps.is_empty() {
            return Err(WorldError::NoApps);
        }
        // QoS sanity: the drop probability must be a probability (1.0 would
        // sever every degraded topic outright — model that as a MutePublisher
        // fault instead), and setting one on a reliable (reorder bound 0)
        // spec would be silently ignored, so reject the confusing no-op.
        if !(self.qos.drop_prob.is_finite() && (0.0..1.0).contains(&self.qos.drop_prob)) {
            return Err(WorldError::BadQosDropProbability { drop_prob: self.qos.drop_prob });
        }
        if self.qos.drop_prob > 0.0 && self.qos.reorder_bound == 0 {
            return Err(WorldError::QosDropOnReliableSpec { drop_prob: self.qos.drop_prob });
        }
        // Unique service check across the whole world.
        {
            let mut seen = std::collections::HashSet::new();
            for app in &self.apps {
                for node in &app.nodes {
                    for cb in &node.callbacks {
                        if let CallbackSpec::Service { service, .. } = cb {
                            if !seen.insert(service.clone()) {
                                return Err(WorldError::DuplicateService(service.clone()));
                            }
                        }
                    }
                }
            }
        }

        // Resolve the fault plan against the declared callbacks. Names are
        // only unique *per app*, so a name declared by several apps is an
        // ambiguous target and rejected rather than silently fanned out.
        let mut fault_map: HashMap<String, CbFaults> = HashMap::new();
        {
            let mut decls: HashMap<&str, (bool, usize)> = HashMap::new();
            for app in &self.apps {
                for node in &app.nodes {
                    for cb in &node.callbacks {
                        let d = decls
                            .entry(cb.name())
                            .or_insert((matches!(cb, CallbackSpec::Timer { .. }), 0));
                        d.1 += 1;
                    }
                }
            }
            for fault in self.faults.faults() {
                let Some(&(timer, count)) = decls.get(fault.callback.as_str()) else {
                    return Err(WorldError::UnknownFaultCallback(fault.callback.clone()));
                };
                if count > 1 {
                    return Err(WorldError::AmbiguousFaultCallback(fault.callback.clone()));
                }
                let check = |factor: f64, min: f64| {
                    if factor.is_finite() && factor >= min && factor > 0.0 {
                        Ok(factor)
                    } else {
                        Err(WorldError::BadFaultFactor {
                            callback: fault.callback.clone(),
                            kind: fault.kind.clone(),
                            factor,
                        })
                    }
                };
                let entry = fault_map.entry(fault.callback.clone()).or_default();
                match fault.kind {
                    FaultKind::Slowdown { factor } => {
                        entry.slowdown = Some((fault.at, check(factor, 0.0)?));
                    }
                    FaultKind::TimerStutter { factor } => {
                        if !timer {
                            return Err(WorldError::StutterOnNonTimer(fault.callback.clone()));
                        }
                        // A sub-1 factor would shrink the period toward
                        // zero and stall the simulated clock.
                        entry.stutter = Some((fault.at, check(factor, 1.0)?));
                    }
                    FaultKind::MutePublisher => entry.mute = Some(fault.at),
                    FaultKind::MessageDrop { prob } => {
                        // A probability of exactly 1 is allowed (total
                        // loss), but 0 would be a planned no-op.
                        if !(prob.is_finite() && prob > 0.0 && prob <= 1.0) {
                            return Err(WorldError::BadFaultFactor {
                                callback: fault.callback.clone(),
                                kind: fault.kind.clone(),
                                factor: prob,
                            });
                        }
                        entry.msg_drop = Some((fault.at, prob));
                    }
                }
            }
        }

        let mut tracers =
            if self.filtered_kernel { TracerSet::new() } else { TracerSet::new_unfiltered() };
        if self.record_wakeups {
            tracers.kernel = tracers.kernel.with_wakeups();
        }
        let world = Rc::new(RefCell::new(WorldState {
            // The QoS RNG gets its own stream, decorrelated from the
            // workload RNG so enabling QoS never perturbs execution-time
            // sampling (a reliable spec draws nothing from it at all).
            dds: DdsDomain::with_qos(
                self.dds_latency,
                self.qos,
                self.seed ^ 0x9e37_79b9_7f4a_7c15,
            ),
            tracers,
            ground_truth: GroundTruth::new(),
            rng: StdRng::seed_from_u64(self.seed),
            addr_ctr: 0,
            wake_fanout: FxHashMap::default(),
            fan_scratch: Vec::new(),
        }));

        let mut sched = SimulatorBuilder::new(self.cpus).timeslice(self.timeslice);
        let mut node_pids: Vec<(String, Pid)> = Vec::new();
        let mut next_cb_id: u64 = 1;

        for app in &self.apps {
            for node in &app.nodes {
                let pid = sched.next_pid();
                let mut cbs: Vec<CbRuntime> = Vec::new();
                let mut name_to_idx: HashMap<&str, usize> = HashMap::new();

                // First pass: identities + readers.
                for spec in &node.callbacks {
                    let id = CallbackId::new(next_cb_id);
                    next_cb_id += 1;
                    let (kind, detail, work) = {
                        let mut w = world.borrow_mut();
                        match spec {
                            CallbackSpec::Timer { period, work, .. } => (
                                CallbackKind::Timer,
                                CbDetail::Timer { period: *period, next_fire: Nanos::ZERO },
                                *work,
                            ),
                            CallbackSpec::Subscriber { topic, work, .. } => {
                                let t = w.shared_topic(&Topic::plain(topic.as_str()));
                                let reader = w.dds.create_reader(pid, t.clone());
                                (
                                    CallbackKind::Subscriber,
                                    CbDetail::Subscriber { reader, topic: t, sync: None },
                                    *work,
                                )
                            }
                            CallbackSpec::Service { service, work, .. } => {
                                let request_topic =
                                    w.shared_topic(&Topic::service_request(service.as_str()));
                                let reader = w.dds.create_reader(pid, request_topic.clone());
                                let response =
                                    w.dds.route(&Topic::service_response(service.as_str()));
                                (
                                    CallbackKind::Service,
                                    CbDetail::Service { reader, request_topic, response },
                                    *work,
                                )
                            }
                            CallbackSpec::Client { service, work, .. } => {
                                let topic =
                                    w.shared_topic(&Topic::service_response(service.as_str()));
                                let reader = w.dds.create_reader(pid, topic.clone());
                                (CallbackKind::Client, CbDetail::Client { reader, topic }, *work)
                            }
                        }
                    };
                    world.borrow_mut().ground_truth.register(
                        id,
                        CallbackInfo {
                            node: node.name.clone(),
                            name: spec.name().to_string(),
                            kind,
                        },
                    );
                    name_to_idx.insert(spec.name(), cbs.len());
                    let faults = fault_map.get(spec.name()).copied().unwrap_or_default();
                    // Group 0 is the implicit mutually-exclusive default;
                    // declared groups follow in declaration order.
                    let group = node
                        .groups
                        .iter()
                        .position(|g| g.members.iter().any(|m| m == spec.name()))
                        .map_or(0, |gi| gi + 1);
                    cbs.push(CbRuntime { id, work, outputs: Vec::new(), detail, faults, group });
                }

                // Second pass: outputs (client references now resolvable).
                let mut w = world.borrow_mut();
                for (idx, spec) in node.callbacks.iter().enumerate() {
                    let mut outputs = Vec::new();
                    for out in spec.outputs() {
                        match out {
                            OutputAction::Publish(topic) => {
                                outputs.push(ResolvedOutput::Publish(
                                    w.dds.route(&Topic::plain(topic.as_str())),
                                ));
                            }
                            OutputAction::CallService { client } => {
                                let ci = name_to_idx[client.as_str()];
                                let service = match &node.callbacks[ci] {
                                    CallbackSpec::Client { service, .. } => service.clone(),
                                    _ => unreachable!("validated as client"),
                                };
                                let request = Topic::service_request(service.as_str());
                                outputs.push(ResolvedOutput::CallService {
                                    client_cb: cbs[ci].id,
                                    request: w.dds.route(&request),
                                });
                            }
                        }
                    }
                    cbs[idx].outputs = outputs;
                }

                // Synchronizers.
                let mut syncs: Vec<SyncRuntime> = Vec::new();
                for group in &node.sync_groups {
                    let members: Vec<usize> =
                        group.members.iter().map(|m| name_to_idx[m.as_str()]).collect();
                    let gi = syncs.len();
                    for (mi, &cb_idx) in members.iter().enumerate() {
                        if let CbDetail::Subscriber { sync, .. } = &mut cbs[cb_idx].detail {
                            *sync = Some((gi, mi));
                        }
                    }
                    syncs.push(SyncRuntime {
                        filled: vec![false; members.len()],
                        outputs: group
                            .outputs
                            .iter()
                            .map(|t| w.dds.route(&Topic::plain(t.as_str())))
                            .collect(),
                    });
                }
                drop(w);

                // Pin every mutually-exclusive group (the implicit default
                // included) to one worker rank: single ownership serializes
                // the group's members structurally. Reentrant groups have
                // no owner — any worker may claim them. When every group is
                // mutually exclusive and the node has one worker, this
                // degenerates to the classic single-threaded executor.
                let workers = node.workers;
                let mut owner: Vec<Option<usize>> = vec![Some(0)];
                for (gi, group) in node.groups.iter().enumerate() {
                    owner.push(match group.kind {
                        GroupKind::MutuallyExclusive => Some((gi + 1) % workers),
                        GroupKind::Reentrant => None,
                    });
                }

                let core = Rc::new(RefCell::new(ExecCore { cbs, syncs, owner }));
                let mut worker_pids = Vec::with_capacity(workers);
                for rank in 0..workers {
                    let logic = NodeExecutor::new(Rc::clone(&world), Rc::clone(&core), rank, pid);
                    let thread_name = if rank == 0 {
                        node.name.clone()
                    } else {
                        format!("{}#w{rank}", node.name)
                    };
                    let spawned =
                        sched.spawn(thread_name, node.priority, node.affinity, Box::new(logic));
                    if rank == 0 {
                        debug_assert_eq!(spawned, pid, "next_pid must predict spawn");
                    }
                    worker_pids.push(spawned);
                    // Every worker is announced under the node name, so the
                    // kernel tracer's PID filter admits all of them and the
                    // model's pid→node mapping covers concurrent instances.
                    node_pids.push((node.name.clone(), spawned));
                }
                if workers > 1 {
                    world.borrow_mut().wake_fanout.insert(pid, worker_pids);
                }
            }
        }

        // Non-ROS2 background threads.
        for (i, (period, min, max)) in self.background.iter().enumerate() {
            sched.spawn(
                format!("bg-load-{i}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(PeriodicLoad::new(*period, *min, *max, self.seed ^ (i as u64 + 1))),
            );
        }

        let mut sim = sched.build();
        // The kernel tracer is the world's scheduler-event consumer; an
        // in-memory log as well would only grow with run length.
        sim.set_recording(false);
        sim.add_sink(Box::new(KernelSink(Rc::clone(&world))));
        Ok(Ros2World { sim, world, node_pids, announced: false })
    }
}

/// A runnable simulated machine with ROS2 applications and attached
/// tracers.
///
/// Follow the deployment flow of Fig. 2: [`Ros2World::announce_nodes`]
/// (TR_IN active during startup), then alternate
/// [`Ros2World::start_runtime_tracers`] / [`Ros2World::run_for`] /
/// [`Ros2World::collect_segment`] — or use [`Ros2World::trace_run`] for the
/// whole cycle, and [`Ros2World::trace_segments`] to stream a long run as
/// bounded segments.
pub struct Ros2World {
    sim: Simulator,
    world: Rc<RefCell<WorldState>>,
    node_pids: Vec<(String, Pid)>,
    announced: bool,
}

impl Ros2World {
    /// Starts the INIT tracer, fires P1 for every node (as the applications
    /// would during startup), and stops it again. Idempotent.
    pub fn announce_nodes(&mut self) {
        if self.announced {
            return;
        }
        self.announced = true;
        let now = self.sim.now();
        let mut w = self.world.borrow_mut();
        w.tracers.init.start();
        for (name, pid) in &self.node_pids {
            let call =
                FunctionCall::entry(now, *pid, FunctionArgs::RmwCreateNode { node_name: name });
            w.tracers.init.on_function(&call);
        }
        w.tracers.init.stop();
    }

    /// Starts the ROS2-RT and kernel tracers.
    pub fn start_runtime_tracers(&mut self) {
        let mut w = self.world.borrow_mut();
        w.tracers.rt.start();
        w.tracers.kernel.start();
    }

    /// Stops the ROS2-RT and kernel tracers.
    pub fn stop_runtime_tracers(&mut self) {
        let mut w = self.world.borrow_mut();
        w.tracers.rt.stop();
        w.tracers.kernel.stop();
    }

    /// Advances the simulation by `duration`.
    pub fn run_for(&mut self, duration: Nanos) {
        let until = self.sim.now() + duration;
        self.sim.run_until(until);
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// Drains all tracer buffers into the given event sink (INIT events
    /// first, then runtime, then scheduler events — each stream in FIFO
    /// order). The sink decides what to do with them: accumulate a
    /// [`Trace`], fill a bounded [`TraceSegment`], or consume them online.
    /// Generic over the sink, so draining into a concrete type compiles to
    /// direct pushes with no per-event virtual dispatch.
    pub fn collect_segment_into<S: EventSink + ?Sized>(&mut self, sink: &mut S) {
        let mut w = self.world.borrow_mut();
        w.tracers.init.drain_segment_into(sink);
        w.tracers.rt.drain_segment_into(sink);
        w.tracers.kernel.drain_segment_into(sink);
    }

    /// Drains all tracer buffers into one chronologically sorted trace
    /// segment.
    pub fn collect_segment(&mut self) -> Trace {
        let mut trace = Trace::new();
        self.collect_segment_into(&mut trace);
        trace.sort_by_time();
        trace
    }

    /// Streams one traced run of `duration` into `sink`: announce nodes,
    /// start the runtime tracers, simulate, stop, and drain every tracer
    /// buffer into the sink. Events arrive in drain order; sort afterwards
    /// if the sink accumulates and chronological order is required.
    pub fn trace_into<S: EventSink + ?Sized>(&mut self, sink: &mut S, duration: Nanos) {
        self.announce_nodes();
        self.start_runtime_tracers();
        self.run_for(duration);
        self.stop_runtime_tracers();
        self.collect_segment_into(sink);
    }

    /// Convenience: announce nodes, trace one run of `duration`, and return
    /// the collected segment (a thin wrapper over [`Ros2World::trace_into`]
    /// with a [`Trace`] as the sink).
    pub fn trace_run(&mut self, duration: Nanos) -> Trace {
        let mut trace = Trace::new();
        self.trace_into(&mut trace, duration);
        trace.sort_by_time();
        trace
    }

    /// Traces a run of `total` simulated time as a sequence of bounded
    /// segments of at most `segment_len` each, following the Fig. 2
    /// deployment flow: stop the runtime tracers, store the segment,
    /// restart with empty buffers. Each chronologically sorted
    /// [`TraceSegment`] (indexed in run order) is handed to `on_segment`
    /// by mutable reference; the buffer is *recycled* for a later window
    /// once the callback returns, so a run of any length needs memory
    /// proportional to one segment, not to the whole run — and a
    /// steady-state window needs no allocation at all. A callback that
    /// wants to keep the events takes them with `std::mem::take`.
    ///
    /// On a machine with at least two cores the two halves of the pipeline
    /// are overlapped (see [`Ros2World::trace_segments_pipelined`]):
    /// consuming segment *k* — sorting it, synthesizing from it — proceeds
    /// on the calling thread's persistent pipeline worker while segment
    /// *k + 1* is still being collected. On a single-core machine the
    /// pipeline would only add context switches, so collection and
    /// consumption alternate on the calling thread instead. The core count
    /// is read once per process ([`rtms_util::cores`]). Both paths hand
    /// over identical segments in identical order, so any output is
    /// byte-identical — pinned by the streaming-equivalence suite.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero, or propagates `on_segment`'s
    /// panic.
    pub fn trace_segments<F>(&mut self, total: Nanos, segment_len: Nanos, on_segment: F)
    where
        F: FnMut(&mut TraceSegment) + Send,
    {
        if rtms_util::cores() >= 2 {
            self.trace_segments_pipelined(total, segment_len, on_segment);
        } else {
            self.trace_segments_sequential(total, segment_len, on_segment);
        }
    }

    /// The pipelined implementation behind [`Ros2World::trace_segments`]:
    /// `on_segment` runs on the calling thread's pipeline worker
    /// ([`rtms_util::worker::overlap`]), a thread spawned on the first call
    /// and reused by every later one, fed through a pair of lock-free SPSC
    /// rings ([`rtms_util::spsc`]), so synthesis of segment *k* overlaps
    /// collection of segment *k + 1*. The forward ring carries filled
    /// segment slabs; the reverse ring returns each slab — cleared but with
    /// its event storage intact — to the collector for reuse, so the steady
    /// state moves recycled buffers instead of allocating fresh ones. The
    /// rings and slabs belong to one call (see "Pipeline internals" in
    /// docs/PERFORMANCE.md for the capacity, memory-ordering and worker
    /// lifecycle arguments).
    ///
    /// Segments arrive at the consumer strictly in run order on one
    /// thread, byte-identical to the sequential path. A panic in
    /// `on_segment` propagates to the caller after the collection loop
    /// stops. A `trace_segments` call made inside `on_segment` runs on the
    /// worker's thread and so gets that thread's own worker.
    ///
    /// Exposed separately so the equivalence suite (and curious callers)
    /// can force the pipelined path regardless of the machine's core
    /// count; prefer [`Ros2World::trace_segments`], which picks the faster
    /// path for the hardware.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero, or propagates `on_segment`'s
    /// panic.
    pub fn trace_segments_pipelined<F>(&mut self, total: Nanos, segment_len: Nanos, on_segment: F)
    where
        F: FnMut(&mut TraceSegment) + Send,
    {
        // Forward ring depth: deep enough to absorb consumer hiccups (a
        // slow synthesis window) without stalling collection, shallow
        // enough that the in-flight working set stays cache-warm. The
        // reverse ring must never reject a returned slab; at most
        // DATA_RING_SLOTS + 2 slabs exist (ring full + one at each end),
        // so one size up is structurally sufficient.
        const DATA_RING_SLOTS: usize = 4;
        const FREE_RING_SLOTS: usize = 2 * DATA_RING_SLOTS;
        assert!(segment_len > Nanos::ZERO, "segment length must be positive");
        self.announce_nodes();
        let (mut data_tx, mut data_rx) = rtms_util::spsc::ring::<TraceSegment>(DATA_RING_SLOTS);
        let (mut free_tx, mut free_rx) = rtms_util::spsc::ring::<TraceSegment>(FREE_RING_SLOTS);
        let mut on_segment = on_segment;
        let consume = move || {
            // pop_wait spins briefly before parking: segments can arrive
            // every few tens of microseconds, and paying a full scheduler
            // wakeup per segment costs more than the synthesis work being
            // hidden.
            while let Some(mut segment) = data_rx.pop_wait() {
                // Sorting belongs to the segment contract but not to the
                // collection critical path — it overlaps the next segment's
                // collection here (and is a no-op scan when the tracers
                // emitted in time order).
                segment.sort_by_time();
                on_segment(&mut segment);
                // Recycle the slab: events are gone (moved out or cleared)
                // but the Vec storage stays. The free ring is sized so this
                // cannot be Full; if the producer is already gone the slab
                // simply drops.
                segment.clear_for_reuse(0);
                let _ = free_tx.try_push(segment);
            }
        };
        // The collector owns the data ring's producing end, so returning
        // or unwinding from it closes the ring and ends the consumer loop:
        // `overlap` waits for that loop on every path out.
        let collect = move || {
            let mut pool: rtms_util::SlabPool<TraceSegment> = rtms_util::SlabPool::new();
            let end = self.now() + total;
            let mut index = 0;
            while self.now() < end {
                let step = segment_len.min(end - self.now());
                self.start_runtime_tracers();
                self.run_for(step);
                self.stop_runtime_tracers();
                // Prefer a recycled slab from the reverse ring; allocate
                // only while the pipeline warms up (bounded by the ring
                // depth, tracked by the pool's counter).
                let mut segment =
                    free_rx.try_pop().unwrap_or_else(|| pool.take_with(TraceSegment::new));
                segment.set_index(index);
                self.collect_segment_into(&mut segment);
                // A rejected push means the consumer died; `overlap`
                // resumes its panic once this loop stops.
                if data_tx.push(segment).is_err() {
                    break;
                }
                index += 1;
            }
        };
        rtms_util::worker::overlap(consume, collect);
    }

    /// The sequential reference for [`Ros2World::trace_segments`]:
    /// collection and consumption strictly alternate on the calling
    /// thread, with one slab reused across every window (the single-core
    /// counterpart of the pipelined path's recycled-slab rings). Same
    /// segment contract, no `Send` requirement on `on_segment`; the
    /// equivalence suite pins the pipelined path byte-identical to this
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero.
    pub fn trace_segments_sequential<F>(
        &mut self,
        total: Nanos,
        segment_len: Nanos,
        mut on_segment: F,
    ) where
        F: FnMut(&mut TraceSegment),
    {
        assert!(segment_len > Nanos::ZERO, "segment length must be positive");
        self.announce_nodes();
        let end = self.now() + total;
        let mut index = 0;
        let mut segment = TraceSegment::new();
        while self.now() < end {
            let step = segment_len.min(end - self.now());
            self.start_runtime_tracers();
            self.run_for(step);
            self.stop_runtime_tracers();
            segment.set_index(index);
            self.collect_segment_into(&mut segment);
            segment.sort_by_time();
            on_segment(&mut segment);
            segment.clear_for_reuse(0);
            index += 1;
        }
    }

    /// Records a segmented run to a binary segment file: the Fig. 2
    /// stop/store/restart loop of [`Ros2World::trace_segments`], with
    /// "store" meaning "append to `writer`". Each segment is encoded and
    /// written as it is collected (on a multi-core machine, overlapped
    /// with collecting the next one); call `writer.finish()` afterwards
    /// to seal the file.
    ///
    /// Replaying the finished file through
    /// `SynthesisSession::feed_reader` yields a model byte-identical to
    /// synthesizing the same run live — segments arrive in the same order
    /// with the same per-segment event order.
    ///
    /// # Errors
    ///
    /// Returns the first write error; collection stops at the end of the
    /// segment that failed to store.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero.
    pub fn record_segments<W: std::io::Write + Send>(
        &mut self,
        writer: &mut SegmentWriter<W>,
        total: Nanos,
        segment_len: Nanos,
    ) -> Result<(), CodecError> {
        let mut result = Ok(());
        self.trace_segments(total, segment_len, |segment| {
            if result.is_ok() {
                result = writer.write_segment(segment);
            }
        });
        result
    }

    /// The PID of a node's executor thread.
    pub fn node_pid(&self, name: &str) -> Option<Pid> {
        self.node_pids.iter().find(|(n, _)| n == name).map(|(_, p)| *p)
    }

    /// All `(node name, PID)` pairs, in spawn order.
    pub fn node_pids(&self) -> &[(String, Pid)] {
        &self.node_pids
    }

    /// Snapshot of the simulator's ground truth.
    pub fn ground_truth(&self) -> GroundTruth {
        self.world.borrow().ground_truth.clone()
    }

    /// Total CPU time consumed so far by the applications' executor
    /// threads.
    pub fn app_cpu_time(&self) -> Nanos {
        self.node_pids
            .iter()
            .fold(Nanos::ZERO, |acc, (_, pid)| acc + self.sim.cpu_time(*pid))
    }

    /// Aggregated probe-overhead report over the elapsed simulated time.
    pub fn overhead_report(&self) -> OverheadReport {
        let w = self.world.borrow();
        let mut merged = OverheadModel::new();
        merged.absorb(w.tracers.init.overhead());
        merged.absorb(w.tracers.rt.overhead());
        merged.absorb(w.tracers.kernel.overhead());
        merged.report(self.sim.now(), self.app_cpu_time())
    }

    /// Bytes accepted into the RT + kernel perf buffers since start — the
    /// trace-volume metric of Sec. VI.
    pub fn trace_volume_bytes(&self) -> usize {
        let w = self.world.borrow();
        w.tracers.rt.perf().total_bytes() + w.tracers.kernel.perf().total_bytes()
    }

    /// `(seen, exported)` scheduler events of the kernel tracer — the
    /// footprint-reduction metric of Sec. III-B.
    pub fn kernel_filter_stats(&self) -> (u64, u64) {
        let w = self.world.borrow();
        (w.tracers.kernel.seen(), w.tracers.kernel.exported())
    }

    /// Direct access to the underlying machine (advanced use: per-thread
    /// CPU times, core utilization, engine counters).
    ///
    /// A world does not keep the simulator's in-memory scheduler log, so
    /// [`Simulator::sched_events`] is empty here. For the full scheduler
    /// stream, build the world with
    /// [`WorldBuilder::unfiltered_kernel_tracer`] and
    /// [`WorldBuilder::record_wakeups`]: its kernel tracer then exports
    /// every `sched_switch` and `sched_wakeup`.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }
}

impl fmt::Debug for Ros2World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ros2World")
            .field("now", &self.sim.now())
            .field("nodes", &self.node_pids.len())
            .finish()
    }
}
