//! Node executors: single- and multi-threaded callback dispatch.
//!
//! A node's callbacks and synchronizers live in one shared `ExecCore`;
//! each executor worker thread is a [`NodeExecutor`] — a [`ThreadLogic`]
//! the kernel simulator polls via [`NodeExecutor::next_op`] — dispatching
//! callbacks from the core one at a time from start to end (the paper's
//! system model, Sec. II-A). A single-threaded executor is the one-worker
//! special case.
//!
//! Multi-threaded dispatch honours callback groups the way rclcpp does:
//! every mutually-exclusive group (including the node's implicit default
//! group) is *pinned* to one worker rank, which serializes its members
//! structurally; reentrant groups are claimable by any worker, so their
//! callback instances genuinely overlap in trace time. Pinning also makes
//! the differential oracle exact: when every callback belongs to a
//! mutually-exclusive group, the extra workers never claim work, never
//! emit runtime events, and the synthesized model is byte-identical to
//! the single-threaded executor's.
//!
//! The executor reports every traced middleware function to the attached
//! tracers at the exact simulated instants the real functions would run.

use crate::dds::{ReaderId, RouteId};
use crate::fault::CbFaults;
use crate::ground_truth::InstanceRecord;
use crate::work::WorkModel;
use crate::world::WorldState;
use rtms_ebpf::{FunctionArgs, FunctionCall, SrcTsRef};
use rtms_sched::{Op, SimCtx, ThreadLogic};
use rtms_trace::{CallbackId, Nanos, Pid, Topic};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Per-callback runtime state inside an executor.
#[derive(Debug)]
pub(crate) struct CbRuntime {
    pub(crate) id: CallbackId,
    pub(crate) work: WorkModel,
    pub(crate) outputs: Vec<ResolvedOutput>,
    pub(crate) detail: CbDetail,
    pub(crate) faults: CbFaults,
    /// Index into [`ExecCore::owner`]: 0 is the node's implicit
    /// mutually-exclusive default group, declared groups follow.
    pub(crate) group: usize,
}

#[derive(Debug)]
pub(crate) enum CbDetail {
    Timer {
        period: Nanos,
        next_fire: Nanos,
    },
    Subscriber {
        reader: ReaderId,
        topic: Topic,
        /// `(group index, member index)` when part of a synchronizer.
        sync: Option<(usize, usize)>,
    },
    Service {
        reader: ReaderId,
        request_topic: Topic,
        response: RouteId,
    },
    Client {
        reader: ReaderId,
        /// The service response topic the reader subscribes to.
        topic: Topic,
    },
}

/// An output action with its topic resolved to a DDS route.
#[derive(Debug, Clone)]
pub(crate) enum ResolvedOutput {
    Publish(RouteId),
    /// Send a request: the response will be dispatched to `client_cb` of
    /// this node.
    CallService { client_cb: CallbackId, request: RouteId },
}

#[derive(Debug)]
pub(crate) struct SyncRuntime {
    pub(crate) filled: Vec<bool>,
    pub(crate) outputs: Vec<RouteId>,
}

/// The per-node state shared by all of the node's executor workers.
#[derive(Debug)]
pub(crate) struct ExecCore {
    pub(crate) cbs: Vec<CbRuntime>,
    pub(crate) syncs: Vec<SyncRuntime>,
    /// Per callback group: the worker rank its mutually-exclusive
    /// dispatch is pinned to, or `None` for a reentrant group any worker
    /// may serve. Index 0 is the implicit default group.
    pub(crate) owner: Vec<Option<usize>>,
}

impl ExecCore {
    /// Whether the worker at `rank` may dispatch callback `cb`.
    fn claims(&self, rank: usize, cb: usize) -> bool {
        self.owner[self.cbs[cb].group].unwrap_or(rank) == rank
    }
}

/// The callback instance currently occupying an executor worker.
#[derive(Debug)]
struct Current {
    cb: usize,
    start: Nanos,
    issued: Nanos,
    /// For a service instance: the requester the response is addressed to.
    requester: Option<(Pid, CallbackId)>,
}

/// One executor worker thread of a node.
pub struct NodeExecutor {
    world: Rc<RefCell<WorldState>>,
    core: Rc<RefCell<ExecCore>>,
    rank: usize,
    /// The node's primary (reader-owning) pid: readers are registered
    /// under it, so every worker polls its due lists.
    poll_pid: Pid,
    current: Option<Current>,
    /// Scratch for the wakeups accumulated while finishing an instance,
    /// reused across instances so the publish path never allocates.
    wakes: Vec<(Pid, Nanos)>,
    /// Min-heap of `(next_fire, cb index)` over this worker's claimable
    /// timers. Entries a *different* worker advanced (reentrant groups) go
    /// stale — but `next_fire` only ever increases, so a stale entry
    /// surfaces early and is lazily repaired at the top; the true earliest
    /// deadline is never hidden. One entry per timer, always.
    timers: BinaryHeap<Reverse<(Nanos, usize)>>,
    /// `(reader id, cb index)` for this worker's claimable reader-backed
    /// callbacks, sorted by reader id — the map from the DDS router's due
    /// lists back to callbacks.
    reader_cb: Vec<(usize, usize)>,
    /// The DDS ready-list slot of `poll_pid`, cached at init (slots never
    /// move); `None` when the node has no readers at all, which skips the
    /// reader walk outright.
    dds_slot: Option<usize>,
    /// Lazily filled on the first poll (the core is fully built by then).
    init_done: bool,
    /// Use the pre-indexing full-scan polling loop (differential oracle).
    reference: bool,
}

impl NodeExecutor {
    pub(crate) fn new(
        world: Rc<RefCell<WorldState>>,
        core: Rc<RefCell<ExecCore>>,
        rank: usize,
        poll_pid: Pid,
        reference: bool,
    ) -> Self {
        NodeExecutor {
            world,
            core,
            rank,
            poll_pid,
            current: None,
            wakes: Vec::new(),
            timers: BinaryHeap::new(),
            reader_cb: Vec::new(),
            dds_slot: None,
            init_done: false,
            reference,
        }
    }

    /// Indexes the core's callbacks for this worker: claimable timers into
    /// the deadline heap, claimable readers into the reader→callback map.
    /// Claims are static after build (group pinning never changes), so
    /// non-claimable callbacks are filtered out here once.
    fn ensure_init(&mut self, core: &ExecCore) {
        if self.init_done {
            return;
        }
        self.init_done = true;
        for (i, cb) in core.cbs.iter().enumerate() {
            if !core.claims(self.rank, i) {
                continue;
            }
            match &cb.detail {
                CbDetail::Timer { next_fire, .. } => self.timers.push(Reverse((*next_fire, i))),
                CbDetail::Subscriber { reader, .. }
                | CbDetail::Service { reader, .. }
                | CbDetail::Client { reader, .. } => self.reader_cb.push((reader.index(), i)),
            }
        }
        self.reader_cb.sort_unstable();
        self.dds_slot = self.world.borrow().dds.pid_slot(self.poll_pid);
    }

    /// Finishes the instance whose compute just completed: performs its
    /// output actions (publishes, service calls, the automatic service
    /// response, synchronizer output) and emits the callback-end event.
    fn finish(&mut self, ctx: &mut SimCtx<'_>, cur: Current) {
        let core_rc = Rc::clone(&self.core);
        let mut core = core_rc.borrow_mut();
        let core = &mut *core;
        let now = ctx.now();
        let pid = ctx.self_pid();
        // Accumulate wakeups in the executor's scratch buffer; publishes
        // append into it via `dds_write_into`, so finishing an instance
        // performs no allocation. The topic lists are iterated by
        // reference — `core` and the world are separate `RefCell`s, so
        // publishing while the core is borrowed is fine.
        let mut wakes = std::mem::take(&mut self.wakes);

        // Synchronizer bookkeeping: mark this member's slot; if the set is
        // complete, this (last-arriving) instance publishes the output.
        if let CbDetail::Subscriber { sync: Some((group, member)), .. } = core.cbs[cur.cb].detail {
            let fire = {
                let g = &mut core.syncs[group];
                g.filled[member] = true;
                g.filled.iter().all(|&f| f)
            };
            if fire {
                for &output in &core.syncs[group].outputs {
                    self.world.borrow_mut().dds_write_into(now, pid, output, None, 0.0, &mut wakes);
                }
                let g = &mut core.syncs[group];
                g.filled.iter_mut().for_each(|f| *f = false);
            }
        }

        // Declared outputs. An active MutePublisher fault drops the topic
        // publications (the callback ran, its data never left); an active
        // MessageDrop fault loses each published copy with a probability.
        let muted = core.cbs[cur.cb].faults.muted(now);
        let extra_drop = core.cbs[cur.cb].faults.drop_prob(now);
        for out in &core.cbs[cur.cb].outputs {
            match *out {
                ResolvedOutput::Publish(output) => {
                    if muted {
                        continue;
                    }
                    self.world.borrow_mut().dds_write_into(
                        now,
                        pid,
                        output,
                        None,
                        extra_drop,
                        &mut wakes,
                    );
                }
                ResolvedOutput::CallService { client_cb, request } => {
                    self.world.borrow_mut().dds_write_into(
                        now,
                        pid,
                        request,
                        Some((pid, client_cb)),
                        0.0,
                        &mut wakes,
                    );
                }
            }
        }

        // A service responds to its caller.
        if let CbDetail::Service { response, .. } = core.cbs[cur.cb].detail {
            self.world.borrow_mut().dds_write_into(
                now,
                pid,
                response,
                cur.requester,
                0.0,
                &mut wakes,
            );
        }

        // Callback-end probe (P4/P8/P11/P15).
        let end_args = match core.cbs[cur.cb].detail {
            CbDetail::Timer { .. } => FunctionArgs::ExecuteTimer,
            CbDetail::Subscriber { .. } => FunctionArgs::ExecuteSubscription,
            CbDetail::Service { .. } => FunctionArgs::ExecuteService,
            CbDetail::Client { .. } => FunctionArgs::ExecuteClient,
        };
        {
            let mut w = self.world.borrow_mut();
            w.call(FunctionCall::exit(now, pid, end_args));
            w.ground_truth.record(InstanceRecord {
                pid,
                callback: core.cbs[cur.cb].id,
                start: cur.start,
                end: now,
                issued: cur.issued,
            });
        }

        for &(target, at) in &wakes {
            ctx.wake_at(target, at);
        }
        wakes.clear();
        self.wakes = wakes;
    }

    fn begin_timer(&mut self, ctx: &mut SimCtx<'_>, core: &mut ExecCore, idx: usize) -> Op {
        let now = ctx.now();
        let pid = ctx.self_pid();
        let id = core.cbs[idx].id;
        let faults = core.cbs[idx].faults;
        if let CbDetail::Timer { period, next_fire } = &mut core.cbs[idx].detail {
            // An active TimerStutter fault stretches the cadence.
            *next_fire += faults.effective_period(now, *period);
        }
        let work = {
            let mut w = self.world.borrow_mut();
            w.call(FunctionCall::entry(now, pid, FunctionArgs::ExecuteTimer));
            w.call(FunctionCall::entry(now, pid, FunctionArgs::RclTimerCall { timer: id }));
            faults.apply_slowdown(now, core.cbs[idx].work.sample(&mut w.rng))
        };
        self.current = Some(Current { cb: idx, start: now, issued: work, requester: None });
        Op::Compute(work)
    }

    fn begin_subscriber(&mut self, ctx: &mut SimCtx<'_>, core: &mut ExecCore, idx: usize) -> Op {
        let now = ctx.now();
        let pid = ctx.self_pid();
        let cb = &core.cbs[idx];
        let id = cb.id;
        let CbDetail::Subscriber { reader, topic, sync } = &cb.detail else {
            unreachable!("begin_subscriber on non-subscriber")
        };
        let (reader, is_sync) = (*reader, sync.is_some());
        let work = {
            let mut w = self.world.borrow_mut();
            let sample = w.dds.pop_due(reader, now).expect("checked due");
            w.call(FunctionCall::entry(now, pid, FunctionArgs::ExecuteSubscription));
            let addr = w.fresh_addr();
            w.call(FunctionCall::entry(
                now,
                pid,
                FunctionArgs::RmwTakeInt {
                    subscription: id,
                    topic,
                    src_ts: SrcTsRef::pending(addr),
                },
            ));
            w.call(FunctionCall::exit(
                now,
                pid,
                FunctionArgs::RmwTakeInt {
                    subscription: id,
                    topic,
                    src_ts: SrcTsRef::resolved(addr, sample.src_ts),
                },
            ));
            if is_sync {
                w.call(FunctionCall::entry(now, pid, FunctionArgs::MessageFilterOp));
            }
            cb.faults.apply_slowdown(now, cb.work.sample(&mut w.rng))
        };
        self.current = Some(Current { cb: idx, start: now, issued: work, requester: None });
        Op::Compute(work)
    }

    fn begin_service(&mut self, ctx: &mut SimCtx<'_>, core: &mut ExecCore, idx: usize) -> Op {
        let now = ctx.now();
        let pid = ctx.self_pid();
        let cb = &core.cbs[idx];
        let id = cb.id;
        let CbDetail::Service { reader, request_topic: topic, .. } = &cb.detail else {
            unreachable!("begin_service on non-service")
        };
        let (work, requester) = {
            let mut w = self.world.borrow_mut();
            let sample = w.dds.pop_due(*reader, now).expect("checked due");
            w.call(FunctionCall::entry(now, pid, FunctionArgs::ExecuteService));
            let addr = w.fresh_addr();
            w.call(FunctionCall::entry(
                now,
                pid,
                FunctionArgs::RmwTakeRequest {
                    service: id,
                    topic,
                    src_ts: SrcTsRef::pending(addr),
                },
            ));
            w.call(FunctionCall::exit(
                now,
                pid,
                FunctionArgs::RmwTakeRequest {
                    service: id,
                    topic,
                    src_ts: SrcTsRef::resolved(addr, sample.src_ts),
                },
            ));
            (cb.faults.apply_slowdown(now, cb.work.sample(&mut w.rng)), sample.rpc_target)
        };
        self.current = Some(Current { cb: idx, start: now, issued: work, requester });
        Op::Compute(work)
    }

    /// Handles an incoming service response. Returns `Some(op)` when the
    /// client callback is dispatched here (this node made the matching
    /// request), `None` when the response was addressed to another client
    /// — in which case only the P12/P13/P14/P15 events fire, with no work,
    /// exactly the pattern Alg. 1 discards via the P14 return value.
    fn begin_client(
        &mut self,
        ctx: &mut SimCtx<'_>,
        core: &mut ExecCore,
        idx: usize,
    ) -> Option<Op> {
        let now = ctx.now();
        let pid = ctx.self_pid();
        let cb = &core.cbs[idx];
        let id = cb.id;
        let CbDetail::Client { reader, topic } = &cb.detail else {
            unreachable!("begin_client on non-client")
        };
        let (work, dispatch) = {
            let mut w = self.world.borrow_mut();
            let sample = w.dds.pop_due(*reader, now).expect("checked due");
            // Callback ids are globally unique, so matching the id alone
            // is exact — and unlike a pid comparison it stays correct on a
            // multi-threaded executor, where the response may be claimed
            // by a different worker than the one that sent the request.
            let dispatch = sample.rpc_target.is_some_and(|(_, cb)| cb == id);
            w.call(FunctionCall::entry(now, pid, FunctionArgs::ExecuteClient));
            let addr = w.fresh_addr();
            w.call(FunctionCall::entry(
                now,
                pid,
                FunctionArgs::RmwTakeResponse {
                    client: id,
                    topic,
                    src_ts: SrcTsRef::pending(addr),
                },
            ));
            w.call(FunctionCall::exit(
                now,
                pid,
                FunctionArgs::RmwTakeResponse {
                    client: id,
                    topic,
                    src_ts: SrcTsRef::resolved(addr, sample.src_ts),
                },
            ));
            w.call(FunctionCall::exit(
                now,
                pid,
                FunctionArgs::TakeTypeErasedResponse { ret: Some(dispatch) },
            ));
            if !dispatch {
                // Not our response: execute_client returns immediately.
                w.call(FunctionCall::exit(now, pid, FunctionArgs::ExecuteClient));
            }
            (cb.faults.apply_slowdown(now, cb.work.sample(&mut w.rng)), dispatch)
        };
        if dispatch {
            self.current = Some(Current { cb: idx, start: now, issued: work, requester: None });
            Some(Op::Compute(work))
        } else {
            None
        }
    }

    /// Event-driven polling: visits only ready work. Expired timers come
    /// off the deadline heap, delivered samples off the DDS router's
    /// per-node due list. Matches the reference scan's dispatch order
    /// exactly: timers by `(next_fire, idx)` (the heap key), then readers
    /// in ascending reader-id order — which equals callback registration
    /// order, because readers are created in callback order at build.
    fn next_op_indexed(&mut self, ctx: &mut SimCtx<'_>) -> Op {
        let core_rc = Rc::clone(&self.core);
        loop {
            let mut core = core_rc.borrow_mut();
            let core = &mut *core;
            let now = ctx.now();
            self.ensure_init(core);
            // 1. Expired claimable timers, earliest deadline first. A top
            //    entry another worker advanced (reentrant group) is
            //    repaired in place; `next_fire` only grows, so stale
            //    entries are stale-low — they surface at the top before
            //    they could ever mask the true earliest deadline.
            while let Some(&Reverse((fire, idx))) = self.timers.peek() {
                let actual = match core.cbs[idx].detail {
                    CbDetail::Timer { next_fire, .. } => next_fire,
                    _ => unreachable!("non-timer in deadline heap"),
                };
                if fire != actual {
                    self.timers.pop();
                    self.timers.push(Reverse((actual, idx)));
                    continue;
                }
                if fire > now {
                    break;
                }
                self.timers.pop();
                let op = self.begin_timer(ctx, core, idx);
                let advanced = match core.cbs[idx].detail {
                    CbDetail::Timer { next_fire, .. } => next_fire,
                    _ => unreachable!("non-timer in deadline heap"),
                };
                self.timers.push(Reverse((advanced, idx)));
                return op;
            }
            // 2. Delivered samples for claimable callbacks, walking only
            //    the due list the DDS router maintains for this node.
            let mut client_handled = false;
            let mut started: Option<Op> = None;
            let mut cursor = None;
            while let Some(slot) = self.dds_slot {
                let next = {
                    let w = self.world.borrow();
                    w.dds.next_ready_due_at(slot, cursor, now)
                };
                let Some((rid, due)) = next else { break };
                cursor = Some(rid);
                // Workers share the node's due list; readers claimed by
                // another worker are simply absent from our map.
                let Ok(pos) = self.reader_cb.binary_search_by_key(&rid.index(), |&(r, _)| r)
                else {
                    continue;
                };
                let idx = self.reader_cb[pos].1;
                // Queued is not delivered: the head sample may still be
                // in DDS flight, in which case the reference scan skips
                // this callback too.
                if !due {
                    continue;
                }
                match core.cbs[idx].detail {
                    CbDetail::Subscriber { .. } => {
                        started = Some(self.begin_subscriber(ctx, core, idx));
                    }
                    CbDetail::Service { .. } => {
                        started = Some(self.begin_service(ctx, core, idx));
                    }
                    CbDetail::Client { .. } => match self.begin_client(ctx, core, idx) {
                        Some(op) => started = Some(op),
                        None => {
                            // Undispatched response consumed: rescan.
                            client_handled = true;
                        }
                    },
                    CbDetail::Timer { .. } => unreachable!("timers are not readers"),
                }
                if started.is_some() {
                    break;
                }
            }
            if let Some(op) = started {
                return op;
            }
            if client_handled {
                continue; // consumed a non-dispatched response; look again
            }
            // 3. Nothing ready: wait on the wait-set, bounded by the next
            //    claimable timer deadline — the heap top, which the repair
            //    loop above left accurate.
            return Op::Block { until: self.timers.peek().map(|&Reverse((fire, _))| fire) };
        }
    }

    /// The pre-indexing polling loop: a full scan over every callback for
    /// due timers, due samples, and the next deadline. Kept verbatim as
    /// the differential-testing oracle.
    fn next_op_reference(&mut self, ctx: &mut SimCtx<'_>) -> Op {
        let core_rc = Rc::clone(&self.core);
        loop {
            let mut core = core_rc.borrow_mut();
            let core = &mut *core;
            let now = ctx.now();
            // 1. Expired claimable timers, earliest deadline first.
            let due_timer = core
                .cbs
                .iter()
                .enumerate()
                .filter_map(|(i, cb)| match cb.detail {
                    CbDetail::Timer { next_fire, .. }
                        if next_fire <= now && core.claims(self.rank, i) =>
                    {
                        Some((next_fire, i))
                    }
                    _ => None,
                })
                .min();
            if let Some((_, idx)) = due_timer {
                return self.begin_timer(ctx, core, idx);
            }
            // 2. Delivered samples for claimable callbacks, in callback
            //    registration order.
            let mut client_handled = false;
            let mut started: Option<Op> = None;
            for idx in 0..core.cbs.len() {
                if !core.claims(self.rank, idx) {
                    continue;
                }
                let due = {
                    let w = self.world.borrow();
                    match &core.cbs[idx].detail {
                        CbDetail::Subscriber { reader, .. }
                        | CbDetail::Service { reader, .. }
                        | CbDetail::Client { reader, .. } => w.dds.has_due(*reader, now),
                        CbDetail::Timer { .. } => false,
                    }
                };
                if !due {
                    continue;
                }
                match core.cbs[idx].detail {
                    CbDetail::Subscriber { .. } => {
                        started = Some(self.begin_subscriber(ctx, core, idx));
                    }
                    CbDetail::Service { .. } => {
                        started = Some(self.begin_service(ctx, core, idx));
                    }
                    CbDetail::Client { .. } => match self.begin_client(ctx, core, idx) {
                        Some(op) => started = Some(op),
                        None => {
                            // Undispatched response consumed: rescan.
                            client_handled = true;
                        }
                    },
                    CbDetail::Timer { .. } => unreachable!("timers handled above"),
                }
                if started.is_some() {
                    break;
                }
            }
            if let Some(op) = started {
                return op;
            }
            if client_handled {
                continue; // consumed a non-dispatched response; look again
            }
            // 3. Nothing ready: wait on the wait-set, bounded by the next
            //    claimable timer deadline. A worker pinned to no timers
            //    blocks until a sample wake arrives.
            let next_deadline = core
                .cbs
                .iter()
                .enumerate()
                .filter_map(|(i, cb)| match cb.detail {
                    CbDetail::Timer { next_fire, .. } if core.claims(self.rank, i) => {
                        Some(next_fire)
                    }
                    _ => None,
                })
                .min();
            return Op::Block { until: next_deadline };
        }
    }
}

impl ThreadLogic for NodeExecutor {
    fn next_op(&mut self, ctx: &mut SimCtx<'_>) -> Op {
        if let Some(cur) = self.current.take() {
            self.finish(ctx, cur);
        }
        if self.reference {
            self.next_op_reference(ctx)
        } else {
            self.next_op_indexed(ctx)
        }
    }
}
