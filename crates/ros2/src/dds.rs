//! The simulated DDS transport (Cyclone-DDS stand-in).
//!
//! Topics connect writers to readers; every write stamps a fresh source
//! timestamp (the `srcTS` the tracer extracts) and delivers a copy of the
//! sample into every matching reader's queue after the configured
//! transport latency. Service request/response routing rides on the same
//! mechanism, exactly as in ROS2 (Sec. II-A: "services are implemented
//! using topics").
//!
//! # QoS
//!
//! A [`QosSpec`] degrades delivery on *plain* topics (service traffic is
//! always reliable, matching the rclcpp default):
//!
//! - **best-effort drops** — each delivered copy is independently lost
//!   with `drop_prob` (only meaningful on a best-effort spec, i.e. with
//!   `reorder_bound >= 1`; the world builder rejects the no-op combination
//!   of a drop probability on a reliable spec);
//! - **bounded reorder** — a sample may be overtaken by at most
//!   `reorder_bound` samples written after it (per reader queue);
//! - **latency jitter** — each copy's arrival is delayed by an extra
//!   uniform amount in `[0, jitter]`.
//!
//! All QoS decisions come from the domain's own seeded RNG, so a seeded
//! world stays byte-for-byte deterministic, and a reliable spec (the
//! default) draws nothing at all — bit-identical to a QoS-less domain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtms_trace::{CallbackId, Nanos, Pid, SourceTimestamp, Topic};
use rtms_util::FxHashMap;
use std::collections::VecDeque;

/// Quality-of-service knobs of a DDS domain, applied to plain topics.
///
/// The default spec is *reliable*: no drops, strict per-reader FIFO, no
/// jitter — byte-identical behaviour to a domain without QoS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// Probability that a delivered copy is lost (best-effort delivery).
    /// Drawn independently per `(write, reader)` pair. Only applied when
    /// `reorder_bound >= 1` marks the spec best-effort; the world builder
    /// rejects a drop probability on a reliable (bound 0) spec as a
    /// confusing no-op.
    pub drop_prob: f64,
    /// How many samples written *after* a sample may be delivered before
    /// it, per reader queue. `0` is strict FIFO (reliable ordering).
    pub reorder_bound: usize,
    /// Extra delivery latency, uniform in `[0, jitter]`, drawn per copy.
    pub jitter: Nanos,
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec::reliable()
    }
}

impl QosSpec {
    /// The reliable spec: no drops, strict FIFO, no jitter.
    pub fn reliable() -> QosSpec {
        QosSpec { drop_prob: 0.0, reorder_bound: 0, jitter: Nanos::ZERO }
    }

    /// Whether this spec degrades nothing (the default).
    pub fn is_reliable(&self) -> bool {
        self.drop_prob == 0.0 && self.reorder_bound == 0 && self.jitter == Nanos::ZERO
    }
}

/// A sample sitting in (or delivered from) a reader queue. It carries no
/// topic: a reader subscribes to exactly one, which its owner knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The source timestamp stamped at write time.
    pub src_ts: SourceTimestamp,
    /// When the sample becomes visible to the reader.
    pub arrival: Nanos,
    /// For service traffic: the client callback the response must be
    /// dispatched to (requests carry the *requester* here so the server can
    /// address its response).
    pub rpc_target: Option<(Pid, CallbackId)>,
}

/// Identifier of a reader within the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReaderId(usize);

impl ReaderId {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A queued sample with its delivery rank: `rank = write seq + offset`
/// with `offset in [0, reorder_bound]`, so ordering by `(rank, seq)`
/// structurally bounds how many newer samples can overtake an older one.
#[derive(Debug)]
struct QueuedSample {
    rank: u64,
    sample: Sample,
}

/// A resolved publish route: the readers of one topic. Resolve it once
/// with [`DdsDomain::route`] and write through
/// [`DdsDomain::write_route_into`], so a publish never hashes a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteId(u32);

#[derive(Debug)]
struct Route {
    /// The domain's one instance of the topic (see [`DdsDomain::topic`]).
    topic: Topic,
    /// Reader ids of the topic, in registration (= id) order, so the
    /// per-reader RNG draws (drop, jitter, reorder) happen in the order a
    /// full scan of the domain's readers would make them.
    readers: Vec<u32>,
}

#[derive(Debug)]
struct Reader {
    pid: Pid,
    // The subscribed topic is not stored here: routing goes through
    // `DdsDomain::routes`, which lists the reader under it.
    queue: VecDeque<QueuedSample>,
    /// Index of this reader's pid in [`DdsDomain::ready`].
    slot: usize,
}

/// The DDS domain: topic-based sample routing with delivery latency and
/// optional QoS degradation (see [`QosSpec`]).
///
/// # Example
///
/// ```
/// use rtms_ros2::DdsDomain;
/// use rtms_trace::{Nanos, Pid, Topic};
///
/// let mut dds = DdsDomain::new(Nanos::from_micros(50));
/// let reader = dds.create_reader(Pid::new(7), Topic::plain("/chatter"));
/// let (ts, wakes) = dds.write(Nanos::ZERO, Topic::plain("/chatter"), None);
/// assert_eq!(wakes, vec![(Pid::new(7), Nanos::from_micros(50))]);
/// // Not visible before the latency has elapsed.
/// assert!(dds.pop_due(reader, Nanos::ZERO).is_none());
/// let sample = dds.pop_due(reader, Nanos::from_micros(50)).expect("delivered");
/// assert_eq!(sample.src_ts, ts);
/// ```
#[derive(Debug)]
pub struct DdsDomain {
    latency: Nanos,
    qos: QosSpec,
    rng: StdRng,
    readers: Vec<Reader>,
    next_src_ts: u64,
    /// Per owning pid: the ids of this pid's readers currently holding at
    /// least one (possibly not-yet-arrived) sample, sorted ascending.
    /// Maintained by `write_lossy_into` (insert into empty queue) and
    /// `pop_due` (pop to empty), so executors visit only readers with
    /// work instead of scanning every callback.
    ready: Vec<Vec<u32>>,
    pid_slots: FxHashMap<Pid, usize>,
    /// One route per topic ever subscribed or resolved; a write walks only
    /// its topic's own readers instead of scanning the whole domain.
    routes: Vec<Route>,
    route_ids: FxHashMap<Topic, RouteId>,
}

impl DdsDomain {
    /// Creates a domain with a fixed transport latency and reliable QoS.
    pub fn new(latency: Nanos) -> Self {
        DdsDomain::with_qos(latency, QosSpec::reliable(), 0)
    }

    /// Creates a domain with a QoS spec and a seed for its (private)
    /// drop/reorder/jitter RNG. A reliable spec never draws from the RNG,
    /// so the seed is then irrelevant.
    pub fn with_qos(latency: Nanos, qos: QosSpec, seed: u64) -> Self {
        DdsDomain {
            latency,
            qos,
            rng: StdRng::seed_from_u64(seed),
            readers: Vec::new(),
            next_src_ts: 1,
            ready: Vec::new(),
            pid_slots: FxHashMap::default(),
            routes: Vec::new(),
            route_ids: FxHashMap::default(),
        }
    }

    /// The configured transport latency.
    pub fn latency(&self) -> Nanos {
        self.latency
    }

    /// The configured QoS spec.
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// Registers a reader of `topic` owned by the executor thread `pid`.
    pub fn create_reader(&mut self, pid: Pid, topic: Topic) -> ReaderId {
        let next_slot = self.ready.len();
        let slot = *self.pid_slots.entry(pid).or_insert(next_slot);
        if slot == next_slot {
            self.ready.push(Vec::new());
        }
        let id = self.readers.len() as u32;
        let route = self.route(&topic);
        self.routes[route.0 as usize].readers.push(id);
        self.readers.push(Reader { pid, queue: VecDeque::new(), slot });
        ReaderId(id as usize)
    }

    /// The publish route of `topic`. Routes are stable: a reader created
    /// later joins the route already handed out, so a publisher may
    /// resolve its topics once, before every subscriber exists.
    pub fn route(&mut self, topic: &Topic) -> RouteId {
        if let Some(&id) = self.route_ids.get(topic) {
            return id;
        }
        let id = RouteId(self.routes.len() as u32);
        self.routes.push(Route { topic: topic.clone(), readers: Vec::new() });
        self.route_ids.insert(topic.clone(), id);
        id
    }

    /// The topic of `route`, as first resolved. A world resolves every
    /// topic it writes or reads through the domain, so all of one topic's
    /// writers, readers and probe records share this one name
    /// allocation, as a recorded trace's topic dictionary does.
    pub fn topic(&self, route: RouteId) -> &Topic {
        &self.routes[route.0 as usize].topic
    }

    /// Writes a sample to `topic` at time `now`.
    ///
    /// Returns the stamped source timestamp and the list of
    /// `(reader thread, arrival time)` wakeups the caller must schedule.
    pub fn write(
        &mut self,
        now: Nanos,
        topic: Topic,
        rpc_target: Option<(Pid, CallbackId)>,
    ) -> (SourceTimestamp, Vec<(Pid, Nanos)>) {
        self.write_lossy(now, topic, rpc_target, 0.0)
    }

    /// Like [`DdsDomain::write`], with an additional per-copy drop
    /// probability stacked on top of the QoS drop probability — the hook a
    /// [`crate::FaultKind::MessageDrop`] fault injects through. The extra
    /// probability applies even on a reliable spec: an injected transport
    /// fault is precisely a *violation* of the configured reliability.
    pub fn write_lossy(
        &mut self,
        now: Nanos,
        topic: Topic,
        rpc_target: Option<(Pid, CallbackId)>,
        extra_drop: f64,
    ) -> (SourceTimestamp, Vec<(Pid, Nanos)>) {
        let mut wakes = Vec::new();
        let route = self.route(&topic);
        let src_ts = self.write_route_into(now, route, rpc_target, extra_drop, &mut wakes);
        (src_ts, wakes)
    }

    /// The allocation-free core of [`DdsDomain::write_lossy`], addressed
    /// by a resolved [`RouteId`]: appends the `(reader thread, arrival
    /// time)` wakeups onto `wakes` instead of returning a fresh vector, so
    /// the per-publish hot path of the executors neither allocates nor
    /// hashes the topic.
    pub fn write_route_into(
        &mut self,
        now: Nanos,
        route: RouteId,
        rpc_target: Option<(Pid, CallbackId)>,
        extra_drop: f64,
        wakes: &mut Vec<(Pid, Nanos)>,
    ) -> SourceTimestamp {
        let src_ts = SourceTimestamp::new(self.next_src_ts);
        let seq = self.next_src_ts;
        self.next_src_ts += 1;
        let base_arrival = now + self.latency;
        // QoS degrades plain topics only; service traffic stays reliable.
        let Route { topic, readers } = &self.routes[route.0 as usize];
        let plain = !topic.is_service_request() && !topic.is_service_response();
        let best_effort = plain && self.qos.reorder_bound >= 1;
        // A topic without subscribers has an empty route: the write still
        // stamps a ts.
        for &ri in readers {
            let ri = ri as usize;
            let reader = &mut self.readers[ri];
            let mut drop_prob = extra_drop;
            if best_effort && self.qos.drop_prob > 0.0 {
                drop_prob = 1.0 - (1.0 - drop_prob) * (1.0 - self.qos.drop_prob);
            }
            if drop_prob > 0.0 && self.rng.gen_bool(drop_prob) {
                continue; // copy lost in transport: no sample, no wake
            }
            let mut arrival = base_arrival;
            if plain && self.qos.jitter > Nanos::ZERO {
                arrival += Nanos::from_nanos(self.rng.gen_range(0..=self.qos.jitter.as_nanos()));
            }
            let rank = if best_effort {
                seq + self.rng.gen_range(0..=self.qos.reorder_bound as u64)
            } else {
                seq
            };
            // Insert sorted by (rank, seq); seq strictly increases, so
            // scanning ranks from the back keeps the order stable.
            let q = &mut reader.queue;
            let was_empty = q.is_empty();
            let mut at = q.len();
            while at > 0 && q[at - 1].rank > rank {
                at -= 1;
            }
            q.insert(at, QueuedSample { rank, sample: Sample { src_ts, arrival, rpc_target } });
            if was_empty {
                let list = &mut self.ready[reader.slot];
                let pos = list.binary_search(&(ri as u32)).unwrap_err();
                list.insert(pos, ri as u32);
            }
            wakes.push((reader.pid, arrival));
        }
        src_ts
    }

    /// Pops the front sample of `reader` if it has arrived by `now`.
    /// Delivery follows queue order (post-reorder), each sample gated by
    /// its own arrival time.
    pub fn pop_due(&mut self, reader: ReaderId, now: Nanos) -> Option<Sample> {
        let r = &mut self.readers[reader.0];
        match r.queue.front() {
            Some(front) if front.sample.arrival <= now => {
                let sample = r.queue.pop_front().map(|q| q.sample);
                if r.queue.is_empty() {
                    let list = &mut self.ready[r.slot];
                    let pos = list.binary_search(&(reader.0 as u32)).expect("drained reader listed");
                    list.remove(pos);
                }
                sample
            }
            _ => None,
        }
    }

    /// The lowest-id reader owned by `pid` currently holding at least one
    /// sample (arrived or still in flight), restricted to ids strictly
    /// greater than `after`.
    ///
    /// Reader ids are handed out in registration order, so for an executor
    /// whose readers were registered in callback order this walks due work
    /// in exactly the order a full callback scan would visit it — without
    /// touching the (typically empty) rest.
    pub fn next_ready_reader(&self, pid: Pid, after: Option<ReaderId>) -> Option<ReaderId> {
        let slot = *self.pid_slots.get(&pid)?;
        let list = &self.ready[slot];
        let start = match after {
            None => 0,
            Some(r) => match list.binary_search(&(r.0 as u32)) {
                Ok(pos) => pos + 1,
                Err(pos) => pos,
            },
        };
        list.get(start).map(|&r| ReaderId(r as usize))
    }

    /// The ready-list slot assigned to `pid`, if any reader was ever
    /// registered under it. Slots are assigned at reader creation and
    /// never move, so an executor may cache the result across polls —
    /// and skip the reader walk entirely for a node with no readers.
    pub fn pid_slot(&self, pid: Pid) -> Option<usize> {
        self.pid_slots.get(&pid).copied()
    }

    /// One slot-addressed polling step: the next ready reader strictly
    /// after `after`, paired with whether its front sample has arrived by
    /// `now`. Combines [`DdsDomain::next_ready_reader`] and
    /// [`DdsDomain::has_due`] so the executor's hot loop pays one domain
    /// borrow per visited reader instead of two.
    pub fn next_ready_due_at(
        &self,
        slot: usize,
        after: Option<ReaderId>,
        now: Nanos,
    ) -> Option<(ReaderId, bool)> {
        let list = &self.ready[slot];
        let start = match after {
            None => 0,
            Some(r) => match list.binary_search(&(r.0 as u32)) {
                Ok(pos) => pos + 1,
                Err(pos) => pos,
            },
        };
        let rid = ReaderId(*list.get(start)? as usize);
        Some((rid, self.has_due(rid, now)))
    }

    /// Whether `reader`'s front sample has arrived by `now`.
    pub fn has_due(&self, reader: ReaderId, now: Nanos) -> bool {
        self.readers[reader.0]
            .queue
            .front()
            .is_some_and(|s| s.sample.arrival <= now)
    }

    /// Arrival time of `reader`'s front sample, if any.
    pub fn next_arrival(&self, reader: ReaderId) -> Option<Nanos> {
        self.readers[reader.0].queue.front().map(|s| s.sample.arrival)
    }

    /// Current depth of a reader queue (including undelivered samples).
    pub fn queue_depth(&self, reader: ReaderId) -> usize {
        self.readers[reader.0].queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> DdsDomain {
        DdsDomain::new(Nanos::from_micros(100))
    }

    #[test]
    fn fan_out_to_all_readers() {
        let mut dds = domain();
        let r1 = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        let r2 = dds.create_reader(Pid::new(2), Topic::plain("/t"));
        let r3 = dds.create_reader(Pid::new(3), Topic::plain("/other"));
        let (_, wakes) = dds.write(Nanos::ZERO, Topic::plain("/t"), None);
        assert_eq!(wakes.len(), 2);
        let t = Nanos::from_micros(100);
        assert!(dds.pop_due(r1, t).is_some());
        assert!(dds.pop_due(r2, t).is_some());
        assert!(dds.pop_due(r3, t).is_none());
    }

    #[test]
    fn route_resolved_before_its_readers_reaches_them() {
        let mut dds = domain();
        let route = dds.route(&Topic::plain("/t"));
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        assert_eq!(dds.route(&Topic::plain("/t")), route);
        assert_eq!(dds.topic(route), &Topic::plain("/t"));
        let mut wakes = Vec::new();
        dds.write_route_into(Nanos::ZERO, route, None, 0.0, &mut wakes);
        assert_eq!(wakes, vec![(Pid::new(1), Nanos::from_micros(100))]);
        assert_eq!(dds.queue_depth(r), 1);
    }

    #[test]
    fn src_ts_unique_and_increasing() {
        let mut dds = domain();
        let (a, _) = dds.write(Nanos::ZERO, Topic::plain("/t"), None);
        let (b, _) = dds.write(Nanos::ZERO, Topic::plain("/t"), None);
        assert!(b > a);
    }

    #[test]
    fn fifo_per_reader() {
        let mut dds = domain();
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        let (a, _) = dds.write(Nanos::from_nanos(0), Topic::plain("/t"), None);
        let (b, _) = dds.write(Nanos::from_nanos(1), Topic::plain("/t"), None);
        let t = Nanos::from_millis(1);
        assert_eq!(dds.pop_due(r, t).expect("first").src_ts, a);
        assert_eq!(dds.pop_due(r, t).expect("second").src_ts, b);
    }

    #[test]
    fn latency_gates_visibility() {
        let mut dds = domain();
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        dds.write(Nanos::from_micros(10), Topic::plain("/t"), None);
        assert!(!dds.has_due(r, Nanos::from_micros(10)));
        assert!(dds.has_due(r, Nanos::from_micros(110)));
        assert_eq!(dds.next_arrival(r), Some(Nanos::from_micros(110)));
    }

    #[test]
    fn topic_kind_distinguishes_service_topics() {
        // A plain topic named like a request topic must not match the
        // service request reader.
        let mut dds = domain();
        let r = dds.create_reader(Pid::new(1), Topic::service_request("/sv"));
        dds.write(Nanos::ZERO, Topic::plain("/svRequest"), None);
        assert_eq!(dds.queue_depth(r), 0);
        dds.write(Nanos::ZERO, Topic::service_request("/sv"), Some((Pid::new(9), CallbackId::new(1))));
        assert_eq!(dds.queue_depth(r), 1);
    }

    #[test]
    fn rpc_target_carried() {
        let mut dds = domain();
        let r = dds.create_reader(Pid::new(1), Topic::service_response("/sv"));
        dds.write(
            Nanos::ZERO,
            Topic::service_response("/sv"),
            Some((Pid::new(42), CallbackId::new(7))),
        );
        let s = dds.pop_due(r, Nanos::from_secs(1)).expect("delivered");
        assert_eq!(s.rpc_target, Some((Pid::new(42), CallbackId::new(7))));
    }

    #[test]
    fn reliable_spec_is_default_and_detectable() {
        assert!(QosSpec::default().is_reliable());
        assert!(QosSpec::reliable().is_reliable());
        assert!(!QosSpec { drop_prob: 0.5, reorder_bound: 2, jitter: Nanos::ZERO }.is_reliable());
        assert_eq!(domain().qos(), QosSpec::reliable());
    }

    #[test]
    fn best_effort_drops_some_copies() {
        let qos = QosSpec { drop_prob: 0.5, reorder_bound: 1, jitter: Nanos::ZERO };
        let mut dds = DdsDomain::with_qos(Nanos::from_micros(100), qos, 7);
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        let mut delivered = 0;
        for i in 0..200 {
            dds.write(Nanos::from_micros(i), Topic::plain("/t"), None);
        }
        while dds.pop_due(r, Nanos::from_secs(1)).is_some() {
            delivered += 1;
        }
        assert!(delivered > 50 && delivered < 150, "delivered {delivered} of 200");
    }

    #[test]
    fn drops_do_not_touch_service_traffic() {
        let qos = QosSpec { drop_prob: 1.0, reorder_bound: 4, jitter: Nanos::from_millis(1) };
        let mut dds = DdsDomain::with_qos(Nanos::from_micros(100), qos, 3);
        let rq = dds.create_reader(Pid::new(1), Topic::service_request("/sv"));
        let rs = dds.create_reader(Pid::new(2), Topic::service_response("/sv"));
        for i in 0..10 {
            dds.write(Nanos::from_micros(i), Topic::service_request("/sv"), None);
            dds.write(Nanos::from_micros(i), Topic::service_response("/sv"), None);
        }
        assert_eq!(dds.queue_depth(rq), 10, "requests are reliable");
        assert_eq!(dds.queue_depth(rs), 10, "responses are reliable");
        // Service arrivals carry no jitter either.
        assert_eq!(dds.next_arrival(rq), Some(Nanos::from_micros(100)));
    }

    #[test]
    fn extra_drop_applies_on_reliable_spec() {
        let mut dds = domain();
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        for i in 0..100 {
            dds.write_lossy(Nanos::from_micros(i), Topic::plain("/t"), None, 0.7);
        }
        let depth = dds.queue_depth(r);
        assert!(depth < 70, "fault drops must thin the queue: {depth} of 100 kept");
        assert!(depth > 0, "some copies should survive");
    }

    #[test]
    fn reorder_respects_bound() {
        let bound = 3usize;
        let qos = QosSpec { drop_prob: 0.0, reorder_bound: bound, jitter: Nanos::ZERO };
        let mut dds = DdsDomain::with_qos(Nanos::from_micros(1), qos, 11);
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        let mut written = Vec::new();
        for i in 0..500 {
            let (ts, _) = dds.write(Nanos::from_nanos(i), Topic::plain("/t"), None);
            written.push(ts);
        }
        let mut delivered = Vec::new();
        while let Some(s) = dds.pop_due(r, Nanos::from_secs(1)) {
            delivered.push(s.src_ts);
        }
        assert_eq!(delivered.len(), written.len());
        let mut reordered = 0usize;
        for (i, ts) in delivered.iter().enumerate() {
            let overtakers =
                delivered[..i].iter().filter(|earlier| *earlier > ts).count();
            assert!(overtakers <= bound, "sample overtaken by {overtakers} > bound {bound}");
            if overtakers > 0 {
                reordered += 1;
            }
        }
        assert!(reordered > 0, "a 500-sample run should reorder something");
    }

    #[test]
    fn jitter_delays_but_preserves_queue_order_gating() {
        let qos =
            QosSpec { drop_prob: 0.0, reorder_bound: 0, jitter: Nanos::from_micros(50) };
        let mut dds = DdsDomain::with_qos(Nanos::from_micros(100), qos, 5);
        let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
        let (_, wakes) = dds.write(Nanos::ZERO, Topic::plain("/t"), None);
        let arrival = wakes[0].1;
        assert!(arrival >= Nanos::from_micros(100) && arrival <= Nanos::from_micros(150));
        assert!(!dds.has_due(r, Nanos::from_micros(99)));
        assert!(dds.has_due(r, arrival));
    }

    #[test]
    fn seeded_qos_is_deterministic() {
        let qos = QosSpec {
            drop_prob: 0.3,
            reorder_bound: 2,
            jitter: Nanos::from_micros(20),
        };
        let run = || {
            let mut dds = DdsDomain::with_qos(Nanos::from_micros(100), qos, 42);
            let r = dds.create_reader(Pid::new(1), Topic::plain("/t"));
            for i in 0..100 {
                dds.write(Nanos::from_micros(i), Topic::plain("/t"), None);
            }
            let mut out = Vec::new();
            while let Some(s) = dds.pop_due(r, Nanos::from_secs(1)) {
                out.push((s.src_ts, s.arrival));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
