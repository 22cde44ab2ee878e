//! Property-based tests of the synthesis algorithms.

use proptest::prelude::*;
use rtms_core::{execution_time, merge_dags, CallbackRecord, CbList, Dag, ExecStats};
use rtms_trace::{
    CallbackId, CallbackKind, Cpu, Nanos, Pid, Priority, SchedEvent, ThreadState,
};
use std::collections::HashMap;

const T: Pid = Pid::new(7);
const OTHER: Pid = Pid::new(8);

/// Generates an alternating on/off schedule for thread T as strictly
/// increasing gap lengths, returning the sched stream and the segments
/// during which T runs.
fn schedule_from_gaps(gaps: &[u64], start_running: bool) -> (Vec<SchedEvent>, Vec<(u64, u64)>) {
    let mut events = Vec::new();
    let mut segments = Vec::new();
    let mut t = 0u64;
    let mut running = start_running;
    let mut seg_start = if running { Some(0) } else { None };
    for &g in gaps {
        t += g;
        let (prev, next) = if running { (T, OTHER) } else { (OTHER, T) };
        events.push(SchedEvent::switch(
            Nanos::from_nanos(t),
            Cpu::new(0),
            prev,
            Priority::NORMAL,
            ThreadState::Runnable,
            next,
            Priority::NORMAL,
        ));
        if running {
            segments.push((seg_start.take().expect("open segment"), t));
        } else {
            seg_start = Some(t);
        }
        running = !running;
    }
    if let Some(s) = seg_start {
        segments.push((s, u64::MAX));
    }
    (events, segments)
}

/// Brute-force reference: overlap of [start, end] with T's run segments.
fn reference_exec(start: u64, end: u64, segments: &[(u64, u64)]) -> u64 {
    segments
        .iter()
        .map(|&(s, e)| {
            let lo = s.max(start);
            let hi = e.min(end);
            hi.saturating_sub(lo)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 2 equals an interval-overlap computation for any
    /// alternating schedule, provided the window starts inside a running
    /// segment (the algorithm's precondition: the CB-start event is
    /// generated while T runs).
    #[test]
    fn alg2_equals_interval_overlap(
        gaps in proptest::collection::vec(2u64..1_000, 1..30),
        start_off in 0u64..200,
        end_seg_sel in 0usize..30,
        end_off in 0u64..200,
    ) {
        let (events, segments) = schedule_from_gaps(&gaps, true);
        // The window must start and end while T is running (the CB start
        // and end events are emitted by the running thread), strictly
        // inside the segments so no boundary coincides with a switch.
        let (s0, e0) = segments[0];
        let start = s0 + start_off % (e0 - s0);
        let (es, ee) = segments[end_seg_sel % segments.len()];
        let ee = ee.min(es + 10_000); // tame the trailing open segment
        let end = (es + end_off % (ee - es).max(1)).max(start);
        let measured = execution_time(
            Nanos::from_nanos(start),
            Nanos::from_nanos(end),
            T,
            &events,
        );
        let expected = reference_exec(start, end, &segments);
        prop_assert_eq!(measured.as_nanos(), expected);
    }

    /// ExecStats merging is associative and order-independent, and always
    /// equals pooled statistics.
    #[test]
    fn exec_stats_merge_equals_pooled(
        samples in proptest::collection::vec(1u64..10_000_000, 1..50),
        split_at in 0usize..50,
    ) {
        let split = split_at.min(samples.len());
        let pooled = ExecStats::from_samples(samples.iter().map(|&n| Nanos::from_nanos(n)));
        let mut a = ExecStats::from_samples(samples[..split].iter().map(|&n| Nanos::from_nanos(n)));
        let b = ExecStats::from_samples(samples[split..].iter().map(|&n| Nanos::from_nanos(n)));
        a.merge(&b);
        prop_assert_eq!(a, pooled);
    }

    /// Merging the same DAG repeatedly never grows the structure, and
    /// mWCET/mBCET stay fixed while counts scale.
    #[test]
    fn dag_self_merge_structure_fixed(n_cbs in 1usize..8, reps in 1usize..5) {
        let mut list = CbList::new();
        for i in 0..n_cbs {
            list.add_instance(CallbackRecord {
                pid: Pid::new(1),
                id: CallbackId::new(i as u64 + 1),
                kind: CallbackKind::Subscriber,
                in_topic: Some(format!("/in{i}").into()),
                out_topics: vec![format!("/out{i}").into()],
                is_sync_subscriber: false,
                stats: ExecStats::from_samples([Nanos::from_millis(i as u64 + 1)]),
                period: ExecStats::new(),
                starts: Some((Nanos::ZERO, Nanos::ZERO)),
            });
        }
        let names: HashMap<Pid, String> = [(Pid::new(1), "n".to_string())].into();
        let base = Dag::from_cblists(&[(Pid::new(1), list)], &names);
        let merged = merge_dags(std::iter::repeat_n(base.clone(), reps));
        prop_assert_eq!(merged.vertices().len(), base.vertices().len());
        prop_assert_eq!(merged.edges().len(), base.edges().len());
        for (m, b) in merged.vertices().iter().zip(base.vertices()) {
            prop_assert_eq!(m.stats.count(), b.stats.count() * reps as u64);
            prop_assert_eq!(m.stats.mwcet(), b.stats.mwcet());
            prop_assert_eq!(m.stats.mbcet(), b.stats.mbcet());
        }
    }

    /// Merge order does not affect the final statistics.
    #[test]
    fn dag_merge_is_commutative_on_stats(ets in proptest::collection::vec(1u64..1_000, 2..10)) {
        let names: HashMap<Pid, String> = [(Pid::new(1), "n".to_string())].into();
        let mk = |et: u64| {
            let rec = CallbackRecord {
                pid: Pid::new(1),
                id: CallbackId::new(1),
                kind: CallbackKind::Timer,
                in_topic: None,
                out_topics: vec!["/a".into()],
                is_sync_subscriber: false,
                stats: ExecStats::from_samples([Nanos::from_millis(et)]),
                period: ExecStats::new(),
                starts: Some((Nanos::ZERO, Nanos::ZERO)),
            };
            let list: CbList = [rec].into_iter().collect();
            Dag::from_cblists(&[(Pid::new(1), list)], &names)
        };
        let dags: Vec<Dag> = ets.iter().map(|&e| mk(e)).collect();
        let forward = merge_dags(dags.clone());
        let backward = merge_dags(dags.into_iter().rev());
        prop_assert_eq!(forward.vertices()[0].stats.clone(), backward.vertices()[0].stats.clone());
    }

    /// CbList folding: statistics equal pooling all instances regardless
    /// of arrival order.
    #[test]
    fn cblist_fold_order_independent(ets in proptest::collection::vec(1u64..10_000, 1..30)) {
        let mk = |et: u64| CallbackRecord {
            pid: Pid::new(1),
            id: CallbackId::new(9),
            kind: CallbackKind::Subscriber,
            in_topic: Some("/t".into()),
            out_topics: vec![],
            is_sync_subscriber: false,
            stats: ExecStats::from_samples([Nanos::from_nanos(et)]),
            period: ExecStats::new(),
            starts: Some((Nanos::ZERO, Nanos::ZERO)),
        };
        let fwd: CbList = ets.iter().map(|&e| mk(e)).collect();
        let rev: CbList = ets.iter().rev().map(|&e| mk(e)).collect();
        prop_assert_eq!(fwd.len(), 1);
        prop_assert_eq!(rev.len(), 1);
        prop_assert_eq!(fwd.entries()[0].stats.clone(), rev.entries()[0].stats.clone());
    }
}
