//! Callback records and the `CBlist` of Algorithm 1.

use crate::stats::ExecStats;
use rtms_trace::{CallbackId, CallbackKind, Nanos, Pid};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One callback entry of a node's `CBlist` — the architectural and timing
/// attributes Algorithm 1 extracts.
///
/// Topic names here are *decorated*: a service request topic carries the
/// caller callback's identity (`/sv3Request#cb:0x2a`) and a response topic
/// the client callback's, which is what splits a multi-caller service into
/// per-caller entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallbackRecord {
    /// The node (executor thread) the callback belongs to.
    pub pid: Pid,
    /// The callback's runtime identity.
    pub id: CallbackId,
    /// Timer / subscriber / service / client.
    pub kind: CallbackKind,
    /// Decorated subscribed topic, if any (timers have none). Shared with
    /// the originating [`rtms_trace::Topic`] when undecorated — extraction
    /// never copies a plain topic name.
    pub in_topic: Option<Arc<str>>,
    /// Decorated published topics, in first-seen order, deduplicated.
    /// Plain names are shared, not copied, like `in_topic`.
    pub out_topics: Vec<Arc<str>>,
    /// Whether the callback feeds a `message_filters` synchronizer (P7).
    pub is_sync_subscriber: bool,
    /// Measured execution-time statistics across instances.
    pub stats: ExecStats,
    /// Statistics over the gaps between consecutive instance starts (the
    /// period estimate of timer callbacks, per Sec. IV).
    pub period: ExecStats,
    /// Start times of the first and the last instance, `None` before any
    /// start is recorded. The last start is what the next instance's gap
    /// is measured from.
    pub starts: Option<(Nanos, Nanos)>,
}

impl CallbackRecord {
    /// Whether `other` denotes the same callback entry under the matching
    /// rule of Sec. IV: the ID for all callbacks except services; for a
    /// service, both the ID and the (decorated) subscribed topic — so the
    /// same service invoked by different callers yields different entries.
    pub fn matches(&self, other: &CallbackRecord) -> bool {
        if self.pid != other.pid || self.kind != other.kind || self.id != other.id {
            return false;
        }
        match self.kind {
            CallbackKind::Service => self.in_topic == other.in_topic,
            _ => true,
        }
    }

    /// A record of one instance: execution time `exec`, started at
    /// `start`.
    #[allow(clippy::too_many_arguments)] // the parts of one instance
    pub fn instance(
        pid: Pid,
        id: CallbackId,
        kind: CallbackKind,
        in_topic: Option<Arc<str>>,
        out_topics: Vec<Arc<str>>,
        is_sync_subscriber: bool,
        exec: Nanos,
        start: Nanos,
    ) -> CallbackRecord {
        CallbackRecord {
            pid,
            id,
            kind,
            in_topic,
            out_topics,
            is_sync_subscriber,
            stats: ExecStats::from_samples([exec]),
            period: ExecStats::new(),
            starts: Some((start, start)),
        }
    }

    /// Folds one more instance, observed after every instance so far.
    pub fn push_instance(&mut self, exec: Nanos, start: Nanos) {
        self.stats.push(exec);
        self.starts = Some(match self.starts {
            Some((first, last)) => {
                self.period.push(start - last);
                (first, start)
            }
            None => (start, start),
        });
    }

    /// Folds the instances of `later`, all observed after this record's.
    /// Equal to pushing `later`'s instances one by one: the period gains
    /// `later`'s gaps plus the one gap between the two runs of starts.
    pub fn merge_instances(&mut self, later: &CallbackRecord) {
        self.stats.merge(&later.stats);
        self.period.merge(&later.period);
        self.starts = match (self.starts, later.starts) {
            (Some((first, last)), Some((next, end))) => {
                self.period.push(next - last);
                Some((first, end))
            }
            (mine, theirs) => mine.or(theirs),
        };
    }

    /// Estimated invocation period: the mean gap between consecutive start
    /// times (meaningful for timer callbacks, per Sec. IV), rounded down.
    pub fn estimated_period(&self) -> Option<Nanos> {
        if self.period.count() == 0 {
            return None;
        }
        Some(Nanos::from_nanos(self.period.sum() / self.period.count()))
    }
}

/// A node's callback list: the output of Algorithm 1.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CbList {
    entries: Vec<CallbackRecord>,
}

impl CbList {
    /// Creates an empty list.
    pub fn new() -> Self {
        CbList::default()
    }

    /// `CBlist.AddToCallback(CB)` of Algorithm 1 (line 31): folds a
    /// completed instance into the matching entry, or appends a new entry
    /// if none matches. Execution times and start gaps fold into the
    /// entry's fixed-size statistics; newly seen published topics extend
    /// the entry's topic list.
    pub fn add_instance(&mut self, instance: CallbackRecord) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.matches(&instance)) {
            for t in &instance.out_topics {
                if !entry.out_topics.contains(t) {
                    entry.out_topics.push(t.clone());
                }
            }
            entry.is_sync_subscriber |= instance.is_sync_subscriber;
            entry.merge_instances(&instance);
        } else {
            self.entries.push(instance);
        }
    }

    /// Folds one completed instance into the list from its parts — the
    /// allocation-lean twin of [`CbList::add_instance`] for the streaming
    /// hot path. When the matching entry already exists (the overwhelming
    /// case in a long run), the instance folds into the entry's statistics
    /// without touching the allocator, and `outs` is consumed as
    /// an iterator, merging its names without cloning or collecting them.
    /// Behaviour is identical to building [`CallbackRecord::instance`] and
    /// calling [`CbList::add_instance`].
    #[allow(clippy::too_many_arguments)] // the parts of one instance, hot path
    pub fn fold_instance(
        &mut self,
        pid: Pid,
        id: CallbackId,
        kind: CallbackKind,
        in_topic: Option<Arc<str>>,
        outs: impl IntoIterator<Item = Arc<str>>,
        sync: bool,
        exec: Nanos,
        start: Nanos,
    ) {
        let found = self.entries.iter_mut().find(|e| {
            e.pid == pid
                && e.kind == kind
                && e.id == id
                && (kind != CallbackKind::Service || e.in_topic == in_topic)
        });
        match found {
            Some(entry) => {
                for t in outs {
                    if !entry.out_topics.contains(&t) {
                        entry.out_topics.push(t);
                    }
                }
                entry.is_sync_subscriber |= sync;
                entry.push_instance(exec, start);
            }
            None => self.entries.push(CallbackRecord::instance(
                pid,
                id,
                kind,
                in_topic,
                outs.into_iter().collect(),
                sync,
                exec,
                start,
            )),
        }
    }

    /// The callback entries, in first-seen order.
    pub fn entries(&self) -> &[CallbackRecord] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds the entry for `id` (and, for services, the decorated input
    /// topic).
    pub fn find(&self, id: CallbackId, in_topic: Option<&str>) -> Option<&CallbackRecord> {
        self.entries
            .iter()
            .find(|e| e.id == id && (e.kind != CallbackKind::Service || e.in_topic.as_deref() == in_topic))
    }
}

impl FromIterator<CallbackRecord> for CbList {
    fn from_iter<T: IntoIterator<Item = CallbackRecord>>(iter: T) -> Self {
        let mut list = CbList::new();
        for r in iter {
            list.add_instance(r);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, kind: CallbackKind, in_topic: Option<&str>, et_ms: u64) -> CallbackRecord {
        CallbackRecord::instance(
            Pid::new(1),
            CallbackId::new(id),
            kind,
            in_topic.map(Arc::from),
            vec![],
            false,
            Nanos::from_millis(et_ms),
            Nanos::ZERO,
        )
    }

    #[test]
    fn instances_fold_into_one_entry() {
        let mut list = CbList::new();
        list.add_instance(rec(1, CallbackKind::Timer, None, 2));
        list.add_instance(rec(1, CallbackKind::Timer, None, 4));
        assert_eq!(list.len(), 1);
        let e = &list.entries()[0];
        assert_eq!(e.stats.count(), 2);
        assert_eq!(e.stats.mwcet(), Some(Nanos::from_millis(4)));
    }

    #[test]
    fn service_split_by_in_topic() {
        let mut list = CbList::new();
        list.add_instance(rec(9, CallbackKind::Service, Some("/svRequest#cb:0x1"), 2));
        list.add_instance(rec(9, CallbackKind::Service, Some("/svRequest#cb:0x2"), 3));
        list.add_instance(rec(9, CallbackKind::Service, Some("/svRequest#cb:0x1"), 5));
        assert_eq!(list.len(), 2, "one entry per caller");
        assert_eq!(list.find(CallbackId::new(9), Some("/svRequest#cb:0x1")).map(|e| e.stats.count()), Some(2));
    }

    #[test]
    fn non_service_ignores_in_topic_for_matching() {
        let mut list = CbList::new();
        let mut a = rec(5, CallbackKind::Subscriber, Some("/t"), 1);
        a.out_topics = vec!["/x".into()];
        let mut b = rec(5, CallbackKind::Subscriber, Some("/t"), 2);
        b.out_topics = vec!["/y".into()];
        list.add_instance(a);
        list.add_instance(b);
        assert_eq!(list.len(), 1);
        assert_eq!(list.entries()[0].out_topics, [Arc::from("/x"), Arc::from("/y")]);
    }

    #[test]
    fn period_estimation() {
        let mut r = rec(1, CallbackKind::Timer, None, 1);
        for ms in [100, 201, 299] {
            r.push_instance(Nanos::from_millis(1), Nanos::from_millis(ms));
        }
        let p = r.estimated_period().expect("period");
        assert!((p.as_millis_f64() - 99.67).abs() < 0.5, "period {p}");
        let single = rec(1, CallbackKind::Timer, None, 1);
        assert_eq!(single.estimated_period(), None);
    }

    #[test]
    fn sync_flag_is_sticky() {
        let mut list = CbList::new();
        let mut a = rec(5, CallbackKind::Subscriber, Some("/t"), 1);
        a.is_sync_subscriber = true;
        list.add_instance(a);
        list.add_instance(rec(5, CallbackKind::Subscriber, Some("/t"), 2));
        assert!(list.entries()[0].is_sync_subscriber);
    }

    #[test]
    fn fold_instance_equals_add_instance() {
        // The lean fold must produce byte-identical lists to the record
        // path, across entry creation, service splitting, out-topic
        // dedup, the sticky sync flag and the start gaps.
        type Sample<'a> = (u64, CallbackKind, Option<&'a str>, &'a [&'a str], bool, u64);
        let samples: [Sample<'_>; 6] = [
            (1, CallbackKind::Timer, None, &["/a"], false, 2),
            (1, CallbackKind::Timer, None, &["/a", "/b"], false, 4),
            (9, CallbackKind::Service, Some("/svRequest#cb:0x1"), &[], false, 1),
            (9, CallbackKind::Service, Some("/svRequest#cb:0x2"), &[], false, 3),
            (5, CallbackKind::Subscriber, Some("/t"), &[], true, 7),
            (5, CallbackKind::Subscriber, Some("/t"), &[], false, 9),
        ];
        let mut via_records = CbList::new();
        let mut via_fold = CbList::new();
        for (i, (id, kind, in_topic, outs, sync, ms)) in samples.into_iter().enumerate() {
            let start = Nanos::from_millis(10 * i as u64);
            via_records.add_instance(CallbackRecord::instance(
                Pid::new(1),
                CallbackId::new(id),
                kind,
                in_topic.map(Arc::from),
                outs.iter().map(|s| Arc::from(*s)).collect(),
                sync,
                Nanos::from_millis(ms),
                start,
            ));
            via_fold.fold_instance(
                Pid::new(1),
                CallbackId::new(id),
                kind,
                in_topic.map(Arc::from),
                outs.iter().map(|s| Arc::from(*s)),
                sync,
                Nanos::from_millis(ms),
                start,
            );
        }
        assert_eq!(via_records, via_fold);
        assert_eq!(via_fold.entries()[0].period, ExecStats::from_samples([Nanos::from_millis(10)]));
    }

    #[test]
    fn merged_instances_equal_pushing_them_in_order() {
        let starts = [0, 100, 201, 299, 400].map(Nanos::from_millis);
        // The record of instances `range`, pushed one by one.
        let record = |range: std::ops::Range<usize>| {
            let exec = |i: usize| Nanos::from_millis(i as u64 + 1);
            let mut r = CallbackRecord::instance(
                Pid::new(1),
                CallbackId::new(1),
                CallbackKind::Timer,
                None,
                vec![],
                false,
                exec(range.start),
                starts[range.start],
            );
            for (i, &start) in starts.iter().enumerate().take(range.end).skip(range.start + 1) {
                r.push_instance(exec(i), start);
            }
            r
        };
        let pushed = record(0..starts.len());
        for cut in 1..starts.len() {
            let mut head = record(0..cut);
            head.merge_instances(&record(cut..starts.len()));
            assert_eq!(head, pushed, "cut at {cut}");
        }
        // Records without starts contribute statistics only.
        let mut bare = pushed.clone();
        bare.starts = None;
        bare.period = ExecStats::new();
        let mut merged = pushed.clone();
        merged.merge_instances(&bare);
        assert_eq!((merged.period, merged.starts), (pushed.period.clone(), pushed.starts));
        bare.merge_instances(&pushed);
        assert_eq!((bare.period, bare.starts), (pushed.period, pushed.starts));
    }

    #[test]
    fn from_iterator_collects() {
        let list: CbList =
            [rec(1, CallbackKind::Timer, None, 1), rec(2, CallbackKind::Timer, None, 2)]
                .into_iter()
                .collect();
        assert_eq!(list.len(), 2);
    }
}
