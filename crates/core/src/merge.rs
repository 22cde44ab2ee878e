//! Model merging across runs and convergence studies.

use crate::dag::Dag;
use rtms_trace::Nanos;

/// Merges many per-run models into one (the "merge DAGs" path of Fig. 2 —
/// the processing option the paper uses for its experiments).
///
/// # Example
///
/// ```
/// use rtms_core::{merge_dags, Dag};
///
/// let merged = merge_dags([Dag::new(), Dag::new()]);
/// assert!(merged.vertices().is_empty());
/// ```
pub fn merge_dags<I: IntoIterator<Item = Dag>>(dags: I) -> Dag {
    let mut iter = dags.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for d in iter {
        acc.merge(&d);
    }
    acc
}

/// [`merge_dags`] over borrowed models — merges a slice (or any other
/// borrowing iterator) of per-run DAGs without consuming or cloning them,
/// so callers can keep the per-run models for convergence studies after
/// merging.
///
/// # Example
///
/// ```
/// use rtms_core::{merge_dag_refs, Dag};
///
/// let runs = vec![Dag::new(), Dag::new()];
/// let merged = merge_dag_refs(&runs);
/// assert!(merged.vertices().is_empty());
/// assert_eq!(runs.len(), 2); // still available
/// ```
pub fn merge_dag_refs<'a, I: IntoIterator<Item = &'a Dag>>(dags: I) -> Dag {
    let mut iter = dags.into_iter();
    let mut acc = iter.next().cloned().unwrap_or_default();
    for d in iter {
        acc.merge(d);
    }
    acc
}

/// The evolution of a callback's measured timing attributes as more runs
/// are merged — the data behind Fig. 4 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSeries {
    /// The merge key of the tracked vertex.
    pub key: String,
    /// `(runs merged, mBCET, mACET, mWCET)` after each additional run.
    pub points: Vec<(usize, Nanos, Nanos, Nanos)>,
}

impl ConvergenceSeries {
    /// Tracks how the timing estimates of the vertex identified by
    /// `merge_key` evolve while merging `dags` one run at a time.
    ///
    /// Runs in which the vertex does not appear keep the previous
    /// estimates (no new samples).
    pub fn track<'a, I>(merge_key: &str, dags: I) -> ConvergenceSeries
    where
        I: IntoIterator<Item = &'a Dag>,
    {
        let mut acc = Dag::new();
        let mut points = Vec::new();
        for (i, d) in dags.into_iter().enumerate() {
            acc.merge(d);
            if let Some(v) = acc.vertices().iter().find(|v| v.merge_key() == merge_key) {
                if let (Some(b), Some(a), Some(w)) =
                    (v.stats.mbcet(), v.stats.macet(), v.stats.mwcet())
                {
                    points.push((i + 1, b, a, w));
                }
            }
        }
        ConvergenceSeries { key: merge_key.to_string(), points }
    }

    /// The run index (1-based) after which the mWCET estimate stops
    /// changing, if it ever stabilizes.
    pub fn mwcet_stabilizes_at(&self) -> Option<usize> {
        let (_, _, _, last) = *self.points.last()?;
        self.points
            .iter()
            .find(|(_, _, _, w)| *w == last)
            .map(|(run, _, _, _)| *run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cblist::{CallbackRecord, CbList};
    use crate::stats::ExecStats;
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    fn one_run_dag(et_ms: u64) -> Dag {
        let rec = CallbackRecord {
            pid: Pid::new(1),
            id: CallbackId::new(1),
            kind: CallbackKind::Timer,
            in_topic: None,
            out_topics: vec!["/a".into()],
            is_sync_subscriber: false,
            stats: ExecStats::from_samples([Nanos::from_millis(et_ms)]),
            period: ExecStats::new(),
            starts: Some((Nanos::ZERO, Nanos::ZERO)),
        };
        let list: CbList = [rec].into_iter().collect();
        let names: HashMap<Pid, String> = [(Pid::new(1), "n".to_string())].into();
        Dag::from_cblists(&[(Pid::new(1), list)], &names)
    }

    #[test]
    fn merge_many() {
        let merged = merge_dags([one_run_dag(2), one_run_dag(5), one_run_dag(3)]);
        assert_eq!(merged.vertices().len(), 1);
        let v = &merged.vertices()[0];
        assert_eq!(v.stats.count(), 3);
        assert_eq!(v.stats.mbcet(), Some(Nanos::from_millis(2)));
        assert_eq!(v.stats.mwcet(), Some(Nanos::from_millis(5)));
    }

    #[test]
    fn convergence_series_monotone() {
        let dags: Vec<Dag> = [3u64, 4, 4, 7, 5, 6].iter().map(|&e| one_run_dag(e)).collect();
        let key = dags[0].vertices()[0].merge_key();
        let series = ConvergenceSeries::track(&key, &dags);
        assert_eq!(series.points.len(), 6);
        // mWCET never decreases, mBCET never increases.
        for w in series.points.windows(2) {
            assert!(w[1].3 >= w[0].3, "mWCET must be non-decreasing");
            assert!(w[1].1 <= w[0].1, "mBCET must be non-increasing");
        }
        // The maximum (7 ms) is first seen after run 4 and never changes.
        assert_eq!(series.mwcet_stabilizes_at(), Some(4));
    }

    #[test]
    fn unknown_key_yields_empty_series() {
        let dags = [one_run_dag(1)];
        let series = ConvergenceSeries::track("nope", dags.iter());
        assert!(series.points.is_empty());
        assert_eq!(series.mwcet_stabilizes_at(), None);
    }
}
