//! Multi-mode timing models (Fig. 2, processing option (iv)).
//!
//! When traces are collected per operating scenario — city driving,
//! highway driving, parking — merging them per mode yields one DAG per
//! mode: a multi-mode model in which both structure (callbacks active in
//! the mode) and timing attributes are mode-specific.

use crate::dag::Dag;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A timing model with one DAG per operating mode.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultiModeDag {
    modes: BTreeMap<String, Dag>,
}

impl MultiModeDag {
    /// Creates an empty multi-mode model.
    pub fn new() -> Self {
        MultiModeDag::default()
    }

    /// Merges a per-run model into the given mode's DAG.
    pub fn merge_into_mode(&mut self, mode: impl Into<String>, dag: &Dag) {
        self.modes.entry(mode.into()).or_default().merge(dag);
    }

    /// The model of one mode.
    pub fn mode(&self, mode: &str) -> Option<&Dag> {
        self.modes.get(mode)
    }

    /// All mode names, sorted.
    pub fn modes(&self) -> impl Iterator<Item = &str> {
        self.modes.keys().map(String::as_str)
    }

    /// Number of modes.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Whether no mode has been added.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Collapses all modes into a single mode-agnostic DAG (vertices and
    /// edges unioned, statistics pooled).
    pub fn collapsed(&self) -> Dag {
        let mut acc = Dag::new();
        for dag in self.modes.values() {
            acc.merge(dag);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cblist::{CallbackRecord, CbList};
    use crate::stats::ExecStats;
    use rtms_trace::{CallbackId, CallbackKind, Nanos, Pid};
    use std::collections::HashMap;

    fn dag_with_timer(out: &str, et_ms: u64) -> Dag {
        let rec = CallbackRecord {
            pid: Pid::new(1),
            id: CallbackId::new(1),
            kind: CallbackKind::Timer,
            in_topic: None,
            out_topics: vec![out.into()],
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
    fn per_mode_models_are_independent() {
        let mut mm = MultiModeDag::new();
        mm.merge_into_mode("city", &dag_with_timer("/a", 10));
        mm.merge_into_mode("highway", &dag_with_timer("/a", 3));
        mm.merge_into_mode("city", &dag_with_timer("/a", 12));

        assert_eq!(mm.len(), 2);
        assert_eq!(mm.modes().collect::<Vec<_>>(), vec!["city", "highway"]);
        let city = mm.mode("city").expect("city mode");
        assert_eq!(city.vertices()[0].stats.count(), 2);
        assert_eq!(city.vertices()[0].stats.mwcet(), Some(Nanos::from_millis(12)));
        let highway = mm.mode("highway").expect("highway mode");
        assert_eq!(highway.vertices()[0].stats.mwcet(), Some(Nanos::from_millis(3)));
        assert_eq!(mm.mode("offroad"), None);
    }

    #[test]
    fn collapsed_pools_everything() {
        let mut mm = MultiModeDag::new();
        mm.merge_into_mode("city", &dag_with_timer("/a", 10));
        mm.merge_into_mode("highway", &dag_with_timer("/a", 3));
        let all = mm.collapsed();
        assert_eq!(all.vertices().len(), 1);
        assert_eq!(all.vertices()[0].stats.count(), 2);
        assert_eq!(all.vertices()[0].stats.mbcet(), Some(Nanos::from_millis(3)));
    }

    #[test]
    fn mode_specific_structure() {
        // A callback only active in city mode appears only there.
        let mut mm = MultiModeDag::new();
        mm.merge_into_mode("city", &dag_with_timer("/city_only", 1));
        mm.merge_into_mode("highway", &dag_with_timer("/hw_only", 1));
        assert!(mm.mode("city").expect("city").vertices()[0]
            .out_topics
            .contains(&"/city_only".into()));
        assert!(mm.mode("highway").expect("highway").vertices()[0]
            .out_topics
            .contains(&"/hw_only".into()));
        assert_eq!(mm.collapsed().vertices().len(), 2, "different keys stay distinct");
    }
}
