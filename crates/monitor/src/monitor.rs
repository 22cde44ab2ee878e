//! The online drift monitor.

use crate::alert::{Alert, AlertKind, Severity};
use crate::baseline::{Baseline, CallbackEnvelope};
use crate::reference::{Reference, WindowKeys};
use rtms_core::{Dag, DagVertex, ModelDiff, TopologyEdge, VertexId, VertexKind};
use rtms_trace::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// Detection thresholds of a [`Monitor`].
///
/// Every timing bound is *spread-aware*: it widens with the baseline's own
/// observed variation (`mwcet - mbcet`, `period_max - period_min`), so a
/// callback with naturally noisy execution times gets proportionally more
/// slack and a healthy application stays silent even when the baseline was
/// captured from a modest number of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Relative tolerance on the baseline mean execution time: a window
    /// mean beyond `macet * (1 + exec_tolerance) + spread + exec_slack`
    /// raises [`AlertKind::ExecDrift`].
    pub exec_tolerance: f64,
    /// Multiplier on the baseline execution-time spread (`mwcet - mbcet`)
    /// added to the drift bound.
    pub exec_range_mult: f64,
    /// Absolute slack added to the execution-time drift bound.
    pub exec_slack: Nanos,
    /// Callbacks with fewer baseline samples than this are not judged for
    /// execution-time drift (a thin envelope is not evidence).
    pub min_baseline_samples: u64,
    /// Windows with fewer samples of a callback than this are not judged
    /// for execution-time drift.
    pub min_window_samples: u64,
    /// Relative tolerance on the baseline mean period.
    pub period_tolerance: f64,
    /// Absolute slack added to the period drift bound.
    pub period_slack: Nanos,
    /// Callbacks with fewer baseline start gaps than this are not judged
    /// for period drift.
    pub min_baseline_periods: u64,
    /// Per-node processor load (fraction of one core) above which a
    /// [`AlertKind::LoadSpike`] is raised.
    pub load_threshold: f64,
    /// A subscriber observing fewer than `loss_threshold` times the
    /// instances its baseline arrival rate predicts for the window raises
    /// [`AlertKind::MessageLoss`]. Kept below 0.5 so a merely *stuttering*
    /// upstream (periods stretched 2x, handled by period supervision)
    /// does not double-report as loss.
    pub loss_threshold: f64,
    /// Windows where the baseline rate predicts fewer subscriber
    /// instances than this are not judged for message loss (too few
    /// arrivals for a rate to be evidence).
    pub min_expected_messages: u64,
    /// Number of *consecutive* windows an element must be missing before a
    /// [`AlertKind::TopologyChange`] reports it. Guards against a callback
    /// instance straddling a window boundary; appearing elements are
    /// reported immediately.
    pub missing_persistence: usize,
    /// Upper bound on retained episode-tracking entries (streak counters
    /// plus reported-element sets, summed across all six collections).
    /// Episode state is naturally bounded by the diff between reference
    /// and snapshot topologies, but a fleet holding thousands of
    /// monitors needs that bound *enforced*, not assumed: past the cap
    /// the monitor deterministically evicts the lexicographically last
    /// entries of the largest collection. An evicted episode can
    /// re-report if the condition persists — bounded memory is bought
    /// with (at worst) duplicate alerts, never with missed ones.
    pub max_retained_episodes: usize,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            exec_tolerance: 1.0,
            exec_range_mult: 1.0,
            exec_slack: Nanos::from_micros(200),
            min_baseline_samples: 10,
            min_window_samples: 3,
            period_tolerance: 0.5,
            period_slack: Nanos::from_millis(5),
            min_baseline_periods: 5,
            load_threshold: 0.85,
            loss_threshold: 0.45,
            min_expected_messages: 6,
            missing_persistence: 2,
            max_retained_episodes: 1024,
        }
    }
}

/// Watches a stream of model snapshots for drift against a healthy
/// [`Baseline`].
///
/// Feed one model per observation window (e.g. the model a fresh
/// [`rtms_core::SynthesisSession`] synthesizes from one trace segment) to
/// [`Monitor::observe`]; each call returns the window's alerts sorted by
/// descending severity. The monitor is stateful across windows: missing
/// topology elements must persist before they are reported, and every
/// topology episode is reported exactly once until it recovers.
#[derive(Debug, Clone)]
pub struct Monitor {
    baseline: Baseline,
    /// The sanitized baseline topology, interned: the reference side of
    /// every structural comparison.
    reference: Reference,
    /// The current window keyed against `reference` (reused scratch).
    keys: WindowKeys,
    config: MonitorConfig,
    segment: u64,
    /// Missing-element episode state, keyed by reference id. Ids follow
    /// key order, so the last id is the lexicographically last element.
    missing_vertex_streak: BTreeMap<u32, usize>,
    missing_edge_streak: BTreeMap<u32, usize>,
    reported_missing_vertices: BTreeSet<u32>,
    reported_missing_edges: BTreeSet<u32>,
    /// Added elements are not in the reference, so they keep their keys.
    reported_added_vertices: BTreeSet<String>,
    reported_added_edges: BTreeSet<TopologyEdge>,
    alerts_emitted: u64,
    /// High-water mark of episode entries *demanded* (measured before
    /// bound enforcement), mirroring
    /// [`rtms_core::SynthesisSession::peak_watermark`].
    peak_retained_episodes: usize,
}

impl Monitor {
    /// Creates a monitor with [`MonitorConfig::default`] thresholds.
    pub fn new(baseline: Baseline) -> Monitor {
        Monitor::with_config(baseline, MonitorConfig::default())
    }

    /// Creates a monitor with explicit thresholds.
    pub fn with_config(baseline: Baseline, config: MonitorConfig) -> Monitor {
        Monitor {
            reference: Reference::new(&baseline),
            keys: WindowKeys::default(),
            baseline,
            config,
            segment: 0,
            missing_vertex_streak: BTreeMap::new(),
            missing_edge_streak: BTreeMap::new(),
            reported_missing_vertices: BTreeSet::new(),
            reported_missing_edges: BTreeSet::new(),
            reported_added_vertices: BTreeSet::new(),
            reported_added_edges: BTreeSet::new(),
            alerts_emitted: 0,
            peak_retained_episodes: 0,
        }
    }

    /// The healthy reference this monitor compares against.
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// The active thresholds.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Number of snapshots observed so far.
    pub fn segments_observed(&self) -> u64 {
        self.segment
    }

    /// Total alerts emitted so far.
    pub fn alerts_emitted(&self) -> u64 {
        self.alerts_emitted
    }

    /// Episode-tracking entries currently retained (streak counters plus
    /// reported-element sets). Always at most
    /// [`MonitorConfig::max_retained_episodes`] after an
    /// [`Monitor::observe`] returns.
    pub fn retained_episodes(&self) -> usize {
        self.missing_vertex_streak.len()
            + self.missing_edge_streak.len()
            + self.reported_missing_vertices.len()
            + self.reported_missing_edges.len()
            + self.reported_added_vertices.len()
            + self.reported_added_edges.len()
    }

    /// High-water mark of episode entries demanded across the monitor's
    /// lifetime, measured *before* bound enforcement — the number
    /// [`MonitorConfig::max_retained_episodes`] should be sized against,
    /// mirroring [`rtms_core::SynthesisSession::peak_watermark`].
    pub fn peak_retained_episodes(&self) -> usize {
        self.peak_retained_episodes
    }

    /// Feeds one window's model snapshot and returns its alerts, sorted by
    /// descending severity. `window` is the observation window the
    /// snapshot covers (used for processor-load accounting).
    pub fn observe(&mut self, snapshot: &Dag, window: Nanos) -> Vec<Alert> {
        let segment = self.segment;
        self.segment += 1;
        let mut alerts = Vec::new();

        self.reference.key_window(snapshot, &mut self.keys);
        if let Some(diff) = self.topology_episodes() {
            alerts.push(Alert {
                segment,
                severity: Severity::Critical,
                kind: AlertKind::TopologyChange { diff },
            });
        }
        self.timing_drift(snapshot, segment, &mut alerts);
        self.message_loss(snapshot, window, segment, &mut alerts);
        self.load_spikes(snapshot, window, segment, &mut alerts);

        self.peak_retained_episodes = self.peak_retained_episodes.max(self.retained_episodes());
        self.enforce_episode_bound();

        alerts.sort_by_key(|a| std::cmp::Reverse(a.severity));
        self.alerts_emitted += alerts.len() as u64;
        alerts
    }

    /// Evicts episode entries until the total is within
    /// [`MonitorConfig::max_retained_episodes`]: always from the largest
    /// collection (fixed tie-break order), always its lexicographically
    /// last entry — deterministic for any alert history.
    fn enforce_episode_bound(&mut self) {
        let cap = self.config.max_retained_episodes;
        while self.retained_episodes() > cap {
            let sizes = [
                self.missing_vertex_streak.len(),
                self.missing_edge_streak.len(),
                self.reported_missing_vertices.len(),
                self.reported_missing_edges.len(),
                self.reported_added_vertices.len(),
                self.reported_added_edges.len(),
            ];
            let largest = (0..sizes.len()).max_by_key(|&i| sizes[i]).expect("six collections");
            match largest {
                0 => drop(self.missing_vertex_streak.pop_last()),
                1 => drop(self.missing_edge_streak.pop_last()),
                2 => drop(self.reported_missing_vertices.pop_last()),
                3 => drop(self.reported_missing_edges.pop_last()),
                4 => drop(self.reported_added_vertices.pop_last()),
                _ => drop(self.reported_added_edges.pop_last()),
            }
        }
    }

    /// Structural comparison with episode bookkeeping: appeared elements
    /// report immediately, missing elements once they persist for
    /// [`MonitorConfig::missing_persistence`] windows; each element is
    /// reported once per episode. Both sides are sanitized: an interaction
    /// cut by the window edge decorates as `#unknown` and must not read as
    /// structural change.
    fn topology_episodes(&mut self) -> Option<ModelDiff> {
        let (reference, keys) = (&self.reference, &self.keys);
        let persistence = self.config.missing_persistence;
        let added_vertices = added_step(&keys.added_vertices, &mut self.reported_added_vertices);
        let missing_vertices = missing_step(
            reference.keys(),
            |id| reference.key_missing(keys, id),
            &mut self.missing_vertex_streak,
            &mut self.reported_missing_vertices,
            persistence,
        );
        let added_edges = added_step(&keys.added_edges, &mut self.reported_added_edges);
        let missing_edges = missing_step(
            reference.edges(),
            |id| reference.edge_missing(keys, id),
            &mut self.missing_edge_streak,
            &mut self.reported_missing_edges,
            persistence,
        );
        let diff = ModelDiff {
            added_vertices,
            missing_vertices: missing_vertices
                .into_iter()
                .map(|id| reference.key(id).to_string())
                .collect(),
            added_edges,
            missing_edges: missing_edges.into_iter().map(|id| reference.edge(id)).collect(),
        };
        (!diff.is_empty()).then_some(diff)
    }

    /// The snapshot's vertices with their merge-key ids and envelopes,
    /// for vertices the baseline holds an envelope for. Vertices without
    /// one are new topology, reported by [`Monitor::topology_episodes`].
    fn enveloped<'a>(
        &'a self,
        snapshot: &'a Dag,
    ) -> impl Iterator<Item = (&'a DagVertex, u32, &'a CallbackEnvelope)> + 'a {
        snapshot.vertices().iter().zip(&self.keys.slots).filter_map(|(v, slot)| {
            let id = slot.id()?;
            let env = self.reference.envelope(id)?;
            Some((v, id, &self.baseline.envelopes[env]))
        })
    }

    /// Per-vertex execution-time and period drift against the envelopes.
    fn timing_drift(&self, snapshot: &Dag, segment: u64, alerts: &mut Vec<Alert>) {
        let c = &self.config;
        for (v, id, env) in self.enveloped(snapshot) {
            if v.kind == VertexKind::AndJunction {
                continue;
            }
            let key = self.reference.key(id);
            if env.samples >= c.min_baseline_samples && v.stats.count() >= c.min_window_samples {
                let spread = (env.mwcet - env.mbcet).scaled(c.exec_range_mult);
                let bound =
                    env.macet.scaled(1.0 + c.exec_tolerance) + spread + c.exec_slack;
                if let Some(observed) = v.stats.macet() {
                    if observed > bound {
                        // The whole window above the healthy worst case is
                        // unambiguous; a shifted mean alone is a warning.
                        let severity = if v.stats.mbcet()
                            > Some(env.mwcet + c.exec_slack)
                        {
                            Severity::Critical
                        } else {
                            Severity::Warning
                        };
                        alerts.push(Alert {
                            segment,
                            severity,
                            kind: AlertKind::ExecDrift {
                                key: key.to_string(),
                                observed_macet: observed,
                                baseline_macet: env.macet,
                                bound,
                            },
                        });
                    }
                }
            }

            // Period supervision is timer-cadence supervision: a
            // subscriber's arrival rate is a flow effect of its upstream,
            // not a property of the callback itself.
            let is_timer =
                v.kind == VertexKind::Callback(rtms_trace::CallbackKind::Timer);
            if is_timer && env.period_samples >= c.min_baseline_periods && v.period.count() >= 1 {
                let (Some(pm), Some(pmin), Some(pmax)) =
                    (env.period_mean, env.period_min, env.period_max)
                else {
                    continue;
                };
                let bound =
                    pm.scaled(1.0 + c.period_tolerance) + (pmax - pmin) + c.period_slack;
                if let Some(observed) = v.period.macet() {
                    if observed > bound {
                        let severity = if observed > bound.scaled(2.0) {
                            Severity::Critical
                        } else {
                            Severity::Warning
                        };
                        alerts.push(Alert {
                            segment,
                            severity,
                            kind: AlertKind::PeriodDrift {
                                key: key.to_string(),
                                observed_period: observed,
                                baseline_period: pm,
                                bound,
                            },
                        });
                    }
                }
            }
        }
    }

    /// Subscriber arrival-rate supervision: a subscriber delivering far
    /// fewer instances than its baseline period predicts for the window is
    /// losing messages in transport (best-effort drops, a flaky link). A
    /// subscriber that vanishes *entirely* is handled by the topology
    /// path instead — rate supervision needs a vertex to judge.
    fn message_loss(
        &self,
        snapshot: &Dag,
        window: Nanos,
        segment: u64,
        alerts: &mut Vec<Alert>,
    ) {
        let c = &self.config;
        if window == Nanos::ZERO {
            return;
        }
        for (v, id, env) in self.enveloped(snapshot) {
            if v.kind != VertexKind::Callback(rtms_trace::CallbackKind::Subscriber) {
                continue;
            }
            if env.period_samples < c.min_baseline_periods {
                continue;
            }
            let Some(pm) = env.period_mean else { continue };
            if pm == Nanos::ZERO {
                continue;
            }
            let expected = window.as_nanos() / pm.as_nanos();
            if expected < c.min_expected_messages {
                continue;
            }
            let observed = v.stats.count();
            let bound = expected as f64 * c.loss_threshold;
            if (observed as f64) < bound {
                // Less than half the loss bound is an unambiguous outage;
                // a rate merely below the bound warns.
                let severity = if (observed as f64) < bound / 2.0 {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                alerts.push(Alert {
                    segment,
                    severity,
                    kind: AlertKind::MessageLoss {
                        key: self.reference.key(id).to_string(),
                        observed,
                        expected,
                        threshold: c.loss_threshold,
                    },
                });
            }
        }
    }

    /// Per-node processor load over the window: each callback's
    /// [`rtms_analysis::callback_load`], summed per node in vertex order
    /// (the order [`rtms_analysis::node_loads`] sums in), borrowing the
    /// node names.
    fn load_spikes(&self, snapshot: &Dag, window: Nanos, segment: u64, alerts: &mut Vec<Alert>) {
        if window == Nanos::ZERO {
            return;
        }
        let mut loads: Vec<(&str, f64)> = Vec::new();
        for (i, v) in snapshot.vertices().iter().enumerate() {
            let load = match v.kind {
                VertexKind::AndJunction => 0.0,
                VertexKind::Callback(_) => {
                    rtms_analysis::callback_load(snapshot, VertexId(i), window)
                }
            };
            match loads.iter_mut().rev().find(|(node, _)| *node == v.node) {
                Some((_, sum)) => *sum += load,
                None => loads.push((&v.node, load)),
            }
        }
        let threshold = self.config.load_threshold;
        loads.retain(|&(_, load)| load > threshold);
        loads.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        for (node, load) in loads {
            alerts.push(Alert {
                segment,
                severity: Severity::Warning,
                kind: AlertKind::LoadSpike { node: node.to_string(), load, threshold },
            });
        }
    }
}

/// One window step of episode bookkeeping for a list of appeared
/// elements (`now`, sorted and distinct): returns those not already
/// reported in an ongoing episode. Elements absent from `now` have
/// recovered, so a recurrence starts a fresh episode.
fn added_step<T: Ord + Clone>(now: &[T], reported: &mut BTreeSet<T>) -> Vec<T> {
    let mut fresh = Vec::new();
    for item in now {
        if !reported.contains(item) {
            reported.insert(item.clone());
            fresh.push(item.clone());
        }
    }
    reported.retain(|k| now.binary_search(k).is_ok());
    fresh
}

/// One window step of episode bookkeeping for missing reference elements
/// (ids `0..ids` for which `missing` holds): returns, in id order, those
/// whose streak just reached `persistence` and which were not already
/// reported in the ongoing episode. Elements no longer missing have
/// recovered — their streak and reported status reset.
fn missing_step(
    ids: usize,
    missing: impl Fn(u32) -> bool,
    streaks: &mut BTreeMap<u32, usize>,
    reported: &mut BTreeSet<u32>,
    persistence: usize,
) -> Vec<u32> {
    let mut fresh = Vec::new();
    for id in (0..ids as u32).filter(|&id| missing(id)) {
        let streak = streaks.entry(id).or_insert(0);
        *streak += 1;
        if *streak >= persistence && reported.insert(id) {
            fresh.push(id);
        }
    }
    streaks.retain(|&id, _| missing(id));
    reported.retain(|&id| missing(id));
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList};
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    /// A callback record with `n` execution samples of `exec_ms` each,
    /// started every `period_ms`.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        pid: u32,
        id: u64,
        kind: CallbackKind,
        in_topic: Option<&str>,
        outs: &[&str],
        exec_ms: f64,
        n: usize,
        period_ms: u64,
    ) -> CallbackRecord {
        let exec = Nanos::from_millis_f64(exec_ms);
        let mut rec = CallbackRecord::instance(
            Pid::new(pid),
            CallbackId::new(id),
            kind,
            in_topic.map(std::sync::Arc::from),
            outs.iter().map(|s| std::sync::Arc::from(*s)).collect(),
            false,
            exec,
            Nanos::ZERO,
        );
        for i in 1..n as u64 {
            rec.push_instance(exec, Nanos::from_millis(i * period_ms));
        }
        rec
    }

    fn dag(lists: Vec<(u32, Vec<CallbackRecord>)>) -> Dag {
        let names: HashMap<Pid, String> =
            lists.iter().map(|(p, _)| (Pid::new(*p), format!("n{p}"))).collect();
        let lists: Vec<(Pid, CbList)> = lists
            .into_iter()
            .map(|(p, recs)| (Pid::new(p), recs.into_iter().collect()))
            .collect();
        Dag::from_cblists(&lists, &names)
    }

    fn chain(timer_exec: f64, sub_exec: f64, n: usize, period: u64) -> Dag {
        dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], timer_exec, n, period)]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], sub_exec, n, period)]),
        ])
    }

    const WINDOW: Nanos = Nanos::from_secs(1);

    #[test]
    fn healthy_window_is_silent() {
        let healthy = chain(1.0, 2.0, 12, 100);
        let mut m = Monitor::new(Baseline::from_dag(&healthy));
        for _ in 0..5 {
            assert_eq!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW), vec![]);
        }
        assert_eq!(m.segments_observed(), 5);
        assert_eq!(m.alerts_emitted(), 0);
    }

    #[test]
    fn exec_drift_beyond_envelope_raises_critical() {
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        let alerts = m.observe(&chain(5.0, 2.0, 6, 100), WINDOW);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].severity, Severity::Critical);
        match &alerts[0].kind {
            AlertKind::ExecDrift { key, observed_macet, baseline_macet, .. } => {
                assert_eq!(key, "n1|timer|/a");
                assert_eq!(*observed_macet, Nanos::from_millis(5));
                assert_eq!(*baseline_macet, Nanos::from_millis(1));
            }
            other => panic!("expected exec drift, got {other:?}"),
        }
    }

    #[test]
    fn exec_drift_below_bound_is_silent() {
        // Constant 1 ms baseline: bound = 2 ms + 0 spread + 0.2 ms slack.
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        assert!(m.observe(&chain(2.1, 2.0, 6, 100), WINDOW).is_empty());
        assert_eq!(m.observe(&chain(2.3, 2.0, 6, 100), WINDOW).len(), 1);
    }

    #[test]
    fn thin_envelope_is_not_judged() {
        // Only 2 baseline samples (< min_baseline_samples): no exec alert
        // even for a 10x shift.
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 2, 100)));
        let alerts = m.observe(&chain(10.0, 2.0, 6, 100), WINDOW);
        assert!(
            alerts.iter().all(|a| a.kind.name() != "exec_drift"),
            "thin baseline must not be judged: {alerts:?}"
        );
    }

    #[test]
    fn period_drift_detected_with_severity_scaling() {
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        // Bound: 100 * 1.5 + 0 + 5 = 155 ms.
        let warn = m.observe(&chain(1.0, 2.0, 6, 250), WINDOW);
        assert!(
            warn.iter().any(|a| matches!(
                &a.kind,
                AlertKind::PeriodDrift { key, observed_period, .. }
                    if key == "n1|timer|/a" && *observed_period == Nanos::from_millis(250)
            )),
            "{warn:?}"
        );
        let crit = m.observe(&chain(1.0, 2.0, 4, 400), WINDOW);
        let period_alert = crit
            .iter()
            .find(|a| a.kind.name() == "period_drift")
            .expect("period drift fires");
        assert_eq!(period_alert.severity, Severity::Critical, "400 > 2x bound");
    }

    #[test]
    fn topology_added_reports_immediately_and_once_per_episode() {
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        let with_extra = dag(vec![
            (1, vec![
                rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100),
                rec(1, 3, CallbackKind::Timer, None, &["/rogue"], 1.0, 6, 100),
            ]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, 6, 100)]),
        ]);
        let first = m.observe(&with_extra, WINDOW);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].severity, Severity::Critical);
        match &first[0].kind {
            AlertKind::TopologyChange { diff } => {
                assert_eq!(diff.added_vertices, vec!["n1|timer|/rogue".to_string()]);
                assert!(diff.missing_vertices.is_empty());
            }
            other => panic!("expected topology change, got {other:?}"),
        }
        // Persisting condition: not re-reported.
        assert!(m.observe(&with_extra, WINDOW).is_empty());
        // Recovery, then recurrence: a fresh episode re-alerts.
        assert!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW).is_empty());
        assert_eq!(m.observe(&with_extra, WINDOW).len(), 1);
    }

    #[test]
    fn missing_elements_need_persistence() {
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        let timer_only =
            dag(vec![(1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100)])]);
        // First missing window: below persistence, silent.
        assert!(m.observe(&timer_only, WINDOW).is_empty());
        // Second consecutive: reported once, vertex and edge.
        let alerts = m.observe(&timer_only, WINDOW);
        assert_eq!(alerts.len(), 1);
        match &alerts[0].kind {
            AlertKind::TopologyChange { diff } => {
                assert_eq!(diff.missing_vertices, vec!["n2|subscriber|/a".to_string()]);
                assert_eq!(diff.missing_edges.len(), 1);
            }
            other => panic!("expected topology change, got {other:?}"),
        }
        // Still missing: no repeat.
        assert!(m.observe(&timer_only, WINDOW).is_empty());
        // One healthy window resets the streak: a single missing window is
        // silent again.
        assert!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW).is_empty());
        assert!(m.observe(&timer_only, WINDOW).is_empty());
    }

    /// The chain plus a second subscriber of `/a` on `n2`: its merge key
    /// and its in-edge occur twice.
    fn chain_with_twin_subscriber(n: usize) -> Dag {
        dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, n, 100)]),
            (2, vec![
                rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, n, 100),
                rec(2, 3, CallbackKind::Subscriber, Some("/a"), &[], 2.0, n, 100),
            ]),
        ])
    }

    fn topology_diff(alerts: &[Alert]) -> &ModelDiff {
        match alerts {
            [Alert { kind: AlertKind::TopologyChange { diff }, .. }] => diff,
            other => panic!("expected one topology change, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_keys_compare_as_multisets() {
        let edge = TopologyEdge {
            from: "n1|timer|/a".to_string(),
            to: "n2|subscriber|/a".to_string(),
            topic: "/a".to_string(),
        };
        // The reference holds the subscriber key twice, the window once:
        // missing, reported exactly once.
        let mut m = Monitor::new(Baseline::from_dag(&chain_with_twin_subscriber(12)));
        assert!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW).is_empty(), "below persistence");
        let alerts = m.observe(&chain(1.0, 2.0, 6, 100), WINDOW);
        let diff = topology_diff(&alerts);
        assert_eq!(diff.missing_vertices, vec!["n2|subscriber|/a".to_string()]);
        assert_eq!(diff.missing_edges, vec![edge.clone()]);
        assert!(diff.added_vertices.is_empty() && diff.added_edges.is_empty());
        assert!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW).is_empty(), "one report per episode");
        assert!(m.observe(&chain_with_twin_subscriber(6), WINDOW).is_empty(), "recovered");

        // The reference holds it once, the window twice: added, once.
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        let alerts = m.observe(&chain_with_twin_subscriber(6), WINDOW);
        let diff = topology_diff(&alerts);
        assert_eq!(diff.added_vertices, vec!["n2|subscriber|/a".to_string()]);
        assert_eq!(diff.added_edges, vec![edge]);
        assert!(diff.missing_vertices.is_empty() && diff.missing_edges.is_empty());
        assert!(m.observe(&chain_with_twin_subscriber(6), WINDOW).is_empty());
    }

    #[test]
    fn unresolved_elements_are_skipped_on_both_sides() {
        // A subscriber of an `#unknown`-decorated topic (a service peer the
        // window cut off) in the reference only, another in the window only.
        let with_unknown = |node: u32, topic: &str, exec_ms: f64, n: usize| {
            let mut lists = vec![
                (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, n, 100)]),
                (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, n, 100)]),
            ];
            lists.push((
                node,
                vec![rec(node, 9, CallbackKind::Subscriber, Some(topic), &[], exec_ms, n, 100)],
            ));
            dag(lists)
        };
        let mut m = Monitor::new(Baseline::from_dag(&with_unknown(3, "/q#unknown", 1.0, 12)));
        for _ in 0..3 {
            assert_eq!(m.observe(&with_unknown(4, "/r#unknown", 1.0, 6), WINDOW), vec![]);
            assert_eq!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW), vec![]);
        }
        assert_eq!(m.retained_episodes(), 0);
        // An unresolved vertex is still judged against its own envelope.
        let alerts = m.observe(&with_unknown(3, "/q#unknown", 10.0, 6), WINDOW);
        assert!(
            alerts.iter().any(|a| matches!(
                &a.kind,
                AlertKind::ExecDrift { key, .. } if key == "n3|subscriber|/q#unknown"
            )),
            "{alerts:?}"
        );
    }

    #[test]
    fn added_and_missing_elements_in_one_window() {
        let config = MonitorConfig { missing_persistence: 1, ..MonitorConfig::default() };
        let mut m = Monitor::with_config(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)), config);
        // The chain moved from `/a` to `/b`: both vertices and the edge
        // are missing and reappear under new keys.
        let moved = dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/b"], 1.0, 6, 100)]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/b"), &[], 2.0, 6, 100)]),
        ]);
        let alerts = m.observe(&moved, WINDOW);
        let diff = topology_diff(&alerts);
        assert_eq!(diff.added_vertices, vec!["n1|timer|/b", "n2|subscriber|/b"]);
        assert_eq!(diff.missing_vertices, vec!["n1|timer|/a", "n2|subscriber|/a"]);
        let edge = |t: &str| TopologyEdge {
            from: format!("n1|timer|{t}"),
            to: format!("n2|subscriber|{t}"),
            topic: t.to_string(),
        };
        assert_eq!(diff.added_edges, vec![edge("/b")]);
        assert_eq!(diff.missing_edges, vec![edge("/a")]);
        assert_eq!(m.retained_episodes(), 9, "3 streaks, 3 reported missing, 3 reported added");
        assert!(m.observe(&moved, WINDOW).is_empty(), "one report per episode");
        assert!(m.observe(&chain(1.0, 2.0, 6, 100), WINDOW).is_empty(), "recovered");
        assert_eq!(m.retained_episodes(), 0);
    }

    #[test]
    fn load_spike_per_node() {
        let healthy = chain(1.0, 2.0, 12, 100);
        let mut m = Monitor::new(Baseline::from_dag(&healthy));
        // 10 instances of 95 ms in a 1 s window: 95% of a core.
        let heavy = dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100)]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, 6, 100)]),
            (3, vec![rec(3, 3, CallbackKind::Timer, None, &["/hot"], 95.0, 10, 100)]),
        ]);
        // The hot node is new topology AND a load spike; check both fire,
        // ranked critical-first.
        let alerts = m.observe(&heavy, WINDOW);
        assert!(alerts.len() >= 2, "{alerts:?}");
        assert_eq!(alerts[0].severity, Severity::Critical, "topology change leads");
        assert!(
            alerts.iter().any(|a| matches!(
                &a.kind,
                AlertKind::LoadSpike { node, load, .. } if node == "n3" && *load > 0.85
            )),
            "{alerts:?}"
        );
    }

    #[test]
    fn message_loss_detected_on_starving_subscriber() {
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        // The subscriber sees 3 of the ~10 instances the baseline rate
        // predicts for the window; the timer side stays healthy.
        let lossy = dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100)]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, 3, 100)]),
        ]);
        let alerts = m.observe(&lossy, WINDOW);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].severity, Severity::Warning);
        match &alerts[0].kind {
            AlertKind::MessageLoss { key, observed, expected, .. } => {
                assert_eq!(key, "n2|subscriber|/a");
                assert_eq!(*observed, 3);
                assert_eq!(*expected, 10);
            }
            other => panic!("expected message loss, got {other:?}"),
        }
        // Near-total loss escalates to critical.
        let dead = dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100)]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, 1, 100)]),
        ]);
        let alerts = m.observe(&dead, WINDOW);
        let loss = alerts
            .iter()
            .find(|a| a.kind.name() == "message_loss")
            .expect("message loss fires");
        assert_eq!(loss.severity, Severity::Critical);
    }

    #[test]
    fn halved_rate_is_not_message_loss() {
        // 5 of 10 expected instances is a stuttering upstream (period
        // supervision's job), not transport loss — the 0.45 threshold
        // keeps the two alert classes disjoint.
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        let halved = dag(vec![
            (1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100)]),
            (2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, 5, 100)]),
        ]);
        let alerts = m.observe(&halved, WINDOW);
        assert!(
            alerts.iter().all(|a| a.kind.name() != "message_loss"),
            "halved rate must not read as loss: {alerts:?}"
        );
    }

    #[test]
    fn episode_state_is_bounded_with_watermark() {
        let config = MonitorConfig { max_retained_episodes: 3, ..MonitorConfig::default() };
        let mut m = Monitor::with_config(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)), config);
        // 5 rogue timers: 5 added vertices demand 5 episode entries.
        let rogue: Vec<CallbackRecord> = (0..5)
            .map(|i| {
                rec(1, 10 + i, CallbackKind::Timer, None, &[&format!("/rogue{i}")], 1.0, 6, 100)
            })
            .collect();
        let mut lists = vec![(1, rogue)];
        lists[0].1.push(rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100));
        lists.push((2, vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], 2.0, 6, 100)]));
        let noisy = dag(lists);
        let first = m.observe(&noisy, WINDOW);
        assert_eq!(first.len(), 1, "one topology alert covers all five: {first:?}");
        assert!(m.retained_episodes() <= 3, "bound enforced: {}", m.retained_episodes());
        assert_eq!(m.peak_retained_episodes(), 5, "watermark measures pre-trim demand");
        // The evicted episodes re-report while the condition persists —
        // bounded memory costs duplicates, never silence.
        let second = m.observe(&noisy, WINDOW);
        assert_eq!(second.len(), 1, "evicted episodes re-alert: {second:?}");
        assert!(m.retained_episodes() <= 3);
    }

    #[test]
    fn default_bound_never_trims_ordinary_monitoring() {
        let mut m = Monitor::new(Baseline::from_dag(&chain(1.0, 2.0, 12, 100)));
        let timer_only =
            dag(vec![(1, vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], 1.0, 6, 100)])]);
        for _ in 0..4 {
            m.observe(&timer_only, WINDOW);
        }
        assert!(m.peak_retained_episodes() > 0);
        assert!(m.peak_retained_episodes() <= m.config().max_retained_episodes);
        assert_eq!(m.retained_episodes(), m.peak_retained_episodes());
    }

    #[test]
    fn zero_window_skips_load_accounting() {
        let healthy = chain(1.0, 2.0, 12, 100);
        let mut m = Monitor::new(Baseline::from_dag(&healthy));
        assert!(m.observe(&chain(1.0, 2.0, 6, 100), Nanos::ZERO).is_empty());
    }
}
