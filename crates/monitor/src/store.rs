//! Per-tenant baseline and monitor state for a fleet of applications.

use crate::alert::Alert;
use crate::baseline::Baseline;
use crate::monitor::{Monitor, MonitorConfig};
use rtms_core::Dag;
use rtms_trace::Nanos;
use std::collections::BTreeMap;

/// Owns the [`Baseline`] + [`Monitor`] pair of every tenant a fleet shard
/// is responsible for, with the memory-observability counters a service
/// holding thousands of these needs: current and peak baseline bytes
/// (via [`Baseline::approx_bytes`]) and current and peak retained episode
/// entries (via [`Monitor::retained_episodes`], each monitor individually
/// bounded by [`MonitorConfig::max_retained_episodes`]).
///
/// Tenants are keyed by `u64` id in a [`BTreeMap`], so iteration — and
/// everything derived from it — is deterministic in tenant order, never
/// in insertion order.
#[derive(Debug, Clone)]
pub struct BaselineStore {
    config: MonitorConfig,
    monitors: BTreeMap<u64, Monitor>,
    baseline_bytes: usize,
    peak_baseline_bytes: usize,
    /// Running sum of [`Monitor::retained_episodes`] over `monitors`.
    retained_episodes: usize,
    peak_retained_episodes: usize,
}

impl BaselineStore {
    /// Creates an empty store whose monitors use `config`.
    pub fn new(config: MonitorConfig) -> BaselineStore {
        BaselineStore {
            config,
            monitors: BTreeMap::new(),
            baseline_bytes: 0,
            peak_baseline_bytes: 0,
            retained_episodes: 0,
            peak_retained_episodes: 0,
        }
    }

    /// Installs (or replaces) a tenant's healthy baseline, creating its
    /// monitor. Replacement resets the tenant's episode state — a new
    /// healthy reference starts a new watch.
    pub fn install(&mut self, tenant: u64, baseline: Baseline) {
        let bytes = baseline.approx_bytes();
        let monitor = Monitor::with_config(baseline, self.config.clone());
        if let Some(old) = self.monitors.insert(tenant, monitor) {
            self.baseline_bytes -= old.baseline().approx_bytes();
            self.retained_episodes -= old.retained_episodes();
        }
        self.baseline_bytes += bytes;
        self.peak_baseline_bytes = self.peak_baseline_bytes.max(self.baseline_bytes);
    }

    /// Feeds one window snapshot of a tenant to its monitor, returning
    /// the window's alerts. A tenant without an installed baseline is
    /// still in its healthy-capture phase: the snapshot is not judged and
    /// no alerts are returned.
    pub fn observe(&mut self, tenant: u64, snapshot: &Dag, window: Nanos) -> Vec<Alert> {
        let Some(monitor) = self.monitors.get_mut(&tenant) else {
            return Vec::new();
        };
        let before = monitor.retained_episodes();
        let alerts = monitor.observe(snapshot, window);
        self.retained_episodes = self.retained_episodes - before + monitor.retained_episodes();
        self.peak_retained_episodes = self.peak_retained_episodes.max(self.retained_episodes);
        alerts
    }

    /// Whether `tenant` has an installed baseline.
    pub fn has(&self, tenant: u64) -> bool {
        self.monitors.contains_key(&tenant)
    }

    /// The tenant's monitor, if its baseline is installed.
    pub fn monitor(&self, tenant: u64) -> Option<&Monitor> {
        self.monitors.get(&tenant)
    }

    /// Tenant ids with installed baselines, ascending.
    pub fn tenants(&self) -> impl Iterator<Item = u64> + '_ {
        self.monitors.keys().copied()
    }

    /// Number of tenants with installed baselines.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether no tenant has a baseline yet.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Approximate bytes currently retained by all installed baselines.
    pub fn baseline_bytes(&self) -> usize {
        self.baseline_bytes
    }

    /// High-water mark of [`BaselineStore::baseline_bytes`] across the
    /// store's lifetime.
    pub fn peak_baseline_bytes(&self) -> usize {
        self.peak_baseline_bytes
    }

    /// Episode-tracking entries currently retained across all monitors.
    pub fn retained_episodes(&self) -> usize {
        self.retained_episodes
    }

    /// High-water mark of [`BaselineStore::retained_episodes`], measured
    /// after each observation.
    pub fn peak_retained_episodes(&self) -> usize {
        self.peak_retained_episodes
    }

    /// Total alerts emitted across all monitors.
    pub fn alerts_emitted(&self) -> u64 {
        self.monitors.values().map(Monitor::alerts_emitted).sum()
    }
}

impl Default for BaselineStore {
    fn default() -> BaselineStore {
        BaselineStore::new(MonitorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList};
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    fn chain(tag: &str, exec_ms: f64, n: usize) -> Dag {
        let topic: std::sync::Arc<str> = format!("/{tag}/a").into();
        let exec = Nanos::from_millis_f64(exec_ms);
        let rec = |id: u64, kind, in_topic: Option<&std::sync::Arc<str>>, outs: &[&std::sync::Arc<str>]| {
            let mut rec = CallbackRecord::instance(
                Pid::new(id as u32),
                CallbackId::new(id),
                kind,
                in_topic.cloned(),
                outs.iter().map(|t| (*t).clone()).collect(),
                false,
                exec,
                Nanos::ZERO,
            );
            for i in 1..n as u64 {
                rec.push_instance(exec, Nanos::from_millis(i * 100));
            }
            rec
        };
        let lists: Vec<(Pid, CbList)> = vec![
            (Pid::new(1), [rec(1, CallbackKind::Timer, None, &[&topic])].into_iter().collect()),
            (
                Pid::new(2),
                [rec(2, CallbackKind::Subscriber, Some(&topic), &[])].into_iter().collect(),
            ),
        ];
        let names: HashMap<Pid, String> =
            [(Pid::new(1), format!("{tag}_src")), (Pid::new(2), format!("{tag}_sink"))].into();
        Dag::from_cblists(&lists, &names)
    }

    #[test]
    fn healthy_tenants_stay_silent_and_bytes_are_tracked() {
        let mut store = BaselineStore::default();
        for t in 0..4u64 {
            store.install(t, Baseline::from_dag(&chain("app", 1.0, 12)));
        }
        assert_eq!(store.len(), 4);
        assert!(store.has(2) && !store.has(9));
        assert_eq!(store.tenants().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(store.baseline_bytes() > 0);
        assert_eq!(store.baseline_bytes(), store.peak_baseline_bytes());
        for t in 0..4u64 {
            let alerts = store.observe(t, &chain("app", 1.0, 6), Nanos::from_secs(1));
            assert!(alerts.is_empty(), "healthy tenant {t}: {alerts:?}");
        }
        assert_eq!(store.alerts_emitted(), 0);
    }

    #[test]
    fn faulty_tenant_alerts_and_reinstall_resets() {
        let mut store = BaselineStore::default();
        store.install(7, Baseline::from_dag(&chain("app", 1.0, 12)));
        let alerts = store.observe(7, &chain("app", 8.0, 6), Nanos::from_secs(1));
        assert!(!alerts.is_empty(), "8x exec time must alert");
        assert_eq!(store.alerts_emitted(), alerts.len() as u64);
        let before = store.baseline_bytes();
        store.install(7, Baseline::from_dag(&chain("app", 1.0, 12)));
        assert_eq!(store.baseline_bytes(), before, "replacement does not leak bytes");
        assert_eq!(store.alerts_emitted(), 0, "reinstall starts a fresh watch");
    }

    #[test]
    fn unknown_tenant_observation_is_a_no_op() {
        let mut store = BaselineStore::default();
        assert!(store.observe(3, &chain("app", 1.0, 6), Nanos::from_secs(1)).is_empty());
        assert!(store.is_empty());
        assert_eq!(store.retained_episodes(), 0);
        assert_eq!(store.peak_retained_episodes(), 0);
    }

    #[test]
    fn episode_watermark_accumulates_across_tenants() {
        let mut store = BaselineStore::default();
        for t in 0..3u64 {
            store.install(t, Baseline::from_dag(&chain("app", 1.0, 12)));
        }
        // A different topology per window: each tenant retains episode
        // entries for the added + missing elements.
        for t in 0..3u64 {
            store.observe(t, &chain("rogue", 1.0, 6), Nanos::from_secs(1));
        }
        assert!(store.retained_episodes() > 0);
        assert_eq!(store.peak_retained_episodes(), store.retained_episodes());
    }

    #[test]
    fn running_episode_total_matches_the_full_sum() {
        let full_sum =
            |store: &BaselineStore| store.monitors.values().map(Monitor::retained_episodes).sum();
        let mut store = BaselineStore::default();
        for t in 0..3u64 {
            store.install(t, Baseline::from_dag(&chain("app", 1.0, 12)));
        }
        let window = Nanos::from_secs(1);
        // Episodes open (rogue topology), persist, recover (healthy),
        // re-open on another tenant, and are dropped by a reinstall.
        let history: [(u64, &str, f64); 9] = [
            (0, "rogue", 1.0),
            (1, "rogue", 1.0),
            (0, "rogue", 1.0),
            (2, "app", 8.0),
            (0, "app", 1.0),
            (1, "other", 1.0),
            (2, "rogue", 1.0),
            (1, "app", 1.0),
            (2, "rogue", 1.0),
        ];
        let mut peak = 0;
        for (tenant, tag, exec_ms) in history {
            store.observe(tenant, &chain(tag, exec_ms, 6), window);
            assert_eq!(
                store.retained_episodes(),
                full_sum(&store),
                "after tenant {tenant} saw {tag}"
            );
            peak = peak.max(full_sum(&store));
        }
        assert!(peak > 0, "the history must open episodes");
        assert_eq!(store.peak_retained_episodes(), peak);
        store.install(2, Baseline::from_dag(&chain("app", 1.0, 12)));
        assert_eq!(store.retained_episodes(), full_sum(&store), "reinstall drops the old episodes");
        assert_eq!(store.peak_retained_episodes(), peak, "the peak is a high-water mark");
    }
}
