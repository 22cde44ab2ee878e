//! Fleet run results: the per-alert record, the aggregate report, and the
//! full outcome handed back to callers.

use rtms_core::Dag;
use rtms_monitor::{Alert, AlertRollup};
use serde::{Deserialize, Serialize};

/// One alert attributed to the tenant that raised it.
///
/// Ordered by `(tenant, segment, alert)` — a *stable total order* that
/// depends only on the set of alerts raised, never on the interleaving in
/// which shards received or emitted them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantAlert {
    /// Tenant that raised the alert.
    pub tenant: u64,
    /// Global segment index (within that tenant's run) the alert was
    /// raised at.
    pub segment: u64,
    /// The alert itself.
    pub alert: Alert,
}

/// Aggregate metrics of one fleet run, serializable for the experiment
/// binary's JSON output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Tenants ingested.
    pub tenants: usize,
    /// Shard workers.
    pub shards: usize,
    /// Producer threads.
    pub producers: usize,
    /// Faulted tenants.
    pub faults: usize,
    /// Trace events ingested across the fleet.
    pub events: u64,
    /// Trace segments ingested across the fleet.
    pub segments: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Ingested events per wall-clock second.
    pub events_per_sec: f64,
    /// Median ingest-to-model latency in microseconds: producer handoff
    /// of a segment to the owning shard having folded it into the
    /// tenant's synthesis session (and judged it, in the watch phase).
    pub p50_ingest_us: f64,
    /// 99th-percentile ingest-to-model latency in microseconds.
    pub p99_ingest_us: f64,
    /// Alerts raised across the fleet.
    pub alerts: u64,
    /// Alerts per wall-clock second.
    pub alerts_per_sec: f64,
    /// Distinct root causes after rollup.
    pub distinct_causes: u64,
    /// Alert deduplication ratio: alerts per distinct cause (0 when the
    /// fleet was silent).
    pub dedup_ratio: f64,
    /// Mean detection recall over faulted tenants (1.0 = every injected
    /// fault detected on every faulted tenant; 1.0 trivially when no
    /// tenant is faulted).
    pub recall: f64,
    /// Alerts raised by fault-free tenants (must be 0).
    pub healthy_alerts: u64,
    /// Peak per-session synthesis memory watermark (event-equivalents,
    /// see [`rtms_core::SynthesisSession::peak_watermark`]) across all
    /// tenants and shards.
    pub peak_session_watermark: usize,
    /// Peak baseline bytes resident in any one shard's store.
    pub peak_baseline_bytes: usize,
    /// Peak retained monitor episodes in any one shard's store.
    pub peak_retained_episodes: usize,
    /// Vertices in the fleet-merged model.
    pub model_vertices: usize,
    /// Edges in the fleet-merged model.
    pub model_edges: usize,
}

/// Everything a fleet run produces: the aggregate report, the
/// hierarchically merged fleet model, the deduplicated alert rollup, and
/// the raw per-tenant alert stream (sorted by the [`TenantAlert`] total
/// order).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Aggregate metrics.
    pub report: FleetReport,
    /// Fleet-level timing model: every tenant model merged shard-locally,
    /// then across shards, then canonicalized — byte-identical for any
    /// shard/producer count.
    pub model: Dag,
    /// Cross-tenant deduplicated alert rollup.
    pub rollup: AlertRollup,
    /// Every alert with tenant attribution, in total order.
    pub alerts: Vec<TenantAlert>,
}

/// The `q`-th percentile (0.0–1.0), in microseconds, of an
/// **ascending-sorted** slice of nanosecond latencies via the nearest-rank
/// method; 0.0 for an empty slice.
pub(crate) fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let us: Vec<u64> = (1..=100u64).map(|n| n * 1_000).collect();
        assert_eq!(percentile_us(&us, 0.50), 50.0);
        assert_eq!(percentile_us(&us, 0.99), 99.0);
        assert_eq!(percentile_us(&us, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[1_500], 0.99), 1.5);
    }

    #[test]
    fn recorded_latency_reports_in_microseconds() {
        let recorded = crate::shard::latency_ns(std::time::Duration::from_micros(1_500));
        assert_eq!(percentile_us(&[recorded], 0.5), 1_500.0, "1.5 ms is 1500 us");
    }

    #[test]
    fn tenant_alert_order_is_tenant_major() {
        use rtms_monitor::{AlertKind, Severity};
        let mk = |tenant: u64, segment: u64| TenantAlert {
            tenant,
            segment,
            alert: Alert {
                segment,
                severity: Severity::Warning,
                kind: AlertKind::LoadSpike { node: "n".into(), load: 1.0, threshold: 0.5 },
            },
        };
        let mut v = [mk(3, 0), mk(1, 9), mk(1, 2)];
        v.sort();
        assert_eq!(
            v.iter().map(|a| (a.tenant, a.segment)).collect::<Vec<_>>(),
            vec![(1, 2), (1, 9), (3, 0)]
        );
    }
}
