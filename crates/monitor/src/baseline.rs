//! Healthy-state baselines captured from a synthesized model.

use rtms_core::{Dag, Topology, VertexKind};
use rtms_trace::Nanos;
use serde::{Deserialize, Serialize};

/// The healthy timing envelope of one callback vertex, keyed by its merge
/// key (`node|kind|topic detail`, see
/// [`rtms_core::DagVertex::merge_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallbackEnvelope {
    /// The vertex merge key this envelope describes.
    pub key: String,
    /// Measured best-case execution time over the healthy phase.
    pub mbcet: Nanos,
    /// Measured average execution time over the healthy phase.
    pub macet: Nanos,
    /// Measured worst-case execution time over the healthy phase.
    pub mwcet: Nanos,
    /// Number of execution-time samples behind the envelope.
    pub samples: u64,
    /// Mean gap between consecutive instance starts (the period estimate
    /// for timer callbacks), when at least one gap was observed.
    pub period_mean: Option<Nanos>,
    /// Smallest observed start gap.
    pub period_min: Option<Nanos>,
    /// Largest observed start gap.
    pub period_max: Option<Nanos>,
    /// Number of observed start gaps.
    pub period_samples: u64,
}

impl CallbackEnvelope {
    /// Folds another envelope of the same key into this one (two vertices
    /// of one model can share a merge key).
    fn absorb(&mut self, other: &CallbackEnvelope) {
        let total = self.samples + other.samples;
        if total > 0 {
            let weighted = self.macet.as_nanos() as f64 * self.samples as f64
                + other.macet.as_nanos() as f64 * other.samples as f64;
            self.macet = Nanos::from_nanos((weighted / total as f64).round() as u64);
        }
        self.mbcet = self.mbcet.min(other.mbcet);
        self.mwcet = self.mwcet.max(other.mwcet);
        self.samples = total;

        let ptotal = self.period_samples + other.period_samples;
        if ptotal > 0 {
            let pw = |mean: Option<Nanos>, n: u64| {
                mean.map_or(0.0, |m| m.as_nanos() as f64 * n as f64)
            };
            let weighted =
                pw(self.period_mean, self.period_samples) + pw(other.period_mean, other.period_samples);
            self.period_mean = Some(Nanos::from_nanos((weighted / ptotal as f64).round() as u64));
        }
        self.period_min = match (self.period_min, other.period_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.period_max = match (self.period_max, other.period_max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.period_samples = ptotal;
    }
}

/// A healthy reference captured from a synthesized [`Dag`]: per-callback
/// timing envelopes plus the structural topology the application is
/// expected to keep.
///
/// Capture it from a model synthesized over a phase known (or assumed)
/// healthy — typically the first segments of a deployment — then hand it
/// to a [`crate::Monitor`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Baseline {
    /// Timing envelopes, sorted by merge key (junction vertices excluded —
    /// they have no execution time by construction).
    pub envelopes: Vec<CallbackEnvelope>,
    /// The healthy structural topology.
    pub topology: Topology,
    /// [`Topology::fingerprint`] of `topology`, for cheap logging and
    /// persistence checks.
    pub fingerprint: u64,
}

impl Baseline {
    /// Captures a baseline from a healthy model.
    pub fn from_dag(dag: &Dag) -> Baseline {
        let mut envelopes: Vec<CallbackEnvelope> = Vec::new();
        for v in dag.vertices() {
            if v.kind == VertexKind::AndJunction {
                continue;
            }
            let (Some(mbcet), Some(macet), Some(mwcet)) =
                (v.stats.mbcet(), v.stats.macet(), v.stats.mwcet())
            else {
                continue;
            };
            let env = CallbackEnvelope {
                key: v.merge_key(),
                mbcet,
                macet,
                mwcet,
                samples: v.stats.count(),
                period_mean: v.period.macet(),
                period_min: v.period.mbcet(),
                period_max: v.period.mwcet(),
                period_samples: v.period.count(),
            };
            match envelopes.binary_search_by(|e| e.key.cmp(&env.key)) {
                Ok(i) => envelopes[i].absorb(&env),
                Err(i) => envelopes.insert(i, env),
            }
        }
        let topology = dag.topology();
        let fingerprint = topology.fingerprint();
        Baseline { envelopes, topology, fingerprint }
    }

    /// The envelope for a merge key, if the healthy phase observed it.
    pub fn envelope(&self, key: &str) -> Option<&CallbackEnvelope> {
        self.envelopes
            .binary_search_by(|e| e.key.as_str().cmp(key))
            .ok()
            .map(|i| &self.envelopes[i])
    }

    /// Number of monitored callback envelopes.
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// Whether the baseline holds no envelopes at all.
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// Approximate retained heap size of this baseline, in bytes: struct
    /// sizes plus owned string contents. Not an allocator-exact number —
    /// it is the *watermark unit* behind
    /// [`crate::BaselineStore::peak_baseline_bytes`], where a
    /// fleet-level memory budget cares about proportionality across
    /// thousands of tenants, not malloc bookkeeping.
    pub fn approx_bytes(&self) -> usize {
        let envelopes: usize = self
            .envelopes
            .iter()
            .map(|e| std::mem::size_of::<CallbackEnvelope>() + e.key.len())
            .sum();
        let vertices: usize =
            self.topology.vertices.iter().map(|v| std::mem::size_of::<String>() + v.len()).sum();
        let edges: usize = self
            .topology
            .edges
            .iter()
            .map(|e| {
                std::mem::size_of_val(e) + e.from.len() + e.to.len() + e.topic.len()
            })
            .sum();
        std::mem::size_of::<Baseline>() + envelopes + vertices + edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList};
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    fn dag_with(samples_ms: &[u64], starts_ms: &[u64]) -> Dag {
        let ms = Nanos::from_millis;
        let mut rec = CallbackRecord::instance(
            Pid::new(1),
            CallbackId::new(1),
            CallbackKind::Timer,
            None,
            vec!["/t".into()],
            false,
            ms(samples_ms[0]),
            ms(starts_ms[0]),
        );
        for (&exec, &start) in samples_ms.iter().zip(starts_ms).skip(1) {
            rec.push_instance(ms(exec), ms(start));
        }
        let list: CbList = [rec].into_iter().collect();
        let names: HashMap<Pid, String> = [(Pid::new(1), "n".to_string())].into();
        Dag::from_cblists(&[(Pid::new(1), list)], &names)
    }

    #[test]
    fn envelope_captures_stats_and_period() {
        let base = Baseline::from_dag(&dag_with(&[2, 4, 6], &[0, 100, 200]));
        assert_eq!(base.len(), 1);
        assert!(!base.is_empty());
        let env = base.envelope("n|timer|/t").expect("envelope");
        assert_eq!(env.mbcet, Nanos::from_millis(2));
        assert_eq!(env.macet, Nanos::from_millis(4));
        assert_eq!(env.mwcet, Nanos::from_millis(6));
        assert_eq!(env.samples, 3);
        assert_eq!(env.period_mean, Some(Nanos::from_millis(100)));
        assert_eq!(env.period_samples, 2);
        assert!(base.envelope("ghost").is_none());
        assert_eq!(base.fingerprint, base.topology.fingerprint());
    }

    #[test]
    fn duplicate_keys_merge_weighted() {
        let mut a = CallbackEnvelope {
            key: "k".into(),
            mbcet: Nanos::from_millis(1),
            macet: Nanos::from_millis(2),
            mwcet: Nanos::from_millis(3),
            samples: 1,
            period_mean: Some(Nanos::from_millis(10)),
            period_min: Some(Nanos::from_millis(9)),
            period_max: Some(Nanos::from_millis(11)),
            period_samples: 1,
        };
        let b = CallbackEnvelope {
            key: "k".into(),
            mbcet: Nanos::from_millis(4),
            macet: Nanos::from_millis(5),
            mwcet: Nanos::from_millis(6),
            samples: 3,
            period_mean: None,
            period_min: None,
            period_max: None,
            period_samples: 0,
        };
        a.absorb(&b);
        assert_eq!(a.samples, 4);
        assert_eq!(a.mbcet, Nanos::from_millis(1));
        assert_eq!(a.mwcet, Nanos::from_millis(6));
        // (2 + 5*3) / 4 = 4.25
        assert_eq!(a.macet, Nanos::from_millis_f64(4.25));
        assert_eq!(a.period_mean, Some(Nanos::from_millis(10)));
        assert_eq!(a.period_samples, 1);
    }
}
