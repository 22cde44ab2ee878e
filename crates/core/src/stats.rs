//! Mergeable execution-time statistics.

use rtms_trace::Nanos;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Measured execution-time statistics of one callback: best case, average,
/// and worst case over all observed instances (mBCET / mACET / mWCET in the
/// paper's terminology).
///
/// Statistics merge associatively, which is what makes the
/// "DAG-per-run, then merge DAGs" deployment option of Fig. 2 work.
///
/// # Example
///
/// ```
/// use rtms_core::ExecStats;
/// use rtms_trace::Nanos;
///
/// let mut s = ExecStats::new();
/// s.push(Nanos::from_millis(3));
/// s.push(Nanos::from_millis(5));
/// assert_eq!(s.mbcet(), Some(Nanos::from_millis(3)));
/// assert_eq!(s.mwcet(), Some(Nanos::from_millis(5)));
/// assert_eq!(s.macet(), Some(Nanos::from_millis(4)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    count: u64,
    sum: u64,
    min: Option<Nanos>,
    max: Option<Nanos>,
}

impl ExecStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Builds statistics from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = Nanos>>(samples: I) -> Self {
        let mut s = ExecStats::new();
        for x in samples {
            s.push(x);
        }
        s
    }

    /// Records one measured execution time.
    pub fn push(&mut self, sample: Nanos) {
        self.count += 1;
        self.sum += sample.as_nanos();
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Merges another statistic into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }

    /// Number of recorded instances.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, in nanoseconds (exact, unlike the
    /// rounded [`ExecStats::macet`]).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Measured best-case execution time.
    pub fn mbcet(&self) -> Option<Nanos> {
        self.min
    }

    /// Measured worst-case execution time.
    pub fn mwcet(&self) -> Option<Nanos> {
        self.max
    }

    /// Measured average execution time (rounded to the nanosecond).
    pub fn macet(&self) -> Option<Nanos> {
        if self.count == 0 {
            None
        } else {
            Some(Nanos::from_nanos(
                ((self.sum as f64 / self.count as f64).round()) as u64,
            ))
        }
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mbcet(), self.macet(), self.mwcet()) {
            (Some(b), Some(a), Some(w)) => write!(
                f,
                "mBCET={:.2}ms mACET={:.2}ms mWCET={:.2}ms (n={})",
                b.as_millis_f64(),
                a.as_millis_f64(),
                w.as_millis_f64(),
                self.count
            ),
            _ => write!(f, "no samples"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = ExecStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mbcet(), None);
        assert_eq!(s.macet(), None);
        assert_eq!(s.mwcet(), None);
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn merge_equals_pooled() {
        let all: Vec<Nanos> = (1..=10).map(Nanos::from_millis).collect();
        let pooled = ExecStats::from_samples(all.iter().copied());
        let mut a = ExecStats::from_samples(all[..4].iter().copied());
        let b = ExecStats::from_samples(all[4..].iter().copied());
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = ExecStats::from_samples([Nanos::from_millis(2)]);
        let before = s.clone();
        s.merge(&ExecStats::new());
        assert_eq!(s, before);
        let mut e = ExecStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn display_formats_millis() {
        let s = ExecStats::from_samples([Nanos::from_millis(2), Nanos::from_millis(4)]);
        let txt = s.to_string();
        assert!(txt.contains("mBCET=2.00ms"), "{txt}");
        assert!(txt.contains("mWCET=4.00ms"), "{txt}");
        assert!(txt.contains("n=2"), "{txt}");
    }
}
