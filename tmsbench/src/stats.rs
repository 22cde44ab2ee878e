//! Small measurement helpers: percentiles, medians, seed mixing, process
//! memory.

/// SplitMix64 finalizer: derives well-spread sub-seeds from the workload
/// seed, so neighbouring `--seed` values give unrelated inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `k`-th sub-seed of `seed`, kept below 2^32 so that library code
/// adding small offsets to it (`seed + 10_000 + tenant`) never overflows.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed ^ splitmix64(k.wrapping_add(1))) >> 32
}

/// Nearest-rank `q`-quantile (0 < q ≤ 1) of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// The tail quantile a sample of `n` supports: the highest of p99, p95,
/// p90 and p75 that leaves at least ten samples beyond it, else the
/// median.
pub fn tail_quantile(n: usize) -> f64 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|pct| n * (100 - pct) >= 10 * 100)
        .map_or(0.5, |pct| pct as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
    }

    #[test]
    fn sub_seeds_differ_and_stay_small() {
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert!(sub_seed(u64::MAX, u64::MAX) < 1 << 32);
    }
}
