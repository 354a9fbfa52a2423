//! Order statistics for the benchmark's own numbers.
//!
//! The percentile convention is the one `fluid_perf::SampleWindow` and the
//! serving metrics use (nearest rank on the sorted sample), so a client
//! p50 and a server p50 are comparable.

/// Nearest-rank percentile of an already sorted sample: the smallest value
/// with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `(0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `xs` in place (total order, so a stray NaN cannot panic).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// The `q` quantile of an unsorted sample, interpolated between ranks
/// (position `q·(n − 1)` on the sorted sample).
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile rank {q} outside [0, 1]");
    let mut v = xs.to_vec();
    sort(&mut v);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample (mean of the two middle values when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Share of a run's slices taken as undisturbed.
///
/// The reference host is a two-vCPU microVM among other tenants. Their
/// interference comes in episodes of a second or more, sometimes for most
/// of a run, and it only ever slows a slice down. So a run reports what
/// the system did in its least disturbed slices: the value that this share
/// of the slices beat. Over ten runs of one commit on that host the median
/// of a run's slices spread by 2% to 22%, this estimate by 0% to 12%. What
/// it is blind to, a slowdown of the product's own that comes and goes, the
/// whole-window values cover (`bench::Outcome::whole`).
pub const QUIET_SHARE: f64 = 0.10;

/// The quantile `share` in from the good end of `xs`.
pub fn from_good_end(xs: &[f64], better: Better, share: f64) -> f64 {
    match better {
        Better::Higher => quantile(xs, 1.0 - share),
        Better::Lower => quantile(xs, share),
    }
}

/// The value a run reports for a metric measured per slice.
pub fn quiet(xs: &[f64], better: Better) -> f64 {
    from_good_end(xs, better, QUIET_SHARE)
}

/// How many samples lie strictly beyond the `q` percentile's rank. A
/// percentile is only reported when at least [`MIN_TAIL`] samples do
/// (200 samples for a p95).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The sample-count rule: a reported percentile keeps this many samples
/// beyond it.
pub const MIN_TAIL: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.50), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.95), 95.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.001), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 0.5), 30.0);
        assert_eq!(quantile(&xs, 1.0), 50.0);
        assert_eq!(quantile(&xs, 0.875), 45.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quiet_reads_from_the_good_end() {
        // Eleven slices, one disturbed: throughput keeps its quiet level,
        // and so does a latency.
        let mut tput = vec![100.0; 10];
        tput.push(40.0);
        assert_eq!(quiet(&tput, Better::Higher), 100.0);
        let lat: Vec<f64> = (0..=10).map(|i| 1.0 + f64::from(i)).collect();
        assert_eq!(quiet(&lat, Better::Lower), 2.0);
        assert_eq!(quiet(&lat, Better::Higher), 10.0);
        assert_eq!(from_good_end(&lat, Better::Lower, 0.5), 6.0);
    }

    #[test]
    fn sample_count_rule() {
        // p95 keeps ten samples beyond it from 200 samples up.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(5, 1.0), 0);
    }
}
