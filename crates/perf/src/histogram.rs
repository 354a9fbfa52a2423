//! A fixed-size latency histogram for long-lived processes.
//!
//! [`SampleWindow`](crate::SampleWindow) keeps every sample (8 B each,
//! sorted on read), which is right for a simulation or a load generator
//! that ends, and wrong for a server that does not. [`LatencyHistogram`]
//! keeps [`BUCKETS`] counters instead: recording is O(1), memory never
//! grows, two histograms merge by adding counters, and a percentile is off
//! by at most half a bucket (2.5%).

/// Lower edge of bucket 0; smaller (and non-positive, and NaN) samples are
/// counted there.
const FLOOR: f64 = 1e-9;
/// Ratio of a bucket's upper edge to its lower edge.
const GROWTH: f64 = 1.05;
/// Bucket count: [`FLOOR`]` · `[`GROWTH`]`^BUCKETS` ≈ 1e6, so one scale
/// covers a nanosecond to days whether samples are seconds or milliseconds.
const BUCKETS: usize = 708;

/// Counts of samples in geometrically spaced buckets, plus the exact
/// count, sum, minimum and maximum.
///
/// Percentiles follow [`percentile`](crate::percentile)'s nearest-rank
/// convention on the bucketed samples: the answer is the geometric middle
/// of the bucket holding that rank, clamped to the observed range — so it
/// is within half a bucket (2.5%) of the exact nearest-rank value, the
/// extremes are exact, a single-sample histogram reports that sample at
/// every quantile, and an empty one reports `0.0` for every statistic.
///
/// # Example
///
/// ```
/// use fluid_perf::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// assert_eq!(h.percentile(0.95), 0.0); // empty
/// for ms in 1..=100 {
///     h.record(f64::from(ms));
/// }
/// assert_eq!(h.len(), 100);
/// assert_eq!(h.mean(), 50.5);
/// assert!((h.percentile(0.5) - 51.0).abs() <= 0.025 * 51.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Counts one sample.
    pub fn record(&mut self, v: f64) {
        // `as usize` saturates: NaN and everything below FLOOR land in
        // bucket 0, everything past the last edge in the last bucket.
        let bucket = ((v / FLOOR).ln() / GROWTH.ln()) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean (exact), or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Nearest-rank percentile, `q` clamped to `[0, 1]`; see the type docs
    /// for the error bound.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.total - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min;
        }
        if rank == self.total - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                let middle = FLOOR * (GROWTH.ln() * (bucket as f64 + 0.5)).exp();
                return middle.clamp(self.min, self.max);
            }
        }
        unreachable!("the counters sum to `total`, which exceeds every rank")
    }

    /// Adds `other`'s samples to this histogram, as if they had been
    /// recorded here.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleWindow;
    use fluid_tensor::Prng;

    /// Log-normal latencies around 2 ms with a long tail, in seconds.
    fn log_normal(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::new(seed);
        (0..n).map(|_| 2e-3 * (0.8 * rng.normal()).exp()).collect()
    }

    #[test]
    fn percentiles_agree_with_the_exact_window_within_one_bucket() {
        let mut hist = LatencyHistogram::new();
        let mut window = SampleWindow::new();
        for v in log_normal(10_000, 7) {
            hist.record(v);
            window.push(v);
        }
        assert_eq!(hist.len(), 10_000);
        assert!((hist.mean() - window.mean()).abs() <= 1e-12);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let (got, want) = (hist.percentile(q), window.percentile(q));
            assert!(
                (got - want).abs() <= (GROWTH - 1.0) * want,
                "q {q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(hist.percentile(0.0), window.percentile(0.0), "min is exact");
        assert_eq!(hist.percentile(1.0), window.max(), "max is exact");
    }

    #[test]
    fn a_million_records_take_the_room_of_one() {
        let mut h = LatencyHistogram::new();
        h.record(1e-3);
        let one = h.clone();
        for v in log_normal(1_000_000, 3) {
            h.record(v);
        }
        assert_eq!(h.len(), 1_000_001);
        // All state is inline (the type owns no heap buffer), so its size
        // is its whole footprint.
        assert_eq!(std::mem::size_of_val(&h), std::mem::size_of_val(&one));
        assert_eq!(h.counts.len(), BUCKETS);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_place() {
        let samples = log_normal(2_000, 11);
        let (left, right) = samples.split_at(700);
        let mut whole = LatencyHistogram::new();
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        samples.iter().for_each(|&v| whole.record(v));
        left.iter().for_each(|&v| a.record(v));
        right.iter().for_each(|&v| b.record(v));
        a.merge(&b);
        assert_eq!(a.counts, whole.counts);
        assert_eq!(a.len(), whole.len());
        assert_eq!(a.percentile(0.95), whole.percentile(0.95));
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.percentile(0.0), whole.percentile(0.0), "empty is neutral");
    }

    #[test]
    fn empty_single_and_out_of_range_samples() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!((h.mean(), h.percentile(0.5)), (0.0, 0.0));
        h.record(4.0);
        for q in [0.0, 0.5, 0.99] {
            assert_eq!(h.percentile(q), 4.0, "one sample is every quantile");
        }
        // Below the floor, zero and past the last edge: counted, clamped.
        let mut h = LatencyHistogram::new();
        for v in [0.0, 1e-12, 1e9] {
            h.record(v);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(1.0), 1e9);
    }
}
