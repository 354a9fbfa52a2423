//! Shared helpers for the fluid-bench printouts.

use std::time::Instant;

/// Median wall-clock milliseconds of `f` over `reps` timed runs, after
/// `warmup` untimed ones.
///
/// # Panics
///
/// If `reps` is zero.
pub fn median_ms(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}
