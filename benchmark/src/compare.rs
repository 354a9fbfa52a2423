//! `fluidbench compare A.json B.json`: holds two result files (a parent's
//! and a change's, or two runs of one commit) against the bounds in
//! `BENCHMARK.json`, one verdict per (end-to-end metric, workload) pair.
//!
//! A reported value is read off the quiet end of its run's blocks (see
//! `stats::QUIET_SHARE`); how far it can be trusted is read off how much
//! further in the next blocks lie. The quiet end says what the code does
//! undisturbed and is blind to a slowdown that comes and goes (a periodic
//! stall, a pause in a pool), so the whole-window value of each metric is
//! held to the same bound, and the share of failed requests to an absolute
//! one.

use crate::json::Json;
use crate::stats::{from_good_end, Better, QUIET_SHARE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The data cannot tell. Either a run never settled (its least
    /// disturbed tenth and quarter of blocks differ by more than the bound,
    /// and the two runs' intervals overlap), or the undisturbed state held
    /// while the whole window got worse by more than the bound: the host's
    /// interference or a slowdown of the product's own that comes and goes,
    /// which one pair of runs cannot tell apart. Run both again.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a comparison: the reported value, the per-block values it
/// was read from, and the metric over the run's whole window.
pub struct Side<'a> {
    pub value: f64,
    pub slices: &'a [f64],
    pub whole: Option<f64>,
}

impl Side<'_> {
    /// How uncertain the value is, as a share of it: the distance between
    /// the quiet tenth and the quiet quarter of the slices. A run that
    /// reached its undisturbed state for a quarter of its slices has the
    /// two nearly equal.
    fn uncertainty(&self, better: Better) -> f64 {
        if self.slices.len() < 2 || self.value == 0.0 {
            return 0.0;
        }
        let tenth = from_good_end(self.slices, better, QUIET_SHARE);
        let quarter = from_good_end(self.slices, better, 0.25);
        (tenth - quarter).abs() / self.value.abs()
    }

    /// The interval the true value lies in.
    fn interval(&self, better: Better) -> (f64, f64) {
        let half = self.uncertainty(better) * self.value.abs();
        (self.value - half, self.value + half)
    }
}

/// By what share of A's value B is worse (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// The verdict for one metric on one workload: the quiet-end values decide
/// first, and a pair they pass is still unresolved when the whole-window
/// value got worse by more than the bound.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    match (judge_quiet(a, b, better, bound), a.whole, b.whole) {
        (Verdict::Ok, Some(wa), Some(wb)) if worsening(wa, wb, better) > bound => {
            Verdict::Unresolved
        }
        (verdict, _, _) => verdict,
    }
}

/// When a run's own blocks leave its value uncertain by more than the
/// bound, the values alone decide nothing: the pair is unresolved unless
/// the two intervals do not overlap.
fn judge_quiet(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let worse = worsening(a.value, b.value, better);
    if a.uncertainty(better) <= bound && b.uncertainty(better) <= bound {
        return if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let ((a_lo, a_hi), (b_lo, b_hi)) = (a.interval(better), b.interval(better));
    let (b_better, b_worse) = match better {
        Better::Higher => (b_lo > a_hi, b_hi < a_lo),
        Better::Lower => (b_hi < a_lo, b_lo > a_hi),
    };
    if b_better {
        Verdict::Ok
    } else if b_worse && worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// By how much the share of failed requests may rise, absolutely: one
/// request in a thousand.
const FAILED_SHARE_BOUND: f64 = 0.001;

/// `failed ÷ attempted` is 0 on a healthy run, so no relative bound fits it
/// and `BENCHMARK.json` cannot list it; it is held to an absolute one here.
pub fn judge_failed_share(a: f64, b: f64) -> Verdict {
    if b - a > FAILED_SHARE_BOUND {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn numbers(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares two suite result files under `bench`'s bounds; prints one line
/// per pair and returns `(regressed, unresolved)` counts.
pub fn compare(bench: &Json, a: &Json, b: &Json) -> Result<(usize, usize), String> {
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
    let (mut regressed, mut unresolved) = (0, 0);
    let mut tally = |verdict| match verdict {
        Verdict::Ok => {}
        Verdict::Regressed => regressed += 1,
        Verdict::Unresolved => unresolved += 1,
    };
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "whole", "bound"
    );
    for w in list("workloads")? {
        let workload = text(w, "name").ok_or("a workload without a name")?;
        let run = |file: &Json, which: &str| -> Result<Json, String> {
            file.get("workloads")
                .and_then(|ws| ws.get(&workload))
                .cloned()
                .ok_or_else(|| format!("{which} has no workload {workload}"))
        };
        let (run_a, run_b) = (run(a, "A")?, run(b, "B")?);
        for m in list("end_to_end")? {
            let metric = text(m, "name").ok_or("a metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("no bound")?;
            let better = match text(m, "better").as_deref() {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let side = |run: &Json, which: &str| -> Result<(f64, Vec<f64>, Option<f64>), String> {
                let value = run
                    .get("metrics")
                    .and_then(|ms| ms.get(&metric))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which} has no {metric} on {workload}"))?;
                let slices = numbers(run.get("slices").and_then(|s| s.get(&metric)));
                let whole = run
                    .get("whole")
                    .and_then(|w| w.get(&metric))
                    .and_then(Json::as_f64);
                Ok((value, slices, whole))
            };
            let (av, a_slices, a_whole) = side(&run_a, "A")?;
            let (bv, b_slices, b_whole) = side(&run_b, "B")?;
            let (sa, sb) = (
                Side {
                    value: av,
                    slices: &a_slices,
                    whole: a_whole,
                },
                Side {
                    value: bv,
                    slices: &b_slices,
                    whole: b_whole,
                },
            );
            let verdict = judge(&sa, &sb, better, bound);
            tally(verdict);
            // Which of the two ways to be unresolved it was.
            let why = match (verdict, judge_quiet(&sa, &sb, better, bound)) {
                (Verdict::Unresolved, Verdict::Ok) => " (whole window)",
                (Verdict::Unresolved, _) => " (unsettled)",
                _ => "",
            };
            let whole = match (a_whole, b_whole) {
                (Some(wa), Some(wb)) => format!("{:+.1}%", 100.0 * worsening(wa, wb, better)),
                _ => "-".into(),
            };
            println!(
                "{workload:<20} {metric:<16} {av:>12.4} {bv:>12.4} {:>+7.1}% {whole:>8} {:>5.0}%  {verdict}{why}",
                100.0 * worsening(av, bv, better),
                100.0 * bound
            );
        }
        let failed_share = |run: &Json, which: &str| -> Result<f64, String> {
            let count = |key: &str| {
                run.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which} has no {key} count on {workload}"))
            };
            Ok(count("failed")? / count("attempted")?.max(1.0))
        };
        let (fa, fb) = (failed_share(&run_a, "A")?, failed_share(&run_b, "B")?);
        let verdict = judge_failed_share(fa, fb);
        tally(verdict);
        println!(
            "{workload:<20} {:<16} {fa:>12.4} {fb:>12.4} {:>+8.4} {:>8} {:>+6.3}  {verdict}",
            "failed_share",
            fb - fa,
            "-",
            FAILED_SHARE_BOUND
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    fn side(value: f64, slices: &[f64]) -> Side<'_> {
        Side {
            value,
            slices,
            whole: None,
        }
    }

    /// Nine slices: the quiet end at `quiet`, each next one `step` worse
    /// (for a lower-is-better metric: higher).
    fn run(quiet: f64, step: f64) -> Vec<f64> {
        (0..9).map(|i| quiet + f64::from(i) * step).collect()
    }

    #[test]
    fn settled_runs_are_judged_on_their_values() {
        let slices = run(100.0, 0.5);
        let a = side(100.0, &slices);
        // Lower is better: +5% is inside a 7% bound, +8% is not.
        assert_eq!(
            judge(&a, &side(105.0, &run(105.0, 0.5)), Lower, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &side(108.0, &run(108.0, 0.5)), Lower, 0.07),
            Verdict::Regressed
        );
        // Higher is better: the same distances the other way round.
        let down = |top: f64| run(top, -0.5);
        let a = side(100.0, &slices);
        assert_eq!(
            judge(&a, &side(95.0, &down(95.0)), Higher, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &side(92.0, &down(92.0)), Higher, 0.07),
            Verdict::Regressed
        );
        // An improvement is never a regression; one value has no scatter.
        assert_eq!(judge(&a, &side(50.0, &[50.0]), Lower, 0.07), Verdict::Ok);
    }

    #[test]
    fn unsettled_runs_are_unresolved_unless_their_intervals_separate() {
        // Each slice 10 worse than the last: the quiet tenth and quarter
        // are 12 apart, 12% of the value, over the 7% bound.
        let slices = run(100.0, 10.0);
        let unsettled = side(108.0, &slices);
        assert!(unsettled.uncertainty(Lower) > 0.07);
        assert_eq!(
            judge(&unsettled, &side(112.0, &run(112.0, 0.5)), Lower, 0.07),
            Verdict::Unresolved
        );
        // B's interval entirely below A's (lower is better): ok.
        assert_eq!(
            judge(&unsettled, &side(60.0, &run(60.0, 0.5)), Lower, 0.07),
            Verdict::Ok
        );
        // Entirely above, and by more than the bound: regressed.
        assert_eq!(
            judge(&unsettled, &side(140.0, &run(140.0, 0.5)), Lower, 0.07),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_whole_window_that_got_worse_leaves_a_passing_pair_unresolved() {
        // The quiet end did not move; one block in five now stalls.
        let slices = run(100.0, 0.5);
        let whole = |w| Side {
            value: 100.0,
            slices: &slices,
            whole: Some(w),
        };
        assert_eq!(
            judge(&whole(104.0), &whole(110.0), Lower, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(&whole(104.0), &whole(125.0), Lower, 0.07),
            Verdict::Unresolved
        );
        // A whole window that got better changes nothing, and neither does
        // a file that carries none.
        assert_eq!(
            judge(&whole(125.0), &whole(104.0), Lower, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(&whole(104.0), &side(100.0, &slices), Lower, 0.07),
            Verdict::Ok
        );
        // It cannot excuse a regression of the quiet end.
        let worse = Side {
            value: 108.0,
            slices: &run(108.0, 0.5),
            whole: Some(104.0),
        };
        assert_eq!(
            judge(&whole(104.0), &worse, Lower, 0.07),
            Verdict::Regressed
        );
    }

    #[test]
    fn failed_share_has_an_absolute_bound() {
        assert_eq!(judge_failed_share(0.0, 0.0), Verdict::Ok);
        assert_eq!(judge_failed_share(0.0, 0.001), Verdict::Ok);
        assert_eq!(judge_failed_share(0.0, 0.002), Verdict::Regressed);
        assert_eq!(judge_failed_share(0.01, 0.0), Verdict::Ok);
    }

    #[test]
    fn worsening_is_a_share_of_a() {
        assert_eq!(worsening(100.0, 110.0, Lower), 0.1);
        assert_eq!(worsening(100.0, 90.0, Higher), 0.1);
        assert_eq!(worsening(100.0, 90.0, Lower), -0.1);
    }
}
