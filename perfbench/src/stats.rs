//! Order statistics used by every workload.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `q` of the samples at or below it (`q` in (0, 1]).
/// Empty input yields 0.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // rank ≤ len
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even counts). Empty input yields 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them; fewer than two values yield that value thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        // Python computes delta after clamping j, so it may leave [0, 4]
        // (extrapolation) for tiny inputs; mirror that exactly.
        let d = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - d) + v[j] * d) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the benchmark's bounds are set against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Windows a timed phase is cut into for [`windowed_percentile`].
pub const WINDOWS: usize = 10;

/// Percentile `q` of timestamped samples `(t, value)` over a phase lasting
/// `t_end`: the median, over [`WINDOWS`] equal time windows, of each
/// window's nearest-rank percentile. A burst of host noise then moves one
/// window, not the result. Only when some window holds too few samples for
/// the percentile to have ten samples beyond it does this fall back to the
/// plain nearest-rank percentile of all samples.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // window index < WINDOWS
pub fn windowed_percentile(samples: &[(f64, f64)], t_end: f64, q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        let w = if t_end > 0.0 {
            ((t / t_end) * WINDOWS as f64).floor().max(0.0) as usize
        } else {
            0
        };
        windows[w.min(WINDOWS - 1)].push(v);
    }
    let needed = (10.0 / (1.0 - q).max(1e-9)).ceil() as usize;
    if windows.iter().any(|w| w.len() < needed) {
        let mut all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        all.sort_by(f64::total_cmp);
        return nearest_rank(&all, q);
    }
    let per_window: Vec<f64> = windows
        .iter_mut()
        .map(|w| {
            w.sort_by(f64::total_cmp);
            nearest_rank(w, q)
        })
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // ceil(0.99 * 10) = 10th value; ceil(0.5 * 10) = 5th.
        assert_eq!(nearest_rank(&ten, 0.99), 10.0);
        assert_eq!(nearest_rank(&ten, 0.5), 5.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // 10 windows × 1000 samples; window w holds values w*1000+1..=w*1000+1000,
        // so its p99 is w*1000+990 and the median over windows is the mean
        // of windows 4 and 5.
        let mut samples = Vec::new();
        for w in 0..10u32 {
            for i in 1..=1000u32 {
                let t = f64::from(w) + f64::from(i) / 1001.0;
                samples.push((t, f64::from(w * 1000 + i)));
            }
        }
        let p99 = windowed_percentile(&samples, 10.0, 0.99);
        assert_eq!(p99, (4990.0 + 5990.0) / 2.0);
        // A window full of outliers moves the result by one window rank,
        // where the pooled percentile would jump to the outliers.
        for s in samples.iter_mut().filter(|s| s.0 < 1.0) {
            s.1 = 1e9;
        }
        assert_eq!(
            windowed_percentile(&samples, 10.0, 0.99),
            (5990.0 + 6990.0) / 2.0
        );
        let mut pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(nearest_rank(&pooled, 0.99), 1e9);
    }

    #[test]
    fn windowed_percentile_falls_back_when_windows_are_thin() {
        let samples: Vec<(f64, f64)> = (1..=20)
            .map(|i| (f64::from(i) / 2.0, f64::from(i)))
            .collect();
        assert_eq!(windowed_percentile(&samples, 10.0, 0.99), 20.0);
        assert_eq!(windowed_percentile(&samples, 10.0, 0.5), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
