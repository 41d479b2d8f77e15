//! Exact quantiles over raw samples.
//!
//! Deliberately not `HistogramSnapshot::percentile`: that reports the upper
//! edge of a log₂ bucket, so every latency between 16.8 and 33.6 ms reads
//! as 33.554431 ms.

/// Fewest samples a p99 may be reported from: ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of ascending `sorted`: the
/// smallest sample with at least `q·n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples.to_vec()), 0.5)
}

/// p50, p90 and p99 of latency samples.
#[derive(Debug, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// [`Latency`] of `samples`; an error below [`MIN_P99_SAMPLES`].
pub fn latency(samples: &[f64]) -> Result<Latency, String> {
    if samples.len() < MIN_P99_SAMPLES {
        return Err(format!(
            "p99 needs at least {MIN_P99_SAMPLES} samples, got {}",
            samples.len()
        ));
    }
    let s = sorted(samples.to_vec());
    Ok(Latency {
        p50: nearest_rank(&s, 0.5),
        p90: nearest_rank(&s, 0.9),
        p99: nearest_rank(&s, 0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_sets() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&s, 0.5), 2.0);
        assert_eq!(nearest_rank(&s, 0.51), 3.0);
        assert_eq!(nearest_rank(&s, 1.0), 4.0);
        assert_eq!(nearest_rank(&s, 0.01), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quantiles_are_exact_and_p99_is_refused_below_1000_samples() {
        // 1..=1000 shuffled: every quantile is an exact sample.
        let v: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000 + 1) as f64).collect();
        assert_eq!(
            latency(&v),
            Ok(Latency {
                p50: 500.0,
                p90: 900.0,
                p99: 990.0
            })
        );
        assert!(latency(&v[..999]).is_err());
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
