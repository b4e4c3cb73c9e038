//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller takes at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail of a sample: the highest whole percentile that still has at
/// least `min_beyond` samples ranked after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, 1..=99.
    pub percentile: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked after the value (at least `min_beyond`).
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Picks the highest percentile `q` whose nearest-rank value (rank
/// `⌈q·N/100⌉`, 1-based) leaves at least `min_beyond` samples after it.
/// `None` when the sample is too small to leave that many.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    let s = sorted(xs);
    (1..=99u32).rev().find_map(|q| {
        let rank = (q as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= min_beyond).then(|| Tail {
            percentile: q,
            value: s[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled order: selection must not depend on input order
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_min_beyond_plus_one_samples() {
        assert_eq!(tail(&ramp(10), 10), None);
        let t = tail(&ramp(11), 10).expect("eleven samples leave ten beyond the first");
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
        assert_eq!(t.percentile, 9, "rank ⌈9·11/100⌉ = 1; p10 would be rank 2");
    }

    #[test]
    fn tail_of_a_hundred_samples_is_p90() {
        let t = tail(&ramp(100), 10).expect("enough samples");
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_always_leaves_at_least_min_beyond() {
        for n in 11..300 {
            let t = tail(&ramp(n), 10).expect("n > 10");
            assert!(t.beyond >= 10, "n={n}: {t:?}");
            // one percentile higher would leave fewer than ten
            let rank_up = ((t.percentile as usize + 1) * n).div_ceil(100);
            assert!(t.percentile == 99 || n - rank_up < 10, "n={n}: {t:?} is not the highest");
        }
    }

    #[test]
    fn tail_of_a_thousand_samples_is_p99() {
        let t = tail(&ramp(1000), 10).expect("enough samples");
        assert_eq!((t.percentile, t.beyond), (99, 10));
    }
}
