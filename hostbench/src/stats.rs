//! Order statistics for host timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a sample: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile, by the nearest-rank definition: the sample of rank
    /// `r` (1-based) of `n` is the `100·r/n`-th percentile.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Samples a run takes at least, so that its tail is p60 or higher.
pub const MIN_SAMPLES: usize = 25;

/// The tail of `xs`, or `None` when there are too few samples to leave
/// [`TAIL_BEYOND`] of them beyond any rank.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}
