//! Sampling and span arithmetic.
//!
//! Timings are reported as a median plus a tail percentile, and the tail
//! is only trusted when at least [`TAIL_MIN_BEYOND`] samples lie beyond
//! it. Percentiles use the nearest-rank definition, so every reported
//! value is a measured sample.

/// Samples that must lie beyond a percentile before it is reported as
/// the run's tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile ladder [`highest_supported`] picks from.
pub const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // The epsilon keeps float noise in `p * n` (0.9 * 100 is not
    // exactly 90) from bumping an exact rank to the next sample.
    let rank = (p * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (in `0..=1`) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// The median (nearest-rank p50) of `values`, in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest percentile on [`LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sorts floats ascending (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// A summary of one timing: its sample count, median, and the tail
/// percentile its metric names.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Samples measured.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The named tail percentile (e.g. 0.9 for a `_p90` metric).
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
    /// The highest ladder percentile the sample count supports.
    pub supported: Option<f64>,
}

impl Summary {
    /// Summarizes `values` with tail percentile `tail_p`.
    pub fn of(values: &[f64], tail_p: f64) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            tail_p,
            tail: percentile(&v, tail_p),
            supported: highest_supported(v.len()),
        }
    }

    /// Does the sample count leave at least [`TAIL_MIN_BEYOND`] samples
    /// beyond the named tail?
    pub fn tail_supported(&self) -> bool {
        beyond(self.n, self.tail_p) >= TAIL_MIN_BEYOND
    }
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// covered by the union of its children's intervals (clipped to the
/// span, overlaps counted once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(0), None);
        let s = Summary::of(&(0..100).map(f64::from).collect::<Vec<_>>(), 0.9);
        assert_eq!((s.n, s.p50, s.tail), (100, 49.0, 89.0));
        assert!(s.tail_supported());
        assert!(!Summary::of(&[1.0; 50], 0.9).tail_supported());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 50), (45, 60)]), 50);
        // Nested children count once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the span.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        // Touching intervals merge without double counting.
        assert_eq!(self_time(0, 10, &[(0, 5), (5, 10)]), 0);
    }
}
