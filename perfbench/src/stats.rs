//! Order statistics and interval arithmetic shared by every workload.

/// Fewest samples that must lie strictly above a reported percentile, so a
/// tail figure never rests on one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Arithmetic mean, or `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Self time of a span `[begin, end)`: its duration minus the part of it
/// covered by `children` (which may overlap each other, run on other
/// threads, or stick out of the parent).
pub fn self_time_ns(begin: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(b, e)| (b.max(begin), e.min(end)))
        .filter(|&(b, e)| b < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (b, e) in clipped {
        open = match open {
            Some((ob, oe)) if b <= oe => Some((ob, oe.max(e))),
            Some((ob, oe)) => {
                covered += oe - ob;
                Some((b, e))
            }
            None => Some((b, e)),
        };
    }
    if let Some((ob, oe)) = open {
        covered += oe - ob;
    }
    end.saturating_sub(begin) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let beyond = hundred.iter().filter(|&&v| v > 90.0).count();
        assert_eq!(beyond, MIN_BEYOND);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&v, 0.5);
        v.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&v, 0.5));
        assert_eq!(p, Some(99.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time_ns(100, 200, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(100, 200, &[(110, 120), (150, 170)]), 70);
        // Overlapping children (two threads) count once.
        assert_eq!(self_time_ns(100, 200, &[(110, 150), (140, 160)]), 50);
        // A child nested in another child counts once.
        assert_eq!(self_time_ns(100, 200, &[(110, 190), (120, 130)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns(100, 200, &[(50, 120), (180, 400)]), 60);
        // Children outside the parent are ignored.
        assert_eq!(self_time_ns(100, 200, &[(0, 50), (300, 400)]), 100);
        // Fully covered.
        assert_eq!(self_time_ns(100, 200, &[(100, 200)]), 0);
    }
}
