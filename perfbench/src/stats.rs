//! Order statistics over latency samples, and the result digest.

/// Samples that must lie beyond a reported percentile: with fewer, the
/// percentile is one or two outliers rather than a property of the run.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts). Sorts in
/// place. Panics on an empty slice: every caller has measured something.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of an ascending slice, or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    let beyond = sorted.len().checked_sub(rank)?;
    (rank >= 1 && beyond >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// FNV-1a over a sequence of strings, order-sensitive, with a separator
/// so `["ab", "c"]` and `["a", "bc"]` differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.95), Some(190));
        assert_eq!(percentile(&v[..199], 0.95), None, "199 samples leave 9 beyond rank 190");
        assert_eq!(percentile(&v, 0.5), Some(100));
        assert_eq!(percentile(&[], 0.95), None);
    }

    #[test]
    fn digest_depends_on_order_and_boundaries() {
        let fold = |parts: &[&str]| {
            let mut d = Digest::default();
            parts.iter().for_each(|p| d.fold(p));
            d
        };
        assert_eq!(fold(&["ab", "c"]), fold(&["ab", "c"]));
        assert_ne!(fold(&["ab", "c"]), fold(&["a", "bc"]));
        assert_ne!(fold(&["a", "b"]), fold(&["b", "a"]));
    }
}
