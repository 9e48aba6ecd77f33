//! Sampling utilities shared by the generators.

use rand::rngs::SmallRng;
use rand::Rng;

/// Discrete bounded Zipf/power-law sampler over `1..=max`, used to draw
/// out-degrees and popularity ranks. Real graph data has power-law degree
/// distributions (Guideline 2), which is what makes "many adjacency lists
/// are very small" true and property-page locality matter.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities over 1..=max.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `1..=max` with exponent `s` (s ≈ 1.5–2.5
    /// for social graphs).
    pub fn new(max: usize, s: f64) -> Zipf {
        assert!(max >= 1);
        let mut cdf = Vec::with_capacity(max);
        let mut total = 0.0f64;
        for k in 1..=max {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a value in `1..=max`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Expected value of the distribution (to calibrate average degrees).
    pub fn mean(&self) -> f64 {
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (i, &p) in self.cdf.iter().enumerate() {
            mean += (i + 1) as f64 * (p - prev);
            prev = p;
        }
        mean
    }
}

/// Pick an element of a weighted pool: earlier entries are exponentially
/// more likely (rank-biased pick for realistic categorical skew).
pub fn pick_skewed<'a, T>(pool: &'a [T], rng: &mut SmallRng) -> &'a T {
    debug_assert!(!pool.is_empty());
    // Geometric-ish: each step halves the probability, bounded by pool size.
    let mut i = 0usize;
    while i + 1 < pool.len() && rng.gen_bool(0.5) {
        i += 1;
    }
    &pool[i]
}

/// Shuffle an edge table into a random arrival order (real edge files are
/// not grouped by source; this is what interleaves lists within property
/// pages and randomizes edge-column IDs).
pub fn shuffle_edges(table: &mut gfcl_storage::EdgeTable, rng: &mut SmallRng) {
    let n = table.len();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    table.reorder(&perm);
}

/// `Some(value)` with probability `1 - null_fraction`.
pub fn maybe<T>(rng: &mut SmallRng, null_fraction: f64, value: T) -> Option<T> {
    if rng.gen_bool(null_fraction.clamp(0.0, 1.0)) {
        None
    } else {
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_samples_in_range_and_skewed() {
        let z = Zipf::new(100, 2.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 101];
        for _ in 0..10_000 {
            let v = z.sample(&mut rng);
            assert!((1..=100).contains(&v));
            counts[v] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[1] > 10 * counts[10].max(1));
    }

    #[test]
    fn zipf_mean_matches_empirical() {
        let z = Zipf::new(50, 1.8);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let sum: usize = (0..n).map(|_| z.sample(&mut rng)).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - z.mean()).abs() < 0.2, "empirical {emp} vs analytic {}", z.mean());
    }

    #[test]
    fn pick_skewed_prefers_head() {
        let pool = ["a", "b", "c", "d"];
        let mut rng = SmallRng::seed_from_u64(1);
        let mut head = 0;
        for _ in 0..1000 {
            if *pick_skewed(&pool, &mut rng) == "a" {
                head += 1;
            }
        }
        assert!(head > 400);
    }

    #[test]
    fn maybe_respects_fraction() {
        let mut rng = SmallRng::seed_from_u64(2);
        let nulls = (0..1000).filter(|_| maybe(&mut rng, 0.7, ()).is_none()).count();
        assert!((600..800).contains(&nulls));
    }
}
