//! Small statistics helpers and a seeded generator.

/// Median of `values` (mean of the middle pair for even lengths);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// The tail the benchmark reports: the highest percentile that still
/// has at least ten samples beyond it. Returns `(percentile, value)`;
/// with ten samples or fewer it falls back to the maximum.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return Some((100.0, v[n - 1]));
    }
    // Index n-11 leaves exactly ten samples above it.
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// The nearest-rank `pct` percentile of `values`: the smallest value
/// with at least `pct`% of the samples at or below it.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * pct / 100.0).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// SplitMix64: a tiny, seedable, well-mixed generator. Every input the
/// benchmark generates comes from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_cafe_f00d_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// FNV-1a over byte chunks: the output digests the checks compare.
pub fn fnv(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
