//! SplitMix64 — the repo's standard tiny deterministic generator, here
//! feeding exponential inter-arrival and think times for both load
//! planes.

pub(crate) struct SplitMix64(pub u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1] — never 0, so `ln` stays finite.
    pub fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.uniform().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SplitMix64(7);
        let n = 20_000;
        let mean = 2.5e-3;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.05 * mean, "{got} vs {mean}");
    }
}
