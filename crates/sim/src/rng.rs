//! Deterministic pseudo-random number generation.
//!
//! The simulator cannot use `rand::thread_rng` (non-deterministic) and we
//! do not want cross-version drift from `StdRng`'s unspecified algorithm,
//! so randomness is produced by a hand-rolled **xoshiro256\*\*** generator
//! seeded through SplitMix64, exactly as the reference implementation
//! recommends. [`SimRng`] also implements [`rand::RngCore`] so the `rand`
//! distribution adaptors (and `proptest` in tests) can drive it.

use rand::RngCore;

/// Deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use bpfstor_sim::SimRng;
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.next(), b.next());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// Forking lets each subsystem (device, workload, per-thread state)
    /// own its own stream so that adding randomness consumption in one
    /// subsystem does not perturb another — crucial for reproducible
    /// A/B comparisons between dispatch modes.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        SimRng::seed(self.next() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next 64 random bits.
    // The name mirrors the xoshiro reference API; `SimRng` is not an
    // `Iterator`, so there is no trait to implement instead.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire rejection sampling: retry while in the biased low zone.
        loop {
            let x = self.next();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 significant bits, the standard conversion.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element index for a non-empty slice length.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed(0xDEAD_BEEF);
        let mut b = SimRng::seed(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut rng = SimRng::seed(42);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed(0).below(0);
    }

    #[test]
    fn range_endpoints() {
        let mut rng = SimRng::seed(9);
        for _ in 0..1_000 {
            let v = rng.range(10, 12);
            assert!((10..12).contains(&v));
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SimRng::seed(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let overlap = (0..64).filter(|_| c1.next() == c2.next()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SimRng::seed(123);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
