//! In-repo seeded PRNG: SplitMix64 seeding + xoshiro256++ generation.
//!
//! The workspace must build and test with zero registry access, so the
//! `rand` crate is out; this module provides the deterministic randomness
//! the trace generators and the randomized test suites need. xoshiro256++
//! (Blackman & Vigna, 2019) is the reference general-purpose generator of
//! the xoshiro family — 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush
//! — and SplitMix64 is its recommended seed expander: it maps any 64-bit
//! seed (including 0) to a full-entropy state.
//!
//! The API mirrors the subset of `rand::Rng` this workspace used:
//! [`Rng64::gen_bool`], [`Rng64::gen_range_f64`], [`Rng64::gen_range_u64`],
//! [`Rng64::fill_bytes`]. [`Chance`] hoists a fixed probability out of a
//! hot loop without changing a single draw.

/// SplitMix64: a tiny 64-bit generator used to expand seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from any 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A probability hoisted into the integer threshold [`Rng64::gen_chance`]
/// compares against.
///
/// [`Rng64::next_f64`] is `m·2⁻⁵³` for the integer `m = next_u64() >> 11`,
/// and both the conversion and the power-of-two scaling are exact, so
/// `m·2⁻⁵³ < p` ⇔ `m < p·2⁵³` ⇔ `m < ⌈p·2⁵³⌉` (`m` is an integer, and
/// `p·2⁵³` is exact too: scaling by a power of two only moves the
/// exponent). The saturating float-to-integer cast handles the edges the
/// same way the float compare does: `p ≤ 0` or NaN gives 0 (never true),
/// `p ≥ 1` gives at least 2⁵³ (always true, since `m < 2⁵³`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chance(u64);

impl Chance {
    /// The threshold `⌈p·2⁵³⌉` (saturated) standing for probability `p`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        Self((p * (1u64 << 53) as f64).ceil() as u64)
    }
}

/// xoshiro256++: the workspace's general-purpose deterministic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator, expanding `seed` through SplitMix64 (so seed 0
    /// is as good as any other).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64-bit output (xoshiro256++ scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p` (clamped to `[0, 1]`): exactly
    /// `self.next_f64() < p`, decided on the integer side through
    /// [`Chance::new`]. A loop drawing with one `p` many times should build
    /// the [`Chance`] once and call [`Rng64::gen_chance`].
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_chance(Chance::new(p))
    }

    /// True with the probability `c` was built from; consumes one
    /// `next_u64`, the same draw [`Rng64::gen_bool`] makes.
    pub fn gen_chance(&mut self, c: Chance) -> bool {
        self.next_u64() >> 11 < c.0
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + self.next_f64() * (hi - lo)
    }

    /// A uniform integer in `[0, n)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn gen_u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Rejection zone keeps the 128-bit multiply unbiased.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.gen_u64_below(hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_u64(lo as u64, hi as u64) as usize
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference outputs for seed 1234567 (Vigna's splitmix64.c).
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng64::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_looks_uniform() {
        let mut r = Rng64::new(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng64::new(11);
        let hits = (0..20_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac = {frac}");
    }

    /// The integer threshold decides exactly as the float compare it
    /// replaces, at the edges and on ordinary draws.
    #[test]
    fn chance_matches_the_float_compare() {
        let ulp_below_one = 1.0 - f64::EPSILON / 2.0;
        let ps = [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            1.0 / (1u64 << 53) as f64,
            0.3,
            0.5,
            ulp_below_one,
            1.0,
            1.5,
            f64::INFINITY,
            -0.25,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut seeds = Rng64::new(0xC4A1);
        // Draws landing on and right next to each threshold.
        let edge_draws = |p: f64| {
            let t = Chance::new(p).0;
            [
                t.saturating_sub(1),
                t,
                t.saturating_add(1),
                0,
                (1 << 53) - 1,
            ]
            .map(|m: u64| m.min((1 << 53) - 1) << 11)
        };
        for p in ps {
            let draws = (0..2_000).map(|_| seeds.next_u64()).chain(edge_draws(p));
            for x in draws {
                let float = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p;
                let int = x >> 11 < Chance::new(p).0;
                assert_eq!(int, float, "p = {p:e}, x = {x:#x}");
            }
            let mut a = Rng64::new(p.to_bits());
            let mut b = a.clone();
            for _ in 0..500 {
                assert_eq!(a.gen_bool(p), b.next_f64() < p, "p = {p:e}");
            }
        }
    }

    #[test]
    fn bounded_ints_cover_the_range_uniformly() {
        let mut r = Rng64::new(3);
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[r.gen_u64_below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c) - 5000.0).abs() < 500.0,
                "bucket {i} count {c}"
            );
        }
        for _ in 0..1000 {
            let v = r.gen_range_u64(17, 23);
            assert!((17..23).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Rng64::new(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Overwhelmingly unlikely to stay zero everywhere.
        assert!(buf.iter().any(|&b| b != 0));
        let mut again = [0u8; 13];
        Rng64::new(5).fill_bytes(&mut again);
        assert_eq!(buf, again);
    }
}
