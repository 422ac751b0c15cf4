//! Wear leveling — inter-line and intra-line (paper §I, §II-C).
//!
//! * **Inter-line**: a Security-Refresh-style scheme (Seong et al., ISCA
//!   2010) remaps logical to physical lines through keyed XOR permutations
//!   that are re-keyed incrementally, spreading hot lines over the whole
//!   memory and defeating malicious wear-out. Two levels of XOR remapping
//!   with independent keys approximate the paper's "perfect" leveling.
//! * **Intra-line**: row shifting (Zhou et al., ISCA 2009) rotates a line's
//!   bytes by one position every `writes_per_shift` writes, so hot bytes
//!   visit every cell of the word-line.
//!
//! Both are exact bijections — the property tests below prove it — which is
//! what lets the lifetime model assume uniform wear.

use reram_workloads::SplitMix64;

/// Security-Refresh-style inter-line wear leveling.
///
/// The address space of `2^bits` lines is permuted by a four-round Feistel
/// network whose round functions are SplitMix64 mixes of the epoch keys,
/// re-keyed on a write-count schedule. A Feistel permutation is a bijection
/// for *any* round function and avalanches every input bit into every
/// output bit — crucial because the physical line's low bits select the
/// bank: a weaker (e.g. XOR/rotate) permutation can map an entire hot set
/// that shares its high logical bits onto a single bank and serialize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityRefresh {
    bits: u32,
    keys: [u64; 4],
    writes_per_refresh: u64,
    writes: u64,
}

impl SecurityRefresh {
    /// Creates leveling over `2^bits` lines, re-keying every
    /// `writes_per_refresh` writes.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 62` and `writes_per_refresh > 0`.
    #[must_use]
    pub fn new(bits: u32, seed: u64, writes_per_refresh: u64) -> Self {
        assert!((2..=62).contains(&bits), "bits must be in 2..=62");
        assert!(writes_per_refresh > 0, "refresh period must be positive");
        let mut s = Self {
            bits,
            keys: [0; 4],
            writes_per_refresh,
            writes: 0,
        };
        s.rekey(seed);
        s
    }

    fn mask(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    fn rekey(&mut self, seed: u64) {
        let mut sm = SplitMix64::new(seed);
        for k in &mut self.keys {
            *k = sm.next_u64();
        }
    }

    /// Physical line for a logical line.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is outside the address space.
    #[must_use]
    pub fn remap(&self, logical: u64) -> u64 {
        assert!(logical <= self.mask(), "address out of range");
        // Unbalanced Feistel over (left: high half, right: low half).
        let rbits = self.bits / 2;
        let lbits = self.bits - rbits;
        let rmask = (1u64 << rbits) - 1;
        let lmask = (1u64 << lbits) - 1;
        let mut l = logical >> rbits;
        let mut r = logical & rmask;
        for (round, &key) in self.keys.iter().enumerate() {
            let f = SplitMix64::new(r ^ key).next_u64();
            // Swap halves; alternate which mask applies to keep the
            // unbalanced halves consistent across rounds.
            let nl = r;
            let nr = (l ^ f) & if round % 2 == 0 { lmask } else { rmask };
            // Re-normalize widths: even rounds produce an lbits-wide right
            // half, so swap the roles back on odd rounds.
            l = nl;
            r = nr;
        }
        // Recombine; after an even number of rounds the widths line up.
        ((l << rbits) | (r & rmask)) & self.mask()
    }

    /// Notes one write; re-keys when the refresh period elapses.
    pub fn on_write(&mut self) {
        self.writes += 1;
        if self.writes.is_multiple_of(self.writes_per_refresh) {
            self.rekey(self.writes ^ self.keys[1].rotate_left(17));
        }
    }

    /// Total writes observed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

/// Intra-line row shifting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowShifter {
    line_bytes: usize,
    writes_per_shift: u64,
    writes: u64,
}

impl RowShifter {
    /// Creates a shifter for `line_bytes`-byte lines, rotating one byte
    /// every `writes_per_shift` writes (the ISCA 2009 design point is 256).
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    #[must_use]
    pub fn new(line_bytes: usize, writes_per_shift: u64) -> Self {
        assert!(line_bytes > 0 && writes_per_shift > 0, "invalid parameters");
        Self {
            line_bytes,
            writes_per_shift,
            writes: 0,
        }
    }

    /// Current rotation of the line, bytes.
    #[must_use]
    pub fn offset(&self) -> usize {
        ((self.writes / self.writes_per_shift) as usize) % self.line_bytes
    }

    /// Physical byte position of logical byte `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of bounds.
    #[must_use]
    pub fn map_byte(&self, b: usize) -> usize {
        assert!(b < self.line_bytes, "byte out of bounds");
        (b + self.offset()) % self.line_bytes
    }

    /// Notes one write to this line.
    pub fn on_write(&mut self) {
        self.writes += 1;
    }

    /// Rotates a line image into its current physical layout.
    ///
    /// # Panics
    ///
    /// Panics if `line` has the wrong length.
    #[must_use]
    pub fn rotate(&self, line: &[u8]) -> Vec<u8> {
        assert_eq!(line.len(), self.line_bytes, "line length mismatch");
        (0..self.line_bytes)
            .map(|p| line[(p + self.line_bytes - self.offset()) % self.line_bytes])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_workloads::Rng64;
    use std::collections::HashSet;

    #[test]
    fn remap_is_a_bijection_small() {
        let sr = SecurityRefresh::new(10, 42, 1000);
        let seen: HashSet<u64> = (0..1024).map(|l| sr.remap(l)).collect();
        assert_eq!(seen.len(), 1024);
        assert!(seen.iter().all(|&p| p < 1024));
    }

    #[test]
    fn rekeying_changes_the_permutation() {
        let mut sr = SecurityRefresh::new(12, 7, 10);
        let before: Vec<u64> = (0..64).map(|l| sr.remap(l)).collect();
        for _ in 0..10 {
            sr.on_write();
        }
        let after: Vec<u64> = (0..64).map(|l| sr.remap(l)).collect();
        assert_ne!(before, after);
    }

    #[test]
    fn hot_line_visits_many_physical_lines() {
        // The property wear leveling exists for: a single hot logical line
        // lands on many distinct physical lines across refresh epochs.
        let mut sr = SecurityRefresh::new(16, 3, 50);
        let mut homes = HashSet::new();
        for _ in 0..40 {
            homes.insert(sr.remap(123));
            for _ in 0..50 {
                sr.on_write();
            }
        }
        assert!(homes.len() > 30, "only {} homes", homes.len());
    }

    /// Randomized cases: 64 by default, 8× under `--features proptest`.
    fn cases() -> usize {
        if cfg!(feature = "proptest") {
            512
        } else {
            64
        }
    }

    #[test]
    fn remap_bijective_any_seed() {
        let mut rng = Rng64::new(0xE1);
        for _ in 0..cases() {
            let seed = rng.next_u64();
            let bits = rng.gen_range_u64(4, 16) as u32;
            let sr = SecurityRefresh::new(bits, seed, 100);
            let n = 1u64 << bits;
            let mut seen = HashSet::new();
            for l in 0..n {
                let p = sr.remap(l);
                assert!(p < n);
                assert!(
                    seen.insert(p),
                    "collision at {l} (seed {seed}, bits {bits})"
                );
            }
        }
    }

    #[test]
    fn shifter_maps_bytes_bijectively() {
        let mut rng = Rng64::new(0xE2);
        for _ in 0..cases() {
            let writes = rng.gen_u64_below(100_000);
            let mut sh = RowShifter::new(64, 256);
            for _ in 0..writes % 2048 {
                sh.on_write();
            }
            let mut seen = HashSet::new();
            for b in 0..64 {
                assert!(seen.insert(sh.map_byte(b)));
            }
        }
    }

    #[test]
    fn shifter_rotates_after_period() {
        let mut sh = RowShifter::new(64, 256);
        assert_eq!(sh.offset(), 0);
        for _ in 0..256 {
            sh.on_write();
        }
        assert_eq!(sh.offset(), 1);
        assert_eq!(sh.map_byte(0), 1);
        assert_eq!(sh.map_byte(63), 0);
    }

    #[test]
    fn rotate_inverts_map_byte() {
        let mut sh = RowShifter::new(8, 1);
        for _ in 0..3 {
            sh.on_write();
        }
        let logical: Vec<u8> = (0..8).collect();
        let physical = sh.rotate(&logical);
        for b in 0..8 {
            assert_eq!(physical[sh.map_byte(b)], logical[b]);
        }
    }
}
