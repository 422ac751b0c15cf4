//! Seeded trace generation from a [`BenchProfile`].

use crate::rng::{Chance, Rng64};
use crate::BenchProfile;

/// Bytes in a memory line.
pub const LINE_BYTES: usize = 64;

/// What an access does.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessKind {
    /// A demand read of one line.
    Read {
        /// Flat line address.
        line: u64,
    },
    /// A write-back of one line.
    Write {
        /// Flat line address.
        line: u64,
        /// Heat percentile of the line (0 = hottest) — what SCH schedules on.
        heat: f64,
        /// The line's previous contents.
        old: Box<[u8; LINE_BYTES]>,
        /// The new contents.
        new: Box<[u8; LINE_BYTES]>,
    },
}

/// One memory access plus the number of instructions the core executed
/// since the previous one.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Instructions executed before this access.
    pub icount_gap: u64,
    /// The access itself.
    pub kind: AccessKind,
}

/// An [`Access`] whose write data stay inline instead of in two heap
/// boxes: what [`TraceGenerator::next_inline`] draws for hot loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InlineAccess {
    /// Instructions executed before this access.
    pub icount_gap: u64,
    /// Flat line address.
    pub line: u64,
    /// The write-back's heat and data; `None` for a demand read.
    pub write: Option<LineWrite>,
}

/// The payload of a write-back, held inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineWrite {
    /// Heat percentile of the line (0 = hottest) — what SCH schedules on.
    pub heat: f64,
    /// The line's previous contents.
    pub old: [u8; LINE_BYTES],
    /// The new contents.
    pub new: [u8; LINE_BYTES],
}

/// An endless, deterministic stream of [`Access`]es matching a profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchProfile,
    rng: Rng64,
    address_lines: u64,
    /// `1000 / APKI`: the mean instruction gap between accesses.
    mean_gap: f64,
    /// `WPKI / APKI`: the chance an access is a write-back.
    write: Chance,
    /// The chance an access falls in the hot line set.
    hot: Chance,
    /// The chance a write touches an 8-bit slice.
    touch: Chance,
    /// The chance a touched slice is a dense burst; `None` when the profile
    /// has none, so no draw is spent on it.
    dense: Option<Chance>,
    /// The chance a sparse slice's geometric bit count grows by one.
    more_bits: Chance,
}

impl TraceGenerator {
    /// Default footprint: 2²⁶ distinct lines (4 GB) per workload.
    pub const DEFAULT_ADDRESS_LINES: u64 = 1 << 26;

    /// Creates a generator for `profile` with the given seed.
    #[must_use]
    pub fn new(profile: BenchProfile, seed: u64) -> Self {
        let apki = profile.rpki + profile.wpki;
        // Geometric-ish count with the requested mean, capped at 6.
        let mean_bits = profile.changed_bits_mean.max(1.0);
        let dense = profile.dense_burst_prob;
        Self {
            profile,
            rng: Rng64::new(seed ^ 0xC0FF_EE00_D15E_A5E5),
            address_lines: Self::DEFAULT_ADDRESS_LINES,
            mean_gap: 1000.0 / apki,
            write: Chance::new(profile.wpki / apki),
            hot: Chance::new(profile.hot_fraction),
            touch: Chance::new(profile.slice_touch_prob),
            dense: (dense > 0.0).then(|| Chance::new(dense)),
            more_bits: Chance::new(1.0 - 1.0 / mean_bits),
        }
    }

    /// Restricts the address footprint (useful for small tests).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    #[must_use]
    pub fn with_address_lines(mut self, lines: u64) -> Self {
        assert!(lines > 0, "footprint must be non-empty");
        self.address_lines = lines;
        self
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// Draws a line address and its heat percentile.
    fn draw_line(&mut self) -> (u64, f64) {
        let p = &self.profile;
        if self.rng.gen_chance(self.hot) {
            // Zipf-like rank: hot lines are geometrically more popular.
            let u: f64 = self.rng.next_f64();
            let rank = (u * u * p.hot_lines as f64) as u64; // quadratic skew
            let heat = rank as f64 / p.hot_lines as f64;
            (rank % self.address_lines, heat * 0.5)
        } else {
            (self.rng.gen_u64_below(self.address_lines), 0.995)
        }
    }

    /// Synthesizes an (old, new) line pair with the profile's transition
    /// statistics. The pair is already representative of post-Flip-N-Write
    /// stored state (the generator draws the *changed-cell* distribution
    /// directly, matching Figs. 9/14).
    fn draw_write_data(&mut self, old: &mut [u8; LINE_BYTES], new: &mut [u8; LINE_BYTES]) {
        self.rng.fill_bytes(old);
        *new = *old;
        for byte in new.iter_mut() {
            if !self.rng.gen_chance(self.touch) {
                continue;
            }
            let burst = match self.dense {
                Some(dense) => self.rng.gen_chance(dense),
                None => false,
            };
            let k = if burst {
                // `gen_range_usize(7, 9)`: Lemire's rejection threshold is
                // 0 for a power-of-two span, so the draw is the top bit.
                7 + (self.rng.next_u64() >> 63) as u32
            } else {
                let mut k = 1u32;
                while k < 6 && self.rng.gen_chance(self.more_bits) {
                    k += 1;
                }
                k
            };
            let mut mask = 0u8;
            while mask.count_ones() < k {
                // `gen_u64_below(8)`: the top three bits, as above.
                mask |= 1 << (self.rng.next_u64() >> 61);
            }
            *byte ^= mask;
        }
    }

    /// Generates the next access with its write data inline — the draw
    /// behind [`TraceGenerator::next_access`], without its two boxes.
    pub fn next_inline(&mut self) -> InlineAccess {
        // Exponential inter-arrival around the PKI-implied mean gap.
        let u: f64 = self.rng.gen_range_f64(1e-9, 1.0);
        let icount_gap = (-u.ln() * self.mean_gap).ceil().max(1.0) as u64;
        let is_write = self.rng.gen_chance(self.write);
        let (line, heat) = self.draw_line();
        let write = is_write.then(|| {
            let mut w = LineWrite {
                heat,
                old: [0; LINE_BYTES],
                new: [0; LINE_BYTES],
            };
            self.draw_write_data(&mut w.old, &mut w.new);
            w
        });
        InlineAccess {
            icount_gap,
            line,
            write,
        }
    }

    /// Generates the next access: [`TraceGenerator::next_inline`] with the
    /// write data moved into the boxes of [`AccessKind::Write`]. Both draw
    /// the same stream, access for access.
    pub fn next_access(&mut self) -> Access {
        let a = self.next_inline();
        let kind = match a.write {
            Some(w) => AccessKind::Write {
                line: a.line,
                heat: w.heat,
                old: Box::new(w.old),
                new: Box::new(w.new),
            },
            None => AccessKind::Read { line: a.line },
        };
        Access {
            icount_gap: a.icount_gap,
            kind,
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_changed(old: &[u8; 64], new: &[u8; 64]) -> u32 {
        old.iter()
            .zip(new.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// CRC-32 (IEEE) of everything written through `fmt::Write`, so a
    /// `Debug` rendering is hashed without being collected.
    struct Crc32 {
        table: [u32; 256],
        crc: u32,
    }

    impl Crc32 {
        fn new() -> Self {
            let mut table = [0u32; 256];
            for (i, t) in table.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 == 1 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *t = c;
            }
            Self { table, crc: !0 }
        }
    }

    impl std::fmt::Write for Crc32 {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.crc =
                    self.table[((self.crc ^ u32::from(b)) & 0xFF) as usize] ^ (self.crc >> 8);
            }
            Ok(())
        }
    }

    /// The stream every Table IV profile draws, pinned bit for bit: the CRC
    /// of the `Debug` rendering of its first 20k accesses at seeds 1 and
    /// 2020. Any change to a draw, its order or its float arithmetic moves
    /// these.
    #[test]
    fn streams_are_pinned_for_every_profile() {
        use std::fmt::Write as _;
        const PINNED: [(&str, u32, u32); 11] = [
            ("ast_m", 0x2B07CFFD, 0x73DA1C17),
            ("gem_m", 0xDF0281F8, 0x0B9E0E94),
            ("lbm_m", 0x3A9DCFD8, 0xF95AEA34),
            ("mcf_m", 0xA9D6462A, 0x07EFF20C),
            ("mil_m", 0x28574E47, 0x854C684B),
            ("xal_m", 0x1745A969, 0xA003958C),
            ("zeu_m", 0x465F9445, 0xCA1059DB),
            ("mum_m", 0x0A25653F, 0x0D47D6AD),
            ("tig_m", 0xB3C843B1, 0x7EA717EE),
            ("mix_1", 0x9B3A8B22, 0x5478EDDB),
            ("mix_2", 0x0ED509C4, 0x31D377FD),
        ];
        let mut got = Vec::new();
        for p in BenchProfile::table_iv() {
            let crc = |seed| {
                let mut h = Crc32::new();
                for a in TraceGenerator::new(p, seed).take(20_000) {
                    write!(h, "{a:?}").unwrap();
                }
                !h.crc
            };
            got.push((p.name, crc(1), crc(2020)));
        }
        for (g, want) in got.iter().zip(PINNED) {
            assert_eq!(*g, want, "stream of {} moved (all: {got:x?})", want.0);
        }
    }

    /// The boxed and inline draws are one stream.
    #[test]
    fn inline_and_boxed_draws_agree() {
        let p = BenchProfile::by_name("xal_m").unwrap();
        let mut boxed = TraceGenerator::new(p, 9);
        let mut inline = TraceGenerator::new(p, 9);
        for _ in 0..5_000 {
            let a = boxed.next_access();
            let b = inline.next_inline();
            assert_eq!(a.icount_gap, b.icount_gap);
            match (a.kind, b.write) {
                (AccessKind::Read { line }, None) => assert_eq!(line, b.line),
                (
                    AccessKind::Write {
                        line,
                        heat,
                        old,
                        new,
                    },
                    Some(w),
                ) => {
                    assert_eq!(line, b.line);
                    assert_eq!(heat.to_bits(), w.heat.to_bits());
                    assert_eq!((*old, *new), (w.old, w.new));
                }
                (a, b) => panic!("kinds diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let p = BenchProfile::by_name("mcf_m").unwrap();
        let a: Vec<Access> = TraceGenerator::new(p, 7).take(50).collect();
        let b: Vec<Access> = TraceGenerator::new(p, 7).take(50).collect();
        assert_eq!(a, b);
        let c: Vec<Access> = TraceGenerator::new(p, 8).take(50).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn read_write_mix_matches_pki_ratio() {
        let p = BenchProfile::by_name("mcf_m").unwrap();
        let n = 20_000;
        let writes = TraceGenerator::new(p, 1)
            .take(n)
            .filter(|a| matches!(a.kind, AccessKind::Write { .. }))
            .count();
        let expect = p.wpki / (p.rpki + p.wpki);
        let got = writes as f64 / n as f64;
        assert!((got - expect).abs() < 0.02, "{got} vs {expect}");
    }

    #[test]
    fn instruction_gaps_match_apki() {
        let p = BenchProfile::by_name("tig_m").unwrap();
        let n = 20_000usize;
        let total: u64 = TraceGenerator::new(p, 2)
            .take(n)
            .map(|a| a.icount_gap)
            .sum();
        let apki = n as f64 * 1000.0 / total as f64;
        assert!(
            (apki - (p.rpki + p.wpki)).abs() / (p.rpki + p.wpki) < 0.1,
            "apki = {apki}"
        );
    }

    #[test]
    fn changed_cell_fraction_matches_profile() {
        for name in ["mcf_m", "zeu_m", "tig_m"] {
            let p = BenchProfile::by_name(name).unwrap();
            let mut total = 0u64;
            let mut writes = 0u64;
            for a in TraceGenerator::new(p, 3).take(30_000) {
                if let AccessKind::Write { old, new, .. } = a.kind {
                    total += u64::from(count_changed(&old, &new));
                    writes += 1;
                }
            }
            let frac = total as f64 / (writes as f64 * 512.0);
            let expect = p.mean_changed_frac();
            assert!(
                (frac - expect).abs() / expect < 0.25,
                "{name}: {frac} vs {expect}"
            );
        }
    }

    #[test]
    fn hot_lines_recur() {
        let p = BenchProfile::by_name("ast_m").unwrap();
        let mut seen = std::collections::HashMap::new();
        for a in TraceGenerator::new(p, 4).take(10_000) {
            let line = match a.kind {
                AccessKind::Read { line } => line,
                AccessKind::Write { line, .. } => line,
            };
            *seen.entry(line).or_insert(0u32) += 1;
        }
        let max = seen.values().copied().max().unwrap();
        assert!(max > 20, "hottest line seen only {max} times");
    }

    #[test]
    fn heat_is_low_for_hot_lines() {
        let p = BenchProfile::by_name("ast_m").unwrap();
        let mut hot_heats = Vec::new();
        for a in TraceGenerator::new(p, 5).take(5_000) {
            if let AccessKind::Write { line, heat, .. } = a.kind {
                if line < 64 {
                    hot_heats.push(heat);
                }
            }
        }
        assert!(!hot_heats.is_empty());
        let mean: f64 = hot_heats.iter().sum::<f64>() / hot_heats.len() as f64;
        assert!(mean < 0.5, "hot lines should have low heat: {mean}");
    }
}
