//! Flip-N-Write (Cho & Lee, MICRO 2009).
//!
//! Before a write, the controller reads the old line, compares, and writes
//! only the changed cells; if more than half of a word's cells would change,
//! the word is stored inverted (one flip bit per word) so at most half ever
//! change. With 32-bit words over a 64 B line this caps a write at 256 cell
//! transitions — exactly the charge pump's concurrent-RESET budget
//! (Table III).

/// The outcome of encoding one write of `N` 8-bit slices (a 64 B line by
/// default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnwWrite<const N: usize = 64> {
    /// The cell states to store, per 8-bit slice (already inverted where the
    /// flip bit is set).
    pub stored: [u8; N],
    /// The new flip bit per slice.
    pub flips: [bool; N],
    /// Cells transitioning LRS→HRS (`1→0`), per slice.
    pub resets: [u8; N],
    /// Cells transitioning HRS→LRS (`0→1`), per slice.
    pub sets: [u8; N],
}

impl<const N: usize> FnwWrite<N> {
    /// Total number of cells written.
    #[must_use]
    pub fn cells_written(&self) -> u32 {
        self.resets
            .iter()
            .zip(&self.sets)
            .map(|(r, s)| r.count_ones() + s.count_ones())
            .sum()
    }
}

/// Flip-N-Write encoder/decoder.
///
/// The flip decision is taken per *word* of `word_slices` 8-bit slices —
/// the original design uses 32-bit words (`word_slices = 4`), which is why
/// an individual 8-bit array can still see up to 8 transitions (Fig. 9's
/// rare 7–8-bit RESETs) even though each word changes at most half its
/// cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnwCodec {
    word_slices: usize,
}

impl FnwCodec {
    /// A codec deciding flips per `word_slices`-slice words.
    ///
    /// # Panics
    ///
    /// Panics if `word_slices` is zero.
    #[must_use]
    pub fn new(word_slices: usize) -> Self {
        assert!(word_slices > 0, "word must contain at least one slice");
        Self { word_slices }
    }

    /// The paper's configuration: 32-bit words (one flip bit per 4 slices).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(4)
    }

    /// Encodes a write: given the currently stored cells and flip bits (one
    /// per slice; slices of a word always agree) and the new logical data,
    /// chooses per-word flips minimizing cell transitions and returns the
    /// transition masks.
    ///
    /// The slice count `N` is part of the type, so the result lives inline
    /// (a 64 B line's write is four 64-entry arrays, no heap); a trailing
    /// partial word is decided on its own slices. On a tie the word keeps
    /// the flip bit of its first slice.
    #[must_use]
    pub fn encode<const N: usize>(
        &self,
        old_stored: &[u8; N],
        old_flips: &[bool; N],
        new_logical: &[u8; N],
    ) -> FnwWrite<N> {
        let mut w = FnwWrite {
            stored: [0; N],
            flips: [false; N],
            resets: [0; N],
            sets: [0; N],
        };
        let mut start = 0;
        while start < N {
            let end = (start + self.word_slices).min(N);
            let word = start..end;
            let d_plain: u32 = old_stored[word.clone()]
                .iter()
                .zip(&new_logical[word.clone()])
                .map(|(&o, &p)| (o ^ p).count_ones())
                .sum();
            // Every cell the plain form leaves alone, the inverted form
            // changes, and vice versa.
            let d_flip = 8 * (end - start) as u32 - d_plain;
            // Prefer the representation changing fewer cells; on a tie keep
            // the old flip bit (no metadata churn).
            let use_flip = match d_flip.cmp(&d_plain) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => old_flips[start],
            };
            for s in word {
                let (o, p) = (old_stored[s], new_logical[s]);
                let target = if use_flip { !p } else { p };
                w.resets[s] = o & !target;
                w.sets[s] = target & !o;
                w.stored[s] = target;
                w.flips[s] = use_flip;
            }
            start = end;
        }
        w
    }

    /// Recovers the logical data from stored cells and flip bits.
    #[must_use]
    pub fn decode<const N: usize>(&self, stored: &[u8; N], flips: &[bool; N]) -> [u8; N] {
        std::array::from_fn(|s| if flips[s] { !stored[s] } else { stored[s] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_workloads::Rng64;

    /// Randomized cases per property: 256 by default, 8× that under
    /// `--features proptest`.
    fn cases() -> usize {
        if cfg!(feature = "proptest") {
            2048
        } else {
            256
        }
    }

    #[test]
    fn unchanged_data_writes_nothing() {
        let codec = FnwCodec::paper();
        let old = [0xA5u8; 64];
        let w = codec.encode(&old, &[false; 64], &old);
        assert_eq!(w.cells_written(), 0);
        assert_eq!(w.stored, old);
    }

    #[test]
    fn heavy_change_triggers_flip() {
        let codec = FnwCodec::new(1);
        // All 8 bits would change: flipping changes none.
        let w = codec.encode(&[0xFF], &[false], &[0x00]);
        assert!(w.flips[0]);
        assert_eq!(w.stored[0], 0xFF);
        assert_eq!(w.cells_written(), 0);
    }

    #[test]
    fn exactly_half_keeps_old_flip() {
        let codec = FnwCodec::new(1);
        // 4 of 8 bits change either way: keep flip = false.
        let w = codec.encode(&[0b1111_0000], &[false], &[0b1100_1100]);
        assert!(!w.flips[0]);
        assert_eq!(w.cells_written(), 4);
    }

    #[test]
    fn word_flip_can_concentrate_changes_in_one_slice() {
        // A 32-bit word where flipping wins globally can leave one slice
        // with up to 8 transitions — the Fig. 9 tail.
        let codec = FnwCodec::paper();
        let old = [0xFFu8, 0xFF, 0xFF, 0x55];
        let new = [0x00u8, 0x00, 0x00, 0x55];
        let w = codec.encode(&old, &[false; 4], &new);
        assert!(w.flips[0]);
        // Slice 3 now stores !0x55 = 0xAA: all 8 of its cells changed.
        let per_slice = w.resets[3].count_ones() + w.sets[3].count_ones();
        assert_eq!(per_slice, 8);
        // …but the word as a whole changed at most half its cells.
        assert!(w.cells_written() <= 16);
    }

    /// Decoding the stored state always returns the logical data.
    #[test]
    fn round_trip() {
        let mut rng = Rng64::new(0xF1);
        let codec = FnwCodec::paper();
        for _ in 0..cases() {
            let mut old = [0u8; 64];
            let mut new = [0u8; 64];
            rng.fill_bytes(&mut old);
            rng.fill_bytes(&mut new);
            let old_flips: [bool; 64] = std::array::from_fn(|_| rng.gen_bool(0.5));
            let old_stored: [u8; 64] =
                std::array::from_fn(|s| if old_flips[s] { !old[s] } else { old[s] });
            let w = codec.encode(&old_stored, &old_flips, &new);
            assert_eq!(codec.decode(&w.stored, &w.flips), new);
        }
    }

    /// FNW never writes more than half the cells of any word — the
    /// invariant the 256-RESET pump budget relies on. (Per-word flips
    /// always agree; the old flips must be word-consistent.)
    #[test]
    fn at_most_half_per_word() {
        let mut rng = Rng64::new(0xF2);
        for _ in 0..cases() {
            let mut old_stored = [0u8; 64];
            let mut new = [0u8; 64];
            rng.fill_bytes(&mut old_stored);
            rng.fill_bytes(&mut new);
            let word_flips: [bool; 16] = std::array::from_fn(|_| rng.gen_bool(0.5));
            let old_flips: [bool; 64] = std::array::from_fn(|s| word_flips[s / 4]);
            let w = FnwCodec::paper().encode(&old_stored, &old_flips, &new);
            for word in 0..16 {
                let changed: u32 = (0..4)
                    .map(|k| {
                        let s = word * 4 + k;
                        w.resets[s].count_ones() + w.sets[s].count_ones()
                    })
                    .sum();
                assert!(changed <= 16, "word {word} changed {changed} cells");
            }
            assert!(w.cells_written() <= 256);
        }
    }

    /// Transition masks are disjoint and consistent with the stored data.
    #[test]
    fn masks_consistent() {
        let mut rng = Rng64::new(0xF3);
        for _ in 0..cases() {
            let mut old_stored = [0u8; 16];
            let mut new = [0u8; 16];
            rng.fill_bytes(&mut old_stored);
            rng.fill_bytes(&mut new);
            let w = FnwCodec::paper().encode(&old_stored, &[false; 16], &new);
            #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
            for s in 0..16 {
                assert_eq!(w.resets[s] & w.sets[s], 0);
                assert_eq!((old_stored[s] & !w.resets[s]) | w.sets[s], w.stored[s]);
            }
        }
    }

    /// The slice encoder the fixed-size one replaced, kept verbatim as the
    /// reference it must match bit for bit.
    fn encode_slices(
        word_slices: usize,
        old_stored: &[u8],
        old_flips: &[bool],
        new_logical: &[u8],
    ) -> (Vec<u8>, Vec<bool>, Vec<u8>, Vec<u8>) {
        let (mut stored, mut flips, mut resets, mut sets) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for word in old_stored.chunks(word_slices).zip(
            new_logical
                .chunks(word_slices)
                .zip(old_flips.chunks(word_slices)),
        ) {
            let (old_w, (new_w, flips_w)) = word;
            let d_plain: u32 = old_w
                .iter()
                .zip(new_w)
                .map(|(&o, &p)| (o ^ p).count_ones())
                .sum();
            let d_flip: u32 = old_w
                .iter()
                .zip(new_w)
                .map(|(&o, &p)| (o ^ !p).count_ones())
                .sum();
            let use_flip = match d_flip.cmp(&d_plain) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => flips_w[0],
            };
            for (&o, &p) in old_w.iter().zip(new_w) {
                let target = if use_flip { !p } else { p };
                resets.push(o & !target);
                sets.push(target & !o);
                stored.push(target);
                flips.push(use_flip);
            }
        }
        (stored, flips, resets, sets)
    }

    fn assert_matches_slice_encoder<const N: usize>(
        word_slices: usize,
        old: &[u8; N],
        flips: &[bool; N],
        new: &[u8; N],
    ) {
        let w = FnwCodec::new(word_slices).encode(old, flips, new);
        let (stored, fl, resets, sets) = encode_slices(word_slices, old, flips, new);
        assert_eq!(w.stored.to_vec(), stored);
        assert_eq!(w.flips.to_vec(), fl);
        assert_eq!(w.resets.to_vec(), resets);
        assert_eq!(w.sets.to_vec(), sets);
    }

    /// The fixed-size encoder equals the slice encoder on random lines,
    /// partial trailing words and forced flip ties (exactly half of each
    /// word changing, under either old flip bit).
    #[test]
    fn matches_the_slice_encoder() {
        let mut rng = Rng64::new(0xF4);
        for case in 0..cases() {
            let mut old = [0u8; 64];
            let mut new = [0u8; 64];
            rng.fill_bytes(&mut old);
            rng.fill_bytes(&mut new);
            if case % 2 == 1 {
                // A tie in every byte: four of its eight cells change.
                for (n, o) in new.iter_mut().zip(&old) {
                    *n = o ^ [0x0F, 0xF0, 0x33, 0xCC, 0x55, 0xAA][rng.gen_u64_below(6) as usize];
                }
            }
            let flips: [bool; 64] = std::array::from_fn(|_| rng.gen_bool(0.5));
            for word_slices in [1, 3, 4, 8, 64, 100] {
                assert_matches_slice_encoder(word_slices, &old, &flips, &new);
            }
            let (o5, f5, n5): ([u8; 5], [bool; 5], [u8; 5]) = (
                std::array::from_fn(|s| old[s]),
                std::array::from_fn(|s| flips[s]),
                std::array::from_fn(|s| new[s]),
            );
            assert_matches_slice_encoder(4, &o5, &f5, &n5);
        }
    }
}
