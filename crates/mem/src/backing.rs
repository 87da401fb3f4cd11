//! Functional (value-carrying) backing store.
//!
//! The timing model decides *when* a line reaches memory; the backing store
//! records *what* is there, at 64-bit-word granularity. The NVM backing is
//! the ground truth that crash recovery inspects.
//!
//! Storage is line-granular: one map entry holds a whole cache line
//! (`[Word; WORDS_PER_LINE]` plus a written-word mask), so the hot
//! [`Backing::read_line`]/[`Backing::write_line`] pair costs one map
//! lookup instead of eight. The word-level API and semantics are
//! unchanged — the mask keeps "which words were ever written" exact, so
//! [`Backing::len`], [`Backing::iter`] and equality behave as they did
//! when every word was its own entry.
//!
//! A collected image is *frozen* into a shared, immutable base under an
//! empty overlay; writes go to a copy-on-write overlay of lines seeded from
//! the base, mask included. Clones copy only the overlay, and none of this
//! is visible to reads, `len`, `iter` or `==`.

use std::sync::Arc;

use pmacc_types::{FxHashMap, LineAddr, Word, WordAddr, WORDS_PER_LINE};

/// One line's stored words plus the bitmask of explicitly written words.
///
/// Words with a clear mask bit hold zero, so reads never consult the mask;
/// it only keeps the written-word accounting (`len`, `iter`, equality)
/// exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineCell {
    mask: u8,
    words: [Word; WORDS_PER_LINE],
}

impl LineCell {
    const fn empty() -> Self {
        LineCell {
            mask: 0,
            words: [0; WORDS_PER_LINE],
        }
    }
}

/// A frozen image: its lines and their total written words.
#[derive(Debug, Default)]
struct Base {
    lines: FxHashMap<LineAddr, LineCell>,
    written: usize,
}

/// Word-granularity memory contents for one region.
///
/// Unwritten words read as zero, matching zero-initialized simulated RAM.
///
/// # Example
///
/// ```
/// use pmacc_mem::Backing;
/// use pmacc_types::WordAddr;
///
/// let mut b = Backing::new();
/// assert_eq!(b.read_word(WordAddr::new(9)), 0);
/// b.write_word(WordAddr::new(9), 42);
/// assert_eq!(b.read_word(WordAddr::new(9)), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Backing {
    base: Arc<Base>,
    /// The overlay: every line written since the base was frozen.
    lines: FxHashMap<LineAddr, LineCell>,
    /// Total written words of the whole image, kept so `len` is O(1).
    written: usize,
}

impl Backing {
    /// Creates an empty (all-zero) backing store.
    #[must_use]
    pub fn new() -> Self {
        Backing::default()
    }

    /// The image as it was frozen, sharing this one's base (no copy); an
    /// image never frozen has an empty base.
    #[must_use]
    pub fn base(&self) -> Backing {
        Backing {
            base: Arc::clone(&self.base),
            lines: FxHashMap::default(),
            written: self.base.written,
        }
    }

    /// The line's cell: the overlay's, else the base's.
    fn cell(&self, line: LineAddr) -> Option<&LineCell> {
        self.lines.get(&line).or_else(|| self.base.lines.get(&line))
    }

    /// Marks the `mask` words of `line` written and lets `f` store them,
    /// seeding the line's overlay cell from the base on its first write.
    fn write(&mut self, line: LineAddr, mask: u8, f: impl FnOnce(&mut [Word; WORDS_PER_LINE])) {
        let base = &self.base.lines;
        let seed = || base.get(&line).copied().unwrap_or(LineCell::empty());
        let cell = self.lines.entry(line).or_insert_with(seed);
        self.written += (mask & !cell.mask).count_ones() as usize;
        cell.mask |= mask;
        f(&mut cell.words);
    }

    /// Reads one word (zero if never written).
    #[must_use]
    pub fn read_word(&self, addr: WordAddr) -> Word {
        self.cell(addr.line())
            .map_or(0, |c| c.words[addr.index_in_line()])
    }

    /// Writes one word.
    pub fn write_word(&mut self, addr: WordAddr, value: Word) {
        let i = addr.index_in_line();
        self.write(addr.line(), 1 << i, |words| words[i] = value);
    }

    /// Reads a whole line as its eight words.
    #[must_use]
    pub fn read_line(&self, line: LineAddr) -> [Word; WORDS_PER_LINE] {
        self.cell(line).map_or([0; WORDS_PER_LINE], |c| c.words)
    }

    /// Writes a whole line from its eight words.
    pub fn write_line(&mut self, line: LineAddr, values: &[Word; WORDS_PER_LINE]) {
        self.write(line, !0, |words| *words = *values);
    }

    /// Number of distinct words ever written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.written
    }

    /// Whether nothing was ever written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Every line cell of the image once: the overlay's, then — with
    /// `with_base` — the base cells the overlay does not shadow.
    fn cells(&self, with_base: bool) -> impl Iterator<Item = (&LineAddr, &LineCell)> {
        let base = with_base.then_some(&self.base.lines).into_iter().flatten();
        let unshadowed = base.filter(|(l, _)| !self.lines.contains_key(l));
        self.lines.iter().chain(unshadowed)
    }

    /// The words at or above `from` whose values differ, as
    /// `(address, value here, value in other)` in ascending address order.
    /// Values alone count: an unwritten word reads zero, so a written zero
    /// matches it.
    ///
    /// When both images overlay the same frozen base, a line neither
    /// overlay holds is the base's on both sides, so only overlay lines are
    /// visited: the cost follows what was written since the freeze, not
    /// the size of the image. Otherwise every line of both is visited.
    #[must_use]
    pub fn diff(&self, other: &Backing, from: WordAddr) -> Vec<(WordAddr, Word, Word)> {
        let whole = !Arc::ptr_eq(&self.base, &other.base);
        let held_here =
            |l: &LineAddr| self.lines.contains_key(l) || (whole && self.base.lines.contains_key(l));
        let theirs = other.cells(whole).filter(|(l, _)| !held_here(l));
        let mut out = Vec::new();
        for (&line, _) in self.cells(whole).chain(theirs) {
            if line.word(WORDS_PER_LINE - 1) < from {
                continue;
            }
            let (a, b) = (self.read_line(line), other.read_line(line));
            if a == b {
                continue;
            }
            for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                let w = line.word(i);
                if x != y && w >= from {
                    out.push((w, x, y));
                }
            }
        }
        out.sort_unstable_by_key(|&(w, _, _)| w);
        out
    }

    /// Iterates over all written `(address, value)` pairs in ascending
    /// address order (an iteration boundary, so it is sorted for
    /// determinism; callers that need a different order sort themselves).
    pub fn iter(&self) -> impl Iterator<Item = (WordAddr, Word)> + '_ {
        let mut cells: Vec<_> = self.cells(true).collect();
        cells.sort_unstable_by_key(|&(&line, _)| line);
        cells.into_iter().flat_map(|(&line, &cell)| {
            (0..WORDS_PER_LINE)
                .filter(move |i| cell.mask & (1 << i) != 0)
                .map(move |i| (line.word(i), cell.words[i]))
        })
    }
}

impl PartialEq for Backing {
    /// Equal iff the same words were written with the same values.
    fn eq(&self, other: &Self) -> bool {
        self.written == other.written && self.iter().eq(other.iter())
    }
}

impl Eq for Backing {}

impl FromIterator<(WordAddr, Word)> for Backing {
    /// Collects the words (a word's last write wins) and freezes them as the
    /// base, under an empty overlay.
    fn from_iter<I: IntoIterator<Item = (WordAddr, Word)>>(iter: I) -> Self {
        let mut b = Backing::new();
        b.extend(iter);
        b.base = Arc::new(Base {
            lines: std::mem::take(&mut b.lines),
            written: b.written,
        });
        b
    }
}

impl Extend<(WordAddr, Word)> for Backing {
    fn extend<I: IntoIterator<Item = (WordAddr, Word)>>(&mut self, iter: I) {
        for (a, v) in iter {
            self.write_word(a, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        let mut b = Backing::new();
        let line = LineAddr::new(100);
        let vals = [1, 2, 3, 4, 5, 6, 7, 8];
        b.write_line(line, &vals);
        assert_eq!(b.read_line(line), vals);
        assert_eq!(b.read_word(line.word(3)), 4);
    }

    #[test]
    fn unwritten_reads_zero() {
        let b = Backing::new();
        assert_eq!(b.read_line(LineAddr::new(5)), [0; WORDS_PER_LINE]);
        assert!(b.is_empty());
        assert_eq!(b.base(), b, "an image never frozen has an empty base");
    }

    #[test]
    fn collect_and_extend() {
        let mut b: Backing = [(WordAddr::new(1), 10)].into_iter().collect();
        b.extend([(WordAddr::new(2), 20)]);
        assert_eq!(b.read_word(WordAddr::new(1)), 10);
        assert_eq!(b.read_word(WordAddr::new(2)), 20);
    }

    #[test]
    fn word_writes_straddling_lines_round_trip() {
        // Words 6..10 span the boundary between lines 0 and 1.
        let mut b = Backing::new();
        for w in 6..10u64 {
            b.write_word(WordAddr::new(w), 100 + w);
        }
        assert_eq!(b.len(), 4);
        for w in 6..10u64 {
            assert_eq!(b.read_word(WordAddr::new(w)), 100 + w);
        }
        // Each partial line reads back the written words plus zeros.
        let l0 = b.read_line(LineAddr::new(0));
        assert_eq!(&l0[..6], &[0; 6]);
        assert_eq!(&l0[6..], &[106, 107]);
        let l1 = b.read_line(LineAddr::new(1));
        assert_eq!(&l1[..2], &[108, 109]);
        assert_eq!(&l1[2..], &[0; 6]);
    }

    #[test]
    fn len_counts_written_words_not_lines() {
        let mut b = Backing::new();
        b.write_word(WordAddr::new(3), 1);
        b.write_word(WordAddr::new(3), 2); // overwrite: still one word
        assert_eq!(b.len(), 1);
        b.write_word(WordAddr::new(4), 3); // same line, new word
        assert_eq!(b.len(), 2);
        b.write_line(LineAddr::new(0), &[9; WORDS_PER_LINE]);
        assert_eq!(b.len(), WORDS_PER_LINE, "line write covers words 0..8");
        b.write_line(LineAddr::new(2), &[7; WORDS_PER_LINE]);
        assert_eq!(b.len(), 2 * WORDS_PER_LINE);
    }

    #[test]
    fn iter_is_sorted_and_exact() {
        // Insert in a scattered order across several lines; iter() must
        // yield exactly the written words, ascending, with no padding
        // zeros for never-written neighbours (recovery checks rely on
        // "written" staying exact).
        let mut b = Backing::new();
        let writes = [(170u64, 1u64), (3, 2), (99, 3), (8, 4), (168, 5)];
        for (w, v) in writes {
            b.write_word(WordAddr::new(w), v);
        }
        let got: Vec<(u64, u64)> = b.iter().map(|(w, v)| (w.raw(), v)).collect();
        assert_eq!(got, vec![(3, 2), (8, 4), (99, 3), (168, 5), (170, 1)]);
    }

    /// `(word, a, b)` for every word of `a` and `b` below `LineAddr(16)`
    /// at or above `from` whose values differ, read word by word.
    fn naive_diff(a: &Backing, b: &Backing, from: u64) -> Vec<(WordAddr, Word, Word)> {
        (from..16 * WORDS_PER_LINE as u64)
            .map(WordAddr::new)
            .map(|w| (w, a.read_word(w), b.read_word(w)))
            .filter(|&(_, x, y)| x != y)
            .collect()
    }

    #[test]
    fn diff_agrees_on_shared_and_distinct_bases() {
        let base: Backing = (0..40u64).map(|w| (WordAddr::new(w), w + 1)).collect();
        let (mut a, mut b) = (base.clone(), base.clone());
        a.write_word(WordAddr::new(3), 100); // base line, changed in a only
        b.write_word(WordAddr::new(3), 3 + 1); // rewritten to its base value
        b.write_word(WordAddr::new(70), 7); // a line only b's overlay holds
        a.write_line(LineAddr::new(4), &[1, 2, 3, 4, 5, 6, 7, 8]);
        b.write_line(LineAddr::new(4), &[1, 2, 0, 4, 5, 6, 7, 9]);
        let want = vec![
            (WordAddr::new(3), 100, 4),
            (WordAddr::new(34), 3, 0),
            (WordAddr::new(39), 8, 9),
            (WordAddr::new(70), 0, 7),
        ];
        assert_eq!(a.diff(&b, WordAddr::new(0)), want, "shared base");
        assert_eq!(naive_diff(&a, &b, 0), want);
        // The same words, each image frozen into a base of its own.
        let (fa, fb): (Backing, Backing) = (a.iter().collect(), b.iter().collect());
        assert_eq!(fa.diff(&fb, WordAddr::new(0)), want, "distinct bases");
        assert_eq!(
            fa.diff(&b, WordAddr::new(0)),
            want,
            "one frozen, one overlay"
        );
        let flipped: Vec<_> = want.iter().map(|&(w, x, y)| (w, y, x)).collect();
        assert_eq!(b.diff(&a, WordAddr::new(0)), flipped);
        assert!(a.diff(&a.clone(), WordAddr::new(0)).is_empty());
    }

    #[test]
    fn diff_counts_values_not_written_masks() {
        let base: Backing = [(WordAddr::new(1), 5)].into_iter().collect();
        let mut a = base.clone();
        a.write_word(WordAddr::new(2), 0);
        assert_ne!(a, base, "an explicit zero write is a written word...");
        assert!(
            a.diff(&base, WordAddr::new(0)).is_empty(),
            "...but its value equals the unwritten word's"
        );
        assert_eq!(Backing::new().diff(&a, WordAddr::new(0)).len(), 1);
    }

    #[test]
    fn diff_bound_applies_mid_line_and_output_ascends() {
        let mut a = Backing::new();
        let b = Backing::new();
        // Scattered over several lines, written out of order.
        for w in [90u64, 17, 3, 64, 21, 5, 127, 16] {
            a.write_word(WordAddr::new(w), w + 1);
        }
        let all: Vec<u64> = a
            .diff(&b, WordAddr::new(0))
            .iter()
            .map(|&(w, _, _)| w.raw())
            .collect();
        assert_eq!(all, vec![3, 5, 16, 17, 21, 64, 90, 127]);
        // A bound in the middle of line 2 (words 16..24) keeps the bound
        // word and the words above it.
        let from = WordAddr::new(17);
        let bounded: Vec<u64> = a.diff(&b, from).iter().map(|&(w, _, _)| w.raw()).collect();
        assert_eq!(bounded, vec![17, 21, 64, 90, 127]);
        assert_eq!(a.diff(&b, from), naive_diff(&a, &b, 17));
    }

    #[test]
    fn equality_tracks_written_words() {
        let mut a = Backing::new();
        let mut b = Backing::new();
        assert_eq!(a, b);
        a.write_word(WordAddr::new(1), 0);
        assert_ne!(a, b, "an explicit zero write is a written word");
        b.write_word(WordAddr::new(1), 0);
        assert_eq!(a, b);
    }
}
