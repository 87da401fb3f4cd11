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

    /// Iterates over all written `(address, value)` pairs in ascending
    /// address order (an iteration boundary, so it is sorted for
    /// determinism; callers that need a different order sort themselves).
    pub fn iter(&self) -> impl Iterator<Item = (WordAddr, Word)> + '_ {
        let (overlay, base) = (&self.lines, &self.base.lines);
        let unshadowed = base.iter().filter(|(l, _)| !overlay.contains_key(l));
        let mut cells: Vec<_> = overlay.iter().chain(unshadowed).collect();
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
