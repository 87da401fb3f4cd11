//! The recording memory session the data structures run on.

use pmacc_cpu::{Op, Trace};
use pmacc_types::rng::Rng;
use pmacc_types::{layout, Addr, FxHashMap, Word, WordAddr};

use crate::heap::Heap;

/// A functional memory plus trace recorder.
///
/// Data structures execute against the session's word-granularity memory;
/// while recording is on, every access is also appended to the trace that
/// the timing simulation later replays. Setup (building the initial
/// structure) runs with recording *off*, and the memory image at
/// [`MemSession::start_recording`] becomes the simulation's initial NVM/DRAM
/// contents.
///
/// # Example
///
/// ```
/// use pmacc_workloads::MemSession;
/// use pmacc_types::layout;
///
/// let mut s = MemSession::new(1);
/// let a = s.alloc_p(8);
/// s.write(a, 5); // setup, not recorded
/// s.start_recording();
/// let mut v = 0;
/// s.tx(|s| {
///     v = s.read(a);
///     s.write(a, v + 1);
/// });
/// assert_eq!(v, 5);
/// assert_eq!(s.peek(a), 6);
/// assert_eq!(s.trace().transactions(), 1);
/// ```
#[derive(Debug)]
pub struct MemSession {
    pheap: Region,
    vheap: Region,
    /// Words written outside both heaps' allocations.
    other: FxHashMap<WordAddr, Word>,
    /// Every word ever written, in order of its first write.
    first_writes: Vec<WordAddr>,
    initial: Vec<(WordAddr, Word)>,
    trace: Trace,
    recording: bool,
    rng: Rng,
    #[cfg(test)]
    pub(crate) oracle: oracle::MapMemory,
}

/// One heap's allocations as a dense word array: a bump allocator hands
/// out `[base, top)` in address order, so the words live at
/// `words[addr - base]`, grown to the highest word written.
#[derive(Debug)]
struct Region {
    heap: Heap,
    base: u64,
    /// One past the last allocated word, as a word number.
    top: u64,
    words: Vec<Word>,
    /// One bit per word of `words`: written at least once.
    written: Vec<u64>,
}

impl Region {
    fn new(base: Addr) -> Self {
        Region {
            heap: Heap::new(base, 1 << 30),
            base: base.word().raw(),
            top: base.word().raw(),
            words: Vec::new(),
            written: Vec::new(),
        }
    }

    fn alloc(&mut self, words: u64) -> Addr {
        let a = self.heap.alloc_words(words, 8);
        self.top = a.word().raw() + words;
        a
    }

    /// The word's index in `words`, if it lies in an allocation.
    fn index(&self, w: WordAddr) -> Option<usize> {
        let i = w.raw().wrapping_sub(self.base);
        (i < self.top - self.base).then_some(i as usize)
    }

    fn read(&self, i: usize) -> Word {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Stores word `i`; true on its first write.
    fn write(&mut self, i: usize, value: Word) -> bool {
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
            self.written.resize(i / 64 + 1, 0);
        }
        self.words[i] = value;
        let (slot, bit) = (&mut self.written[i / 64], 1 << (i % 64));
        let first = *slot & bit == 0;
        *slot |= bit;
        first
    }
}

impl MemSession {
    /// Creates a session with deterministic randomness from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        MemSession {
            pheap: Region::new(layout::persistent_heap_base()),
            vheap: Region::new(layout::volatile_heap_base()),
            other: FxHashMap::default(),
            first_writes: Vec::new(),
            initial: Vec::new(),
            trace: Trace::new(),
            recording: false,
            rng: Rng::seed_from_u64(seed),
            #[cfg(test)]
            oracle: oracle::MapMemory::default(),
        }
    }

    /// The session's random-number generator.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Allocates `words` line-aligned words on the persistent heap.
    #[must_use]
    pub fn alloc_p(&mut self, words: u64) -> Addr {
        self.pheap.alloc(words)
    }

    /// Allocates `words` line-aligned words on the volatile heap.
    #[must_use]
    pub fn alloc_v(&mut self, words: u64) -> Addr {
        self.vheap.alloc(words)
    }

    /// Switches trace recording on, snapshotting the current memory as the
    /// simulation's initial image: every word written so far, in order of
    /// its first write.
    pub fn start_recording(&mut self) {
        self.initial = self.image().collect();
        #[cfg(test)]
        self.oracle.start_recording();
        self.recording = true;
    }

    /// Reads a 64-bit word (recorded as a load while recording).
    pub fn read(&mut self, addr: Addr) -> Word {
        if self.recording {
            self.trace.push(Op::load(addr));
        }
        let value = self.word(addr.word());
        #[cfg(test)]
        self.oracle.read(addr.word(), value);
        value
    }

    /// Writes a 64-bit word (recorded as a store while recording).
    pub fn write(&mut self, addr: Addr, value: Word) {
        if self.recording {
            self.trace.push(Op::store(addr, value));
        }
        let w = addr.word();
        let first = if let Some(i) = self.pheap.index(w) {
            self.pheap.write(i, value)
        } else if let Some(i) = self.vheap.index(w) {
            self.vheap.write(i, value)
        } else {
            self.other.insert(w, value).is_none()
        };
        if first {
            self.first_writes.push(w);
        }
        #[cfg(test)]
        self.oracle.write(w, value);
    }

    /// Reads without recording (verification helpers).
    #[must_use]
    pub fn peek(&self, addr: Addr) -> Word {
        self.word(addr.word())
    }

    fn word(&self, w: WordAddr) -> Word {
        if let Some(i) = self.pheap.index(w) {
            self.pheap.read(i)
        } else if let Some(i) = self.vheap.index(w) {
            self.vheap.read(i)
        } else {
            self.other.get(&w).copied().unwrap_or(0)
        }
    }

    /// Every word written so far with its value, in first-write order.
    fn image(&self) -> impl Iterator<Item = (WordAddr, Word)> + '_ {
        self.first_writes.iter().map(|&w| (w, self.word(w)))
    }

    /// Records `n` ALU operations.
    pub fn compute(&mut self, n: u32) {
        if self.recording && n > 0 {
            self.trace.push(Op::Compute(n));
        }
    }

    /// Runs `f` inside a transaction (emits `TX_BEGIN`/`TX_END`).
    pub fn tx<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.recording {
            self.trace.push(Op::TxBegin);
        }
        let r = f(self);
        if self.recording {
            self.trace.push(Op::TxEnd);
        }
        r
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the session, returning the trace, the initial image
    /// (memory at [`MemSession::start_recording`], in first-write order)
    /// and the final image.
    #[must_use]
    pub fn finish(self) -> (Trace, Vec<(WordAddr, Word)>, FxHashMap<WordAddr, Word>) {
        let image = self.image().collect();
        (self.trace, self.initial, image)
    }

    /// [`MemSession::finish`] without building the final image.
    pub(crate) fn into_recording(self) -> (Trace, Vec<(WordAddr, Word)>) {
        (self.trace, self.initial)
    }
}

/// The map-backed memory the session kept before its dense heaps, run
/// beside them in test builds as their oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use pmacc_types::{FxHashMap, Word, WordAddr};

    /// Every written word in one hash map; `initial` is the map's
    /// iteration order at recording start.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MapMemory {
        pub(crate) mem: FxHashMap<WordAddr, Word>,
        pub(crate) initial: Vec<(WordAddr, Word)>,
        /// Reads where the session returned another value than the map.
        pub(crate) read_mismatches: usize,
    }

    impl MapMemory {
        pub(crate) fn start_recording(&mut self) {
            self.initial = self.mem.iter().map(|(a, v)| (*a, *v)).collect();
        }

        pub(crate) fn read(&mut self, w: WordAddr, seen: Word) {
            if self.mem.get(&w).copied().unwrap_or(0) != seen {
                self.read_mismatches += 1;
            }
        }

        pub(crate) fn write(&mut self, w: WordAddr, value: Word) {
            self.mem.insert(w, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_not_recorded() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        s.write(a, 1);
        assert!(s.trace().is_empty());
        s.start_recording();
        s.write(a, 2);
        assert_eq!(s.trace().len(), 1);
    }

    #[test]
    fn initial_image_snapshots_setup_state() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        s.write(a, 7);
        s.start_recording();
        s.write(a, 9);
        let (_, initial, final_mem) = s.finish();
        assert_eq!(initial, vec![(a.word(), 7)]);
        assert_eq!(final_mem[&a.word()], 9);
    }

    #[test]
    fn words_outside_both_heaps_are_kept() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        let past_p = a.offset(64); // persistent, but beyond every allocation
        let dram = Addr::new(64); // below the volatile heap
        let pool = layout::shared_pool_base();
        s.write(past_p, 1);
        s.write(a, 2);
        s.write(dram, 3);
        s.write(past_p, 4);
        s.write(pool, 0);
        assert_eq!((s.peek(past_p), s.peek(dram), s.peek(pool)), (4, 3, 0));
        assert_eq!(s.peek(pool.offset(8)), 0, "unwritten words read zero");
        s.start_recording();
        assert_eq!(s.read(dram), 3);
        s.write(dram, 5);
        let oracle = s.oracle.clone();
        assert_eq!(oracle.read_mismatches, 0);
        let (_, initial, final_image) = s.finish();
        let first_writes = [(past_p, 4), (a, 2), (dram, 3), (pool, 0)];
        assert_eq!(initial, first_writes.map(|(a, v)| (a.word(), v)));
        assert_eq!(final_image, oracle.mem);
        assert_eq!(final_image[&dram.word()], 5);
    }

    #[test]
    fn a_written_zero_is_part_of_the_image() {
        let mut s = MemSession::new(0);
        let a = s.alloc_v(16);
        s.write(a.offset(8 * 9), 0);
        s.write(a, 6);
        s.start_recording();
        let (_, initial, _) = s.finish();
        assert_eq!(initial, vec![(a.offset(8 * 9).word(), 0), (a.word(), 6)]);
    }

    #[test]
    fn heaps_are_disjoint_regions() {
        let mut s = MemSession::new(0);
        assert!(s.alloc_p(8).is_persistent());
        assert!(!s.alloc_v(8).is_persistent());
    }

    #[test]
    fn reads_see_writes_in_program_order() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        s.start_recording();
        s.write(a, 3);
        assert_eq!(s.read(a), 3);
        s.write(a, 4);
        assert_eq!(s.read(a), 4);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = MemSession::new(5);
        let mut b = MemSession::new(5);
        let x: u64 = a.rng().gen();
        let y: u64 = b.rng().gen();
        assert_eq!(x, y);
    }
}
