//! Property test of the copy-on-write [`Backing`]: an image frozen from a
//! random base, then written and cloned in random interleavings, must be
//! indistinguishable — reads, `len`, `iter`, `==` and `diff` — from a flat
//! base-less `Backing` that received the same writes. Replayable via
//! `PMACC_PROP_SEED`.

use pmacc_mem::Backing;
use pmacc_prop::Gen;
use pmacc_types::{LineAddr, Word, WordAddr, WORDS_PER_LINE};

/// Lines the test addresses: few enough that writes collide with the
/// base and with each other.
const LINES: u64 = 6;
const WORDS: u64 = LINES * WORDS_PER_LINE as u64;

fn word(g: &mut Gen) -> WordAddr {
    WordAddr::new(g.gen_range(0..WORDS))
}

/// Small values, zero included: a written zero is still a written word.
fn value(g: &mut Gen) -> Word {
    g.gen_range(0..4u64)
}

/// `(word, a, b)` for every word at or above `from` whose values differ,
/// read word by word.
fn naive_diff(a: &Backing, b: &Backing, from: WordAddr) -> Vec<(WordAddr, Word, Word)> {
    (from.raw()..WORDS)
        .map(WordAddr::new)
        .map(|w| (w, a.read_word(w), b.read_word(w)))
        .filter(|&(_, x, y)| x != y)
        .collect()
}

/// Every observable of `overlay` matches the flat `oracle`.
fn assert_same(overlay: &Backing, oracle: &Backing) {
    for w in 0..WORDS {
        let w = WordAddr::new(w);
        assert_eq!(overlay.read_word(w), oracle.read_word(w), "read_word({w})");
    }
    for l in 0..LINES {
        let l = LineAddr::new(l);
        assert_eq!(
            overlay.read_line(l),
            oracle.read_line(l),
            "read_line({l:?})"
        );
    }
    assert_eq!(overlay.len(), oracle.len(), "len");
    assert_eq!(overlay.is_empty(), oracle.is_empty(), "is_empty");
    let got: Vec<(WordAddr, Word)> = overlay.iter().collect();
    let want: Vec<(WordAddr, Word)> = oracle.iter().collect();
    assert_eq!(got, want, "iter");
    assert!(*overlay == *oracle, "overlay == oracle");
    assert!(*oracle == *overlay, "oracle == overlay");
    // And against the same words frozen into a base of their own.
    let refrozen: Backing = want.into_iter().collect();
    assert!(*overlay == refrozen, "== across bases");
}

#[test]
fn overlay_backing_matches_a_flat_copy() {
    pmacc_prop::check("overlay_backing_matches_a_flat_copy", |g| {
        // Duplicate addresses included: the last write of a word wins.
        let initial = g.vec(0..40, |g| (word(g), value(g)));
        let base: Backing = initial.iter().copied().collect();
        let mut flat_base = Backing::new();
        flat_base.extend(initial.iter().copied());
        assert_same(&base, &flat_base);
        // (overlay, oracle) pairs; clones of one another share the base.
        let mut images = vec![(base.clone(), flat_base.clone())];
        for _ in 0..g.gen_range(1..60usize) {
            let i = g.gen_range(0..images.len());
            let (overlay, oracle) = &mut images[i];
            let fork = match g.weighted(&[5, 2, 3, 2, 2]) {
                0 => {
                    let (w, v) = (word(g), value(g));
                    overlay.write_word(w, v);
                    oracle.write_word(w, v);
                    None
                }
                1 => {
                    let l = LineAddr::new(g.gen_range(0..LINES));
                    let vals: [Word; WORDS_PER_LINE] = std::array::from_fn(|_| value(g));
                    overlay.write_line(l, &vals);
                    oracle.write_line(l, &vals);
                    None
                }
                2 => {
                    let w = word(g);
                    assert_eq!(overlay.read_word(w), oracle.read_word(w));
                    None
                }
                3 => {
                    let l = LineAddr::new(g.gen_range(0..LINES));
                    assert_eq!(overlay.read_line(l), oracle.read_line(l));
                    None
                }
                // Clone; later steps let the two copies diverge.
                _ => Some((overlay.clone(), oracle.clone())),
            };
            images.extend(fork);
            let from = word(g);
            let (overlay, oracle) = &images[i];
            assert_same(overlay, oracle);
            assert_same(&overlay.base(), &flat_base);
            // Equality between overlays that share a base agrees with
            // equality of their flat oracles' written words, and so does
            // `diff`, whether it walks overlays only (two images sharing a
            // base) or whole images (an overlay against a flat oracle).
            for (other, other_oracle) in &images {
                let same = oracle.iter().eq(other_oracle.iter());
                assert_eq!(overlay == other, same, "== across clones");
                let want = naive_diff(oracle, other_oracle, from);
                assert_eq!(overlay.diff(other, from), want, "diff across clones");
                assert_eq!(oracle.diff(other_oracle, from), want, "diff, no base");
                assert_eq!(overlay.diff(other_oracle, from), want, "diff across bases");
            }
        }
    });
}
