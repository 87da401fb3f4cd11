//! NVM endurance: start-gap wear leveling between line addresses and
//! device rows.
//!
//! NVM cells tolerate a bounded number of writes, so a controller that
//! lets a hot line (a tree root, a log head) sit on the same physical
//! row forever turns that row into the device's lifetime bottleneck.
//! Start-gap (Qureshi et al., MICRO'09) fixes this with two registers
//! and one spare row: for `N` lines the device provisions `N + 1` rows,
//! a *start* register rotates the mapping and a *gap* register names
//! the currently-empty row. Every ψ demand writes the gap moves down by
//! one row — copying exactly one line — so each line slowly visits
//! every row.
//!
//! The mapping for a line at in-region offset `o` is
//!
//! ```text
//! pa = (o + start) mod N;   row = if pa >= gap { pa + 1 } else { pa }
//! ```
//!
//! which is a bijection from `[0, N)` onto `[0, N] \ {gap}` for any
//! `gap` in `[0, N]`. A rotation moves the line *above* the gap into
//! the gap row (`gap` decrements), or — when the gap reaches row 0 —
//! moves the line in row `N` into row 0 and increments `start` (the
//! wrap is also exactly one copy; rows `1..N` keep their contents).
//!
//! This simulator applies start-gap *per region* of
//! [`WearConfig::region_lines`] lines rather than over the whole 16 GiB
//! line space: at reproduction run lengths a single global gap would
//! pass any given hot line essentially never, making the mechanism
//! unmeasurable. Regions keep the state sparse — only written regions
//! materialize — and O(1) per access.
//!
//! Crash semantics: the two registers per region are part of the
//! controller's persistent state (real start-gap keeps them in
//! nonvolatile registers precisely so the mapping survives power
//! failure). [`WearMap::snapshot`] captures them as a [`WearSnapshot`],
//! which can translate a whole [`Backing`] image between logical line
//! space and device row space — the recovery path reconstructs the
//! logical image from the device image before any scheme-level redo.

use pmacc_types::{Cycle, Freq, FxHashMap, LineAddr, WearConfig, WordAddr};

use crate::backing::Backing;

/// Per-region start-gap registers plus the demand-write countdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RegionState {
    /// Rotation offset in `[0, N)`.
    start: u64,
    /// Currently-empty device row in `[0, N]`.
    gap: u64,
    /// Demand writes since the last gap movement.
    writes: u64,
}

impl RegionState {
    /// The state every region begins in: `start = 0`, `gap = N` — the
    /// identity mapping (no offset has `pa >= N`).
    const fn identity(region_lines: u64) -> Self {
        RegionState {
            start: 0,
            gap: region_lines,
            writes: 0,
        }
    }
}

/// Maps an in-region offset to a device row under one region's state.
fn forward(offset: u64, st: &RegionState, n: u64) -> u64 {
    let pa = (offset + st.start) % n;
    if pa >= st.gap {
        pa + 1
    } else {
        pa
    }
}

/// Inverts [`forward`]: device row back to in-region offset. Returns
/// `None` for the gap row, which holds no live line.
fn inverse(row: u64, st: &RegionState, n: u64) -> Option<u64> {
    if row == st.gap {
        return None;
    }
    let pa = if row > st.gap { row - 1 } else { row };
    Some((pa + n - st.start % n) % n)
}

/// The outcome of one demand write through the remapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteMapping {
    /// Device line the demand write lands on.
    pub device: LineAddr,
    /// Device line a gap rotation rewrote (the old gap row receiving
    /// its neighbour's copy), if this write triggered one.
    pub relocated: Option<LineAddr>,
}

/// The live start-gap remapper one memory controller owns.
///
/// Device lines live in a *stretched* address space: region `r` of `N`
/// logical lines occupies device rows `r * (N + 1) .. r * (N + 1) + N`
/// inclusive, so the spare row never aliases a neighbouring region.
/// Bank/row scheduling and per-line wear accounting all use device
/// lines once leveling is on.
#[derive(Debug, Clone)]
pub struct WearMap {
    region_lines: u64,
    interval: u64,
    regions: FxHashMap<u64, RegionState>,
    rotations: u64,
}

impl WearMap {
    /// Creates the remapper for a validated [`WearConfig`].
    #[must_use]
    pub fn new(cfg: &WearConfig) -> Self {
        WearMap {
            region_lines: cfg.region_lines.max(2),
            interval: cfg.gap_write_interval.max(1),
            regions: FxHashMap::default(),
            rotations: 0,
        }
    }

    /// The device line a logical line currently lives on (read path —
    /// never mutates or materializes region state).
    #[must_use]
    pub fn device_line(&self, line: LineAddr) -> LineAddr {
        let n = self.region_lines;
        let region = line.raw() / n;
        let offset = line.raw() % n;
        let st = self
            .regions
            .get(&region)
            .copied()
            .unwrap_or(RegionState::identity(n));
        LineAddr::new(region * (n + 1) + forward(offset, &st, n))
    }

    /// Routes one demand write: returns the device line it lands on and,
    /// every [`WearConfig::gap_write_interval`] writes per region, the
    /// device line the gap rotation rewrote.
    pub fn record_write(&mut self, line: LineAddr) -> WriteMapping {
        let n = self.region_lines;
        let region = line.raw() / n;
        let offset = line.raw() % n;
        let st = self
            .regions
            .entry(region)
            .or_insert(RegionState::identity(n));
        let device = LineAddr::new(region * (n + 1) + forward(offset, st, n));
        st.writes += 1;
        let relocated = if st.writes >= self.interval {
            st.writes = 0;
            // The old gap row receives its neighbour's copy; the
            // vacated row becomes the new gap. The wrap (gap at row 0)
            // moves row N's line into row 0 and advances `start`.
            let target = st.gap;
            if st.gap == 0 {
                st.gap = n;
                st.start = (st.start + 1) % n;
            } else {
                st.gap -= 1;
            }
            self.rotations += 1;
            Some(LineAddr::new(region * (n + 1) + target))
        } else {
            None
        };
        WriteMapping { device, relocated }
    }

    /// Total gap rotations (each one line copy) so far.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Captures the nonvolatile remap registers — what survives a power
    /// failure and lets recovery reconstruct the logical image.
    #[must_use]
    pub fn snapshot(&self) -> WearSnapshot {
        let mut regions: Vec<(u64, u64, u64)> = self
            .regions
            .iter()
            .map(|(&r, st)| (r, st.start, st.gap))
            .collect();
        regions.sort_unstable();
        WearSnapshot {
            region_lines: self.region_lines,
            regions,
        }
    }
}

/// The crash-durable part of a [`WearMap`]: per-region `(start, gap)`
/// registers. Small by construction — one entry per *written* region —
/// and sufficient to translate any image between logical and device
/// address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearSnapshot {
    region_lines: u64,
    /// `(region, start, gap)`, ascending by region.
    regions: Vec<(u64, u64, u64)>,
}

impl WearSnapshot {
    /// Region geometry the snapshot was taken under.
    #[must_use]
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }

    fn state_of(&self, region: u64) -> RegionState {
        match self.regions.binary_search_by_key(&region, |&(r, _, _)| r) {
            Ok(i) => {
                let (_, start, gap) = self.regions[i];
                RegionState {
                    start,
                    gap,
                    writes: 0,
                }
            }
            Err(_) => RegionState::identity(self.region_lines),
        }
    }

    /// Forward-translates one word address (logical → device).
    #[must_use]
    pub fn device_word(&self, w: WordAddr) -> WordAddr {
        let n = self.region_lines;
        let line = w.line().raw();
        let region = line / n;
        let st = self.state_of(region);
        LineAddr::new(region * (n + 1) + forward(line % n, &st, n)).word(w.index_in_line())
    }

    /// Inverse-translates one word address (device → logical); `None`
    /// for the gap row, which holds no live line (only a stale copy).
    #[must_use]
    pub fn logical_word(&self, w: WordAddr) -> Option<WordAddr> {
        let n = self.region_lines;
        let row = w.line().raw();
        let region = row / (n + 1);
        let st = self.state_of(region);
        let offset = inverse(row % (n + 1), &st, n)?;
        Some(LineAddr::new(region * n + offset).word(w.index_in_line()))
    }

    /// Translates a logical memory image into device row space — what a
    /// crash snapshot stores when leveling is enabled.
    #[must_use]
    pub fn to_device(&self, logical: &Backing) -> Backing {
        logical
            .iter()
            .map(|(w, v)| (self.device_word(w), v))
            .collect()
    }

    /// Reconstructs the logical image from a device image — the first
    /// step of crash recovery under wear leveling. Words on gap rows
    /// (stale copies from before the last rotation) are discarded.
    #[must_use]
    pub fn to_logical(&self, device: &Backing) -> Backing {
        device
            .iter()
            .filter_map(|(w, v)| self.logical_word(w).map(|lw| (lw, v)))
            .collect()
    }
}

/// Projects how long the NVM lasts if the run's hottest-line write rate
/// continues until [`WearConfig::cell_write_budget`] is exhausted.
/// Returns seconds; `f64::INFINITY` when nothing was written (or no
/// time passed).
#[must_use]
pub fn projected_lifetime_seconds(
    max_writes_per_line: u64,
    cycles: Cycle,
    freq: Freq,
    cell_write_budget: u64,
) -> f64 {
    if max_writes_per_line == 0 || cycles == 0 {
        return f64::INFINITY;
    }
    let seconds = freq.cycles_to_ns(cycles) * 1e-9;
    cell_write_budget as f64 * seconds / max_writes_per_line as f64
}

/// Projects device lifetime under *ideal* wear leveling, in workload
/// executions: with the scheme's write traffic spread perfectly over
/// every line it touches, each line wears by `writes / lines` per run,
/// so the device survives `budget * lines / writes` runs. This is the
/// scheme-comparison number — it tracks total NVM write traffic (fig9)
/// rather than a single hot line, and is independent of how fast the
/// scheme happens to execute. `f64::INFINITY` when nothing was written.
#[must_use]
pub fn projected_lifetime_runs(
    device_writes: u64,
    lines_written: u64,
    cell_write_budget: u64,
) -> f64 {
    if device_writes == 0 {
        return f64::INFINITY;
    }
    cell_write_budget as f64 * lines_written as f64 / device_writes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg(region_lines: u64, interval: u64) -> WearConfig {
        WearConfig {
            leveling: true,
            region_lines,
            gap_write_interval: interval,
            cell_write_budget: 1_000_000,
        }
    }

    #[test]
    fn identity_before_any_rotation() {
        let m = WearMap::new(&cfg(8, 4));
        for i in 0..8 {
            // Region 0 stretches by one spare row, so the identity map
            // is offset-preserving within the region.
            assert_eq!(m.device_line(LineAddr::new(i)).raw(), i);
        }
        // Second region starts after region 0's spare row.
        assert_eq!(m.device_line(LineAddr::new(8)).raw(), 9);
    }

    #[test]
    fn mapping_stays_bijective_across_rotations() {
        let n = 8;
        let mut m = WearMap::new(&cfg(n, 1)); // rotate on every write
        for step in 0..(3 * (n + 1) * n) {
            let line = LineAddr::new(step % n);
            m.record_write(line);
            let rows: HashSet<u64> = (0..n)
                .map(|i| m.device_line(LineAddr::new(i)).raw())
                .collect();
            assert_eq!(rows.len(), n as usize, "collision after step {step}");
            assert!(rows.iter().all(|r| *r <= n), "row out of range");
        }
        assert_eq!(m.rotations(), 3 * (n + 1) * n);
    }

    #[test]
    fn rotation_moves_exactly_one_line() {
        let n = 8;
        let mut m = WearMap::new(&cfg(n, 1));
        for step in 0..50u64 {
            let before: Vec<u64> = (0..n)
                .map(|i| m.device_line(LineAddr::new(i)).raw())
                .collect();
            let out = m.record_write(LineAddr::new(step % n));
            let after: Vec<u64> = (0..n)
                .map(|i| m.device_line(LineAddr::new(i)).raw())
                .collect();
            let moved: Vec<usize> = (0..n as usize).filter(|&i| before[i] != after[i]).collect();
            assert_eq!(moved.len(), 1, "exactly one line moves per rotation");
            // The moved line lands on the row the rotation rewrote.
            assert_eq!(after[moved[0]], out.relocated.expect("rotated").raw());
        }
    }

    #[test]
    fn snapshot_round_trips_an_image() {
        let n = 16;
        let mut m = WearMap::new(&cfg(n, 2));
        let mut logical = Backing::new();
        for i in 0..40u64 {
            let line = LineAddr::new(i % (2 * n)); // two regions
            m.record_write(line);
            logical.write_word(line.word((i % 8) as usize), 1000 + i);
        }
        let snap = m.snapshot();
        let device = snap.to_device(&logical);
        assert_eq!(device.len(), logical.len());
        let back = snap.to_logical(&device);
        assert_eq!(back, logical, "device image inverts to the logical one");
    }

    #[test]
    fn snapshot_of_untouched_region_is_identity() {
        let m = WearMap::new(&cfg(8, 4));
        let snap = m.snapshot();
        let w = LineAddr::new(100).word(3);
        let d = snap.device_word(w);
        assert_eq!(snap.logical_word(d), Some(w));
    }

    #[test]
    fn gap_row_is_stale_after_reconstruction() {
        let n = 4;
        let mut m = WearMap::new(&cfg(n, 1));
        // One write rotates the gap from row N to row N-1; row N now
        // holds a copy and is no longer part of the live mapping...
        m.record_write(LineAddr::new(0));
        let snap = m.snapshot();
        // ...so the *new* gap row inverts to None.
        let gap_word = LineAddr::new(n - 1).word(0);
        assert_eq!(snap.logical_word(gap_word), None);
    }

    #[test]
    fn lifetime_projection_scales_with_rate() {
        let freq = Freq::ghz(2.0);
        // 1000 writes to the hottest line over 2e9 cycles = 1 second.
        let base = projected_lifetime_seconds(1_000, 2_000_000_000, freq, 1_000_000);
        assert!((base - 1_000.0).abs() < 1e-6, "budget/rate = 1e6/1e3 s");
        // Twice the write rate halves the projection.
        let hot = projected_lifetime_seconds(2_000, 2_000_000_000, freq, 1_000_000);
        assert!((hot - 500.0).abs() < 1e-6);
        assert_eq!(
            projected_lifetime_seconds(0, 100, freq, 1_000_000),
            f64::INFINITY
        );
    }

    #[test]
    fn leveled_lifetime_tracks_total_traffic() {
        // 10k writes over 1k lines: 10 wear per run, budget 1e6 → 1e5 runs.
        let base = projected_lifetime_runs(10_000, 1_000, 1_000_000);
        assert!((base - 100_000.0).abs() < 1e-6);
        // Doubling traffic over the same footprint halves the projection —
        // the ratio between schemes is fig9's write-traffic ratio.
        let heavy = projected_lifetime_runs(20_000, 1_000, 1_000_000);
        assert!((heavy - 50_000.0).abs() < 1e-6);
        assert_eq!(projected_lifetime_runs(0, 0, 1_000_000), f64::INFINITY);
    }
}
