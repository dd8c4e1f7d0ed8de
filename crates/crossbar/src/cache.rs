//! Precomputed per-cell conductances for the sparse read path.
//!
//! FeBiM's efficiency claim rests on the crossbar accumulating quantized
//! log-posteriors in a single read cycle; evaluating the FeFET I-V equation
//! (a transcendental softplus) for every cell on every inference throws that
//! away in software. This cache mirrors the hardware instead: the on/off read
//! current of every cell is computed once per programming/variation event,
//! and a read becomes a sparse sum over the activated columns only:
//!
//! ```text
//! I_row = Σ_all off[row][c]  +  Σ_active (on[row][c] - off[row][c])
//!       = row_off_sum[row]   +  Σ_active delta
//! ```
//!
//! so one inference is O(rows × activated columns) with no device-model
//! calls. [`crate::TileGrid`] keeps one cache over its whole logical array
//! and brings it current lazily after any mutation (programming, variation
//! injection, direct cell access).
//!
//! ## The committed summation order
//!
//! The delta sum is evaluated by [`lane_delta_sum`]: four independent
//! accumulator lanes striped over the activation order in chunks of four
//! (an autovectorizable f64x4 shape on stable Rust), a scalar tail for the
//! remainder, combined as
//!
//! ```text
//! ((lane0 + lane1) + (lane2 + lane3)) + tail
//! ```
//!
//! and finally added onto `row_off_sum`. Floating-point addition is not
//! associative, so this order **is** the bit-exactness contract: the cached
//! kernel and the uncached reference oracles evaluate it identically on
//! every tiling, and the crate's property tests pin every
//! remainder case (0–3 trailing columns).
//!
//! ## Packed reads
//!
//! A bit-plane read only senses which state each activated cell holds, so
//! the cache also keeps every cell's on-current digitized through the
//! fabric's level ladder, one small integer per cell. A packed read is then
//! integer bit counting over the activated columns; the uncached reference
//! ([`row_plane_partials`]) digitizes on every call instead. Both produce
//! exact integer partials, so they agree bit for bit.

use crate::read::{Activation, LevelLadder};

/// On/off delta sum over the activated columns in the committed 4-lane
/// order (see the module docs): lanes striped over activation order,
/// combined as `((lane0 + lane1) + (lane2 + lane3)) + tail`.
///
/// `deltas` is indexed by column; every fast and reference read path in
/// this crate funnels through this one function so the floating-point
/// accumulation order can never silently diverge.
#[inline]
pub(crate) fn lane_delta_sum(deltas: &[f64], active_columns: &[usize]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = active_columns.chunks_exact(4);
    for chunk in &mut chunks {
        lanes[0] += deltas[chunk[0]];
        lanes[1] += deltas[chunk[1]];
        lanes[2] += deltas[chunk[2]];
        lanes[3] += deltas[chunk[3]];
    }
    let mut tail = 0.0;
    for &column in chunks.remainder() {
        tail += deltas[column];
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Bit-plane variant of [`lane_delta_sum`]: sums `bit(slot)` for slots
/// `0..count` in the committed 4-lane striping and
/// `((lane0 + lane1) + (lane2 + lane3)) + tail` combine. The closure lets
/// the cached kernel and the uncached oracle plug in their own per-slot bit
/// extraction while guaranteeing the identical summation structure — the same contract [`lane_delta_sum`]
/// pins for analog reads. The summands are exact 0.0/1.0 values, so the
/// partial sums are exact integers in `f64`.
#[inline]
pub(crate) fn lane_bit_sum(count: usize, mut bit: impl FnMut(usize) -> f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let full = count / 4 * 4;
    let mut slot = 0;
    while slot < full {
        lanes[0] += bit(slot);
        lanes[1] += bit(slot + 1);
        lanes[2] += bit(slot + 2);
        lanes[3] += bit(slot + 3);
        slot += 4;
    }
    let mut tail = 0.0;
    for slot in full..count {
        tail += bit(slot);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// One wordline's per-plane partial sums of a packed bit-plane read,
/// appended to `out` (`planes` values, plane 0 = LSB first) — the uncached
/// reference form.
///
/// Every activated column's effective on-current is digitized through the
/// ladder on every call; plane `q` then counts, in the committed 4-lane
/// order, the activated columns whose level has bit `bit_offsets[slot] + q`
/// set (bits past the level's width read as 0). The cached kernel
/// ([`ConductanceCache::plane_partials`]) counts the same bits from the
/// digitized levels it keeps with the conductances; the partials are exact
/// integers, so the two agree bit for bit in any summation order.
pub(crate) fn row_plane_partials(
    mut on_current: impl FnMut(usize) -> f64,
    active_columns: &[usize],
    bit_offsets: &[u8],
    planes: usize,
    ladder: &LevelLadder,
    out: &mut Vec<f64>,
) {
    let levels: Vec<usize> = active_columns
        .iter()
        .map(|&column| ladder.level_for_current(on_current(column)))
        .collect();
    for plane in 0..planes {
        out.push(lane_bit_sum(active_columns.len(), |slot| {
            f64::from(((levels[slot] >> bit_shift(bit_offsets[slot], plane)) & 1) as u32)
        }));
    }
}

/// The shift bringing bit `offset + plane` of a level down to bit 0,
/// capped at 31: checked ladders have at most [`MAX_CACHED_LEVELS`] levels,
/// so every bit from 16 up reads zero.
fn bit_shift(offset: u8, plane: usize) -> usize {
    (usize::from(offset) + plane).min(31)
}

/// Most levels a ladder may have for [`ConductanceCache::build_levels`]:
/// every level must fit the cached `u16`.
pub(crate) const MAX_CACHED_LEVELS: usize = 1 << 16;

/// `SPREAD[digit]` moves bit `b` of `digit` into byte lane `b` of a `u64`,
/// so adding spread digits counts up to eight bit planes at once.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut digit = 0;
    while digit < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[digit] |= ((digit as u64 >> bit) & 1) << (8 * bit);
            bit += 1;
        }
        digit += 1;
    }
    table
};

/// Slots accumulated into the byte lanes between flushes: a lane holds at
/// most 255 set bits before it would carry into its neighbour.
const LANE_CAPACITY: usize = 255;

/// Per-plane bit counts of every wordline from the row-major digitized cell
/// levels (`columns` per row), added onto `partials`
/// (`partials[row * planes + plane]`): plane `q` counts the activated
/// columns whose level has bit `bit_offsets[slot] + q` set.
///
/// Eight planes are counted at once: the level shifted down to a slot's
/// first plane indexes [`SPREAD`], whose byte lanes are summed (lanes past
/// the last plane are summed too and ignored). The slot shifts are the same
/// for every row, so they are worked out once per block of slots.
fn plane_counts<L: Copy + Into<u32>>(
    levels: &[L],
    columns: usize,
    active_columns: &[usize],
    bit_offsets: &[u8],
    planes: usize,
    partials: &mut [f64],
) {
    let mut shifts = [0u32; LANE_CAPACITY];
    for first in (0..planes).step_by(8) {
        let width = (planes - first).min(8);
        for (block, block_offsets) in active_columns
            .chunks(LANE_CAPACITY)
            .zip(bit_offsets.chunks(LANE_CAPACITY))
        {
            let shifts = &mut shifts[..block.len()];
            for (shift, &offset) in shifts.iter_mut().zip(block_offsets) {
                *shift = bit_shift(offset, first) as u32;
            }
            let flush = |lanes: u64, row_partials: &mut [f64]| {
                for (plane, partial) in row_partials[first..first + width].iter_mut().enumerate() {
                    *partial += ((lanes >> (8 * plane)) & 0xFF) as f64;
                }
            };
            // Four rows at a time share each slot's column and shift loads.
            let quads = levels.len() / (4 * columns);
            let (quad_levels, rest_levels) = levels.split_at(quads * 4 * columns);
            let (quad_partials, rest_partials) = partials.split_at_mut(quads * 4 * planes);
            for (rows, row_partials) in quad_levels
                .chunks_exact(4 * columns)
                .zip(quad_partials.chunks_exact_mut(4 * planes))
            {
                let lanes = spread_sums::<L, 4>(rows, columns, block, shifts);
                for (lanes, row_partials) in
                    lanes.into_iter().zip(row_partials.chunks_exact_mut(planes))
                {
                    flush(lanes, row_partials);
                }
            }
            for (row, row_partials) in rest_levels
                .chunks_exact(columns)
                .zip(rest_partials.chunks_exact_mut(planes))
            {
                let [lanes] = spread_sums::<L, 1>(row, columns, block, shifts);
                flush(lanes, row_partials);
            }
        }
    }
}

/// Sums of the [`SPREAD`] digits of `R` consecutive rows (`levels` holds
/// exactly their cells) over one block of slots, the rows sharing each
/// slot's column and shift.
#[inline(always)]
fn spread_sums<L: Copy + Into<u32>, const R: usize>(
    levels: &[L],
    columns: usize,
    block: &[usize],
    shifts: &[u32],
) -> [u64; R] {
    let rows: [&[L]; R] = std::array::from_fn(|row| &levels[row * columns..(row + 1) * columns]);
    let mut lanes = [0u64; R];
    for (&column, &shift) in block.iter().zip(shifts) {
        for (lanes, row) in lanes.iter_mut().zip(rows) {
            let level: u32 = row[column].into();
            // The low byte holds the (up to) eight planes counted.
            *lanes = lanes.wrapping_add(SPREAD[usize::from((level >> shift) as u8)]);
        }
    }
    lanes
}

/// Every cell's digitized level, row-major, in the narrowest integer that
/// holds the ladder's top level.
#[derive(Debug, Clone, PartialEq)]
enum LevelStore {
    Narrow(Vec<u8>),
    Wide(Vec<u16>),
}

/// The ladder level of `on` in a store's integer type, which holds the
/// ladder's top level (checked when the store is built).
fn digitize<L: TryFrom<usize>>(ladder: &LevelLadder, on: f64) -> L {
    L::try_from(ladder.level_for_current(on))
        .ok()
        .expect("the ladder's top level fits the store")
}

/// The digitized levels of a cache plus the ladder that produced them.
#[derive(Debug, Clone, PartialEq)]
struct CellLevels {
    ladder: LevelLadder,
    store: LevelStore,
}

impl CellLevels {
    fn build(ladder: LevelLadder, on: &[f64]) -> Self {
        assert!(
            ladder.levels() <= MAX_CACHED_LEVELS,
            "a {}-level ladder does not fit the cached level type",
            ladder.levels()
        );
        let store = if ladder.levels() <= 1 << 8 {
            LevelStore::Narrow(
                on.iter()
                    .map(|&current| digitize(&ladder, current))
                    .collect(),
            )
        } else {
            LevelStore::Wide(
                on.iter()
                    .map(|&current| digitize(&ladder, current))
                    .collect(),
            )
        };
        Self { ladder, store }
    }

    fn set(&mut self, index: usize, on: f64) {
        let ladder = &self.ladder;
        match &mut self.store {
            LevelStore::Narrow(levels) => levels[index] = digitize(ladder, on),
            LevelStore::Wide(levels) => levels[index] = digitize(ladder, on),
        }
    }
}

/// Struct-of-arrays conductance snapshot of a programmed crossbar.
///
/// All vectors are row-major; `on`/`off`/`delta` hold one entry per cell
/// (`delta = on - off`, precomputed so the read kernel is a pure gather-sum)
/// and `row_off_sums` one entry per row (the accumulated leakage of a fully
/// inhibited wordline, summed in column order). Packed reads additionally
/// keep each cell's on-current digitized to its level: built on demand by
/// [`ConductanceCache::build_levels`], patched by every later
/// [`ConductanceCache::refresh_cell`], dropped by a full rebuild.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConductanceCache {
    columns: usize,
    on: Vec<f64>,
    off: Vec<f64>,
    delta: Vec<f64>,
    row_off_sums: Vec<f64>,
    levels: Option<CellLevels>,
}

impl ConductanceCache {
    /// Builds a cache from an arbitrary per-cell evaluation point
    /// `(row, column) -> (on, off)`, visiting cells in row-major order.
    ///
    /// This is the entry point the non-ideality-aware owners use: the same
    /// closure that builds the cache also drives the uncached reference
    /// oracles and the partial-refresh path, so all three see identical
    /// per-cell currents bit for bit.
    pub(crate) fn build_with(
        rows: usize,
        columns: usize,
        mut eval: impl FnMut(usize, usize) -> (f64, f64),
    ) -> Self {
        let cells = rows * columns;
        let mut on = Vec::with_capacity(cells);
        let mut off = Vec::with_capacity(cells);
        let mut delta = Vec::with_capacity(cells);
        for row in 0..rows {
            for column in 0..columns {
                let (cell_on, cell_off) = eval(row, column);
                on.push(cell_on);
                off.push(cell_off);
                delta.push(cell_on - cell_off);
            }
        }
        let mut row_off_sums = Vec::with_capacity(rows);
        for row in 0..rows {
            let base = row * columns;
            let mut sum = 0.0;
            for column in 0..columns {
                sum += off[base + column];
            }
            row_off_sums.push(sum);
        }
        Self {
            columns,
            on,
            off,
            delta,
            row_off_sums,
            levels: None,
        }
    }

    /// Whether the digitized cell levels are built.
    pub(crate) fn has_levels(&self) -> bool {
        self.levels.is_some()
    }

    /// Digitizes every cached on-current through `ladder`, which must have
    /// at most [`MAX_CACHED_LEVELS`] levels; from now on
    /// [`ConductanceCache::refresh_cell`] keeps the levels current.
    pub(crate) fn build_levels(&mut self, ladder: LevelLadder) {
        self.levels = Some(CellLevels::build(ladder, &self.on));
    }

    /// Overwrites the snapshot of one cell with freshly evaluated currents
    /// (and its digitized level, once built).
    ///
    /// The owning fabric must call
    /// [`ConductanceCache::recompute_row_off_sum`] for the touched row
    /// afterwards; until then the row's off-sum is stale.
    pub(crate) fn refresh_cell(&mut self, row: usize, column: usize, on: f64, off: f64) {
        let index = row * self.columns + column;
        self.on[index] = on;
        self.off[index] = off;
        self.delta[index] = on - off;
        if let Some(levels) = &mut self.levels {
            levels.set(index, on);
        }
    }

    /// Recomputes one row's off-state leakage sum from the stored per-cell
    /// off currents, accumulating in column order — the exact order
    /// [`ConductanceCache::build_with`] uses, so a partial refresh is
    /// bit-identical to a full rebuild.
    pub(crate) fn recompute_row_off_sum(&mut self, row: usize) {
        let base = row * self.columns;
        let mut sum = 0.0;
        for column in 0..self.columns {
            sum += self.off[base + column];
        }
        self.row_off_sums[row] = sum;
    }

    /// Cached `V_on` read current of one cell.
    #[cfg(test)]
    pub(crate) fn on_current(&self, row: usize, column: usize) -> f64 {
        self.on[row * self.columns + column]
    }

    /// On/off current delta of one cell (the contribution an activated
    /// column adds on top of the row's off-state leakage).
    pub(crate) fn delta(&self, row: usize, column: usize) -> f64 {
        self.delta[row * self.columns + column]
    }

    /// The precomputed on/off deltas of one row, indexed by column — the
    /// contiguous slice the 4-lane kernel gathers from.
    pub(crate) fn row_deltas(&self, row: usize) -> &[f64] {
        let base = row * self.columns;
        &self.delta[base..base + self.columns]
    }

    /// Cached off-state leakage current of one cell.
    pub(crate) fn off_current(&self, row: usize, column: usize) -> f64 {
        self.off[row * self.columns + column]
    }

    /// Every cell's cached `V_on` read current, row-major.
    pub(crate) fn on_currents(&self) -> &[f64] {
        &self.on
    }

    /// Accumulated current of one wordline: the row's full off-state leakage
    /// plus the activated columns' on/off deltas in the committed 4-lane
    /// order (see [`lane_delta_sum`]).
    pub(crate) fn wordline_current(&self, row: usize, activation: &Activation) -> f64 {
        self.row_off_sums[row] + lane_delta_sum(self.row_deltas(row), activation.active_columns())
    }

    /// Per-plane partial sums of one packed read over every wordline,
    /// appended to `out` as `[row * planes + plane]` (plane 0 = LSB first):
    /// plane `q` counts the activated columns whose cached level has bit
    /// `bit_offsets[slot] + q` set. Integer bit counting over the levels
    /// built by [`ConductanceCache::build_levels`] — no ladder arithmetic
    /// per read.
    ///
    /// # Panics
    ///
    /// Panics when the levels have not been built.
    pub(crate) fn plane_partials(
        &self,
        active_columns: &[usize],
        bit_offsets: &[u8],
        planes: usize,
        out: &mut Vec<f64>,
    ) {
        let levels = self
            .levels
            .as_ref()
            .expect("cell levels built before a packed read");
        let start = out.len();
        out.resize(start + self.row_off_sums.len() * planes, 0.0);
        let partials = &mut out[start..];
        let columns = self.columns;
        match &levels.store {
            LevelStore::Narrow(store) => plane_counts(
                store,
                columns,
                active_columns,
                bit_offsets,
                planes,
                partials,
            ),
            LevelStore::Wide(store) => plane_counts(
                store,
                columns,
                active_columns,
                bit_offsets,
                planes,
                partials,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::layout::CrossbarLayout;
    use febim_device::FeFetParams;

    /// Builds a cache straight from a cell bank (the ideal-stack evaluation
    /// the owning array uses when no non-ideality is configured).
    fn build(rows: usize, columns: usize, cells: &[Cell]) -> ConductanceCache {
        ConductanceCache::build_with(rows, columns, |row, column| {
            let cell = &cells[row * columns + column];
            (cell.read_current_on(), cell.read_current_off())
        })
    }

    #[test]
    fn cache_matches_fresh_device_evaluations() {
        let layout = CrossbarLayout::new(2, 3, 1, false).unwrap();
        let mut cells: Vec<Cell> = (0..layout.cells())
            .map(|_| Cell::new(FeFetParams::febim_calibrated()))
            .collect();
        cells[1]
            .device_mut()
            .set_polarization(febim_device::Polarization::new(0.6));
        let cache = build(layout.rows(), layout.columns(), &cells);
        for (index, cell) in cells.iter().enumerate() {
            let row = index / layout.columns();
            let column = index % layout.columns();
            assert_eq!(cache.on_current(row, column), cell.read_current_on());
            assert_eq!(cache.off[index], cell.read_current_off());
            assert_eq!(
                cache.delta(row, column),
                cell.read_current_on() - cell.read_current_off()
            );
        }
        // The row off-sum accumulates in column order.
        let expected: f64 = cells[..layout.columns()]
            .iter()
            .fold(0.0, |sum, cell| sum + cell.read_current_off());
        assert_eq!(cache.row_off_sums[0], expected);
    }

    #[test]
    fn sparse_sum_visits_only_active_columns() {
        let layout = CrossbarLayout::new(1, 4, 1, false).unwrap();
        let mut cells: Vec<Cell> = (0..layout.cells())
            .map(|_| Cell::new(FeFetParams::febim_calibrated()))
            .collect();
        for cell in &mut cells {
            cell.device_mut()
                .set_polarization(febim_device::Polarization::new(0.7));
        }
        let cache = build(1, 4, &cells);
        let none = Activation::from_columns(&layout, &[]).unwrap();
        let all = Activation::all_columns(&layout);
        assert_eq!(cache.wordline_current(0, &none), cache.row_off_sums[0]);
        assert!(cache.wordline_current(0, &all) > cache.wordline_current(0, &none));
    }

    #[test]
    fn partial_refresh_matches_full_rebuild_bit_for_bit() {
        let layout = CrossbarLayout::new(3, 2, 2, false).unwrap();
        let mut cells: Vec<Cell> = (0..layout.cells())
            .map(|_| Cell::new(FeFetParams::febim_calibrated()))
            .collect();
        for (index, cell) in cells.iter_mut().enumerate() {
            cell.device_mut()
                .set_polarization(febim_device::Polarization::new(0.2 + 0.05 * (index as f64)));
        }
        let mut cache = build(layout.rows(), layout.columns(), &cells);
        // Mutate two cells of row 1 and refresh only those entries.
        for column in [0usize, 3] {
            let index = layout.columns() + column;
            cells[index]
                .device_mut()
                .set_polarization(febim_device::Polarization::new(0.9));
            cache.refresh_cell(
                1,
                column,
                cells[index].read_current_on(),
                cells[index].read_current_off(),
            );
        }
        cache.recompute_row_off_sum(1);
        let rebuilt = build(layout.rows(), layout.columns(), &cells);
        assert_eq!(cache, rebuilt);
    }

    #[test]
    fn bit_lane_sum_counts_exactly() {
        // 0/1 summands make every partial an exact integer regardless of
        // striping, but the committed lane structure must still be the one
        // an explicit lane-by-lane evaluation produces.
        let bits = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        for count in 0..=bits.len() {
            let measured = lane_bit_sum(count, |slot| bits[slot]);
            let expected: f64 = bits[..count].iter().sum();
            assert_eq!(measured, expected, "count={count}");
        }
    }

    /// A one-row cache whose on-currents sit on the targets of `levels`
    /// on a `count`-level ladder spanning 0.1–1.0 µA.
    fn level_row(levels: &[usize], count: usize) -> (ConductanceCache, LevelLadder) {
        let ladder = LevelLadder::new(0.1e-6, 1.0e-6, count).unwrap();
        let step = 0.9e-6 / (count - 1) as f64;
        let mut cache = ConductanceCache::build_with(1, levels.len(), |_, column| {
            (0.1e-6 + levels[column] as f64 * step, 0.0)
        });
        cache.build_levels(ladder);
        (cache, ladder)
    }

    /// The cached kernel's and the reference's partials of row 0.
    fn both_partials(
        cache: &ConductanceCache,
        ladder: &LevelLadder,
        active: &[usize],
        offsets: &[u8],
        planes: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut cached = Vec::new();
        cache.plane_partials(active, offsets, planes, &mut cached);
        let mut reference = Vec::new();
        row_plane_partials(
            |column| cache.on_current(0, column),
            active,
            offsets,
            planes,
            ladder,
            &mut reference,
        );
        (cached, reference)
    }

    #[test]
    fn row_plane_partials_count_set_bits_per_plane() {
        // Three packed columns at levels 0b0110, 0b0001 and 0b1111 on a
        // 16-level ladder; the digit of interest sits at offset 0, 0 and 2.
        let (cache, ladder) = level_row(&[0b0110, 0b0001, 0b1111], 16);
        let (cached, reference) = both_partials(&cache, &ladder, &[0, 1, 2], &[0, 0, 2], 2);
        // Plane 0 (LSB): bits are 0, 1, 1 → 2. Plane 1: bits 1, 0, 1 → 2.
        assert_eq!(reference, vec![2.0, 2.0]);
        assert_eq!(cached, reference);
    }

    #[test]
    fn cached_plane_counts_match_the_reference_past_every_lane_limit() {
        // 600 slots overflow the 255-slot byte lanes twice; 1024 levels need
        // the wide store; 10 planes take two lane groups; offsets past the
        // level width read zero bits.
        let levels: Vec<usize> = (0..600)
            .map(|index| (index * 37 + index / 7) % 1024)
            .collect();
        let (cache, ladder) = level_row(&levels, 1024);
        assert!(matches!(
            cache.levels.as_ref().unwrap().store,
            LevelStore::Wide(_)
        ));
        let active: Vec<usize> = (0..600).rev().collect();
        let offsets: Vec<u8> = (0..600)
            .map(|slot| [0u8, 1, 3, 9, 40, 200][slot % 6])
            .collect();
        for planes in [0, 1, 8, 10] {
            let (cached, reference) = both_partials(&cache, &ladder, &active, &offsets, planes);
            assert_eq!(cached.len(), planes);
            assert_eq!(cached, reference, "planes={planes}");
        }
        // Every slot set in plane 0 counts to 600 across the lane flushes.
        let (narrow, ladder) = level_row(&[1; 600], 2);
        let (cached, reference) = both_partials(&narrow, &ladder, &active, &[0; 600], 1);
        assert_eq!(cached, vec![600.0]);
        assert_eq!(cached, reference);
    }

    #[test]
    fn refreshed_cells_patch_their_cached_level() {
        let (mut cache, ladder) = level_row(&[3, 5, 7], 16);
        let (fresh, _) = level_row(&[3, 12, 7], 16);
        cache.refresh_cell(0, 1, fresh.on_current(0, 1), 0.0);
        cache.recompute_row_off_sum(0);
        assert_eq!(cache, fresh);
        let (cached, reference) = both_partials(&cache, &ladder, &[0, 1, 2], &[0; 3], 4);
        assert_eq!(cached, reference);
    }

    #[test]
    fn lane_sum_order_is_the_committed_one() {
        // Deltas chosen so reassociation visibly changes the result: the
        // committed order must match an explicit lane-by-lane evaluation.
        let deltas: Vec<f64> = (0..11)
            .map(|index| 1.0 + (index as f64) * 1e-16 + (index as f64).sin())
            .collect();
        for active in 0..=deltas.len() {
            let columns: Vec<usize> = (0..active).collect();
            let measured = lane_delta_sum(&deltas, &columns);
            let mut lanes = [0.0f64; 4];
            let full = active / 4 * 4;
            for (slot, &column) in columns[..full].iter().enumerate() {
                lanes[slot % 4] += deltas[column];
            }
            let mut tail = 0.0;
            for &column in &columns[full..] {
                tail += deltas[column];
            }
            let expected = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
            assert_eq!(measured, expected, "active={active}");
        }
    }
}
