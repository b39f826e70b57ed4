//! Bin grid, density rasterization, and the overflow metric.
//!
//! The die is divided into an `m × n` grid of equal bins (`m`, `n` powers
//! of two for the spectral solver). Cell area is rasterized into bins by
//! exact rectangle overlap. Following ePlace's *local smoothing*, a movable
//! cell narrower than `√2 ×` the bin size is inflated to that size with its
//! density scaled down so total charge (area) is preserved — otherwise
//! sub-bin cells produce a spiky, ill-conditioned density.
//!
//! Movable cells go through one fused kernel per evaluation (DESIGN.md
//! §17): each footprint's bin span and per-axis overlap weights are
//! recorded once, then splatted by row bands and read back by the field
//! gather, bit-identical to a per-rectangle splat and gather at any part
//! count.

use crate::exec::{part_bounds, run_owned, ParallelExec, SerialExec, MAX_PARTS};
use mep_netlist::{CellId, Design, Netlist, Placement, Rect};

/// An `m × n` grid of equal bins over the die.
#[derive(Debug, Clone, PartialEq)]
pub struct BinGrid {
    die: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
}

impl BinGrid {
    /// Creates a grid with `nx × ny` bins over `die`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or the die is degenerate.
    pub fn new(die: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "bin grid must be non-empty");
        assert!(die.width() > 0.0 && die.height() > 0.0, "degenerate die");
        Self {
            die,
            nx,
            ny,
            bin_w: die.width() / nx as f64,
            bin_h: die.height() / ny as f64,
        }
    }

    /// Picks a power-of-two grid so bins are a few standard-cell rows wide,
    /// clamped to `\[16, 1024\]` per side (ePlace uses a similar heuristic).
    pub fn auto(design: &Design) -> Self {
        let cells = design.netlist.num_movable().max(1);
        // aim for ~1–4 movable cells per bin
        let target = (cells as f64).sqrt();
        let side = target.clamp(16.0, 1024.0);
        let pow2 = (side.log2().round() as u32).clamp(4, 10);
        let n = 1usize << pow2;
        Self::new(design.die, n, n)
    }

    /// Number of bins horizontally.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of bins vertically.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of bins.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bin width.
    pub fn bin_w(&self) -> f64 {
        self.bin_w
    }

    /// Bin height.
    pub fn bin_h(&self) -> f64 {
        self.bin_h
    }

    /// Area of one bin.
    pub fn bin_area(&self) -> f64 {
        self.bin_w * self.bin_h
    }

    /// The die this grid covers.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Rectangle of bin `(ix, iy)`.
    pub fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        Rect::from_origin_size(
            self.die.xl + ix as f64 * self.bin_w,
            self.die.yl + iy as f64 * self.bin_h,
            self.bin_w,
            self.bin_h,
        )
    }

    /// Flat index of bin `(ix, iy)` (row-major by `iy`).
    #[inline]
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        iy * self.nx + ix
    }

    /// Column range of bins overlapping `[xl, xh]`, clamped to the die.
    #[inline]
    fn col_range(&self, xl: f64, xh: f64) -> std::ops::Range<usize> {
        let lo = ((xl - self.die.xl) / self.bin_w).floor().max(0.0) as usize;
        let hi = (((xh - self.die.xl) / self.bin_w).ceil() as usize).min(self.nx);
        lo.min(self.nx)..hi
    }

    #[inline]
    fn row_range(&self, yl: f64, yh: f64) -> std::ops::Range<usize> {
        let lo = ((yl - self.die.yl) / self.bin_h).floor().max(0.0) as usize;
        let hi = (((yh - self.die.yl) / self.bin_h).ceil() as usize).min(self.ny);
        lo.min(self.ny)..hi
    }

    /// Overlap length of `rect` with bin column `ix`: the x factor of
    /// `bin_rect(ix, _).overlap_area(rect)`, with the same operations in
    /// the same order, so `col_weight · row_weight` equals that overlap
    /// area bit for bit.
    #[inline]
    fn col_weight(&self, ix: usize, rect: &Rect) -> f64 {
        let xl = self.die.xl + ix as f64 * self.bin_w;
        ((xl + self.bin_w).min(rect.xh) - xl.max(rect.xl)).max(0.0)
    }

    /// Overlap height of `rect` with bin row `iy` (see
    /// [`BinGrid::col_weight`]).
    #[inline]
    fn row_weight(&self, iy: usize, rect: &Rect) -> f64 {
        let yl = self.die.yl + iy as f64 * self.bin_h;
        ((yl + self.bin_h).min(rect.yh) - yl.max(rect.yl)).max(0.0)
    }

    /// Splats `rect` (weighted by `scale`) into `out` by exact overlap.
    pub fn splat(&self, rect: &Rect, scale: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.len());
        for iy in self.row_range(rect.yl, rect.yh) {
            let h = self.row_weight(iy, rect);
            for ix in self.col_range(rect.xl, rect.xh) {
                let ov = self.col_weight(ix, rect) * h;
                if ov > 0.0 {
                    out[self.index(ix, iy)] += scale * ov;
                }
            }
        }
    }

    /// The (possibly inflated) density footprint of a movable cell under
    /// ePlace local smoothing, with the density scale that preserves area.
    /// Returns `(rect, scale)`.
    pub fn smoothed_footprint(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        cell: CellId,
    ) -> (Rect, f64) {
        let (ew, eh, scale) = self.smoothed_size(netlist, cell);
        let c = placement.center(netlist, cell);
        (
            Rect::new(
                c.x - 0.5 * ew,
                c.y - 0.5 * eh,
                c.x + 0.5 * ew,
                c.y + 0.5 * eh,
            ),
            scale,
        )
    }

    /// Smoothed footprint size `(ew, eh)` of `cell` and its density scale.
    fn smoothed_size(&self, netlist: &Netlist, cell: CellId) -> (f64, f64, f64) {
        let w = netlist.cell_width(cell);
        let h = netlist.cell_height(cell);
        let min_w = std::f64::consts::SQRT_2 * self.bin_w;
        let min_h = std::f64::consts::SQRT_2 * self.bin_h;
        let ew = w.max(min_w);
        let eh = h.max(min_h);
        let scale = if ew > w || eh > h {
            (w * h) / (ew * eh)
        } else {
            1.0
        };
        (ew, eh, scale)
    }
}

/// One movable cell's footprint for the current evaluation: its first
/// bin column and row, how many columns and rows it covers, its density
/// scale and its (smoothed) area. The matching overlap weights live in
/// the [`Footprints`] slot arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    ix0: u32,
    iy0: u32,
    ncol: u32,
    nrow: u32,
    scale: f64,
    area: f64,
}

/// Footprint records of every movable cell, computed once per evaluation
/// and read by both the splat and the field gather (DESIGN.md §17).
///
/// Each cell owns a fixed slot of column weights `wx` and row weights
/// `wy`, sized at construction for the widest span its smoothed
/// footprint can cover, so a record never reallocates and contiguous
/// cell ranges own contiguous weight ranges.
#[derive(Debug, Clone)]
struct Footprints {
    /// Movable cell ids, ascending.
    cells: Vec<u32>,
    span: Vec<Span>,
    /// Slot starts into `wx` / `wy` (`cells.len() + 1` entries each).
    xo: Vec<u32>,
    yo: Vec<u32>,
    wx: Vec<f64>,
    wy: Vec<f64>,
    /// Splat work per bin row, for balancing row bands.
    row_work: Vec<u64>,
}

/// One part's share of a footprint pass: a contiguous range of cells and
/// the records and weight slots it owns.
struct RecordPiece<'a> {
    cells: &'a [u32],
    xo: &'a [u32],
    yo: &'a [u32],
    span: &'a mut [Span],
    wx: &'a mut [f64],
    wy: &'a mut [f64],
}

/// One part's share of the gather: a contiguous range of cells and the
/// gradient entries `[base, base + gx.len())` that contain them.
struct GatherPiece<'a> {
    cells: std::ops::Range<usize>,
    base: usize,
    gx: &'a mut [f64],
    gy: &'a mut [f64],
}

impl Footprints {
    /// Lays out the slots of `netlist`'s movable cells on `grid`.
    ///
    /// A span of computed length `s` bins touches at most `⌈s⌉ + 1` bins.
    /// `s` differs from the smoothed size `e` by rounding only — far less
    /// than half a bin for any coordinate below 2⁵⁰ bins — so
    /// `round(e) + 2` bins (capped at the grid side) always fit: 3 for a
    /// sub-bin cell.
    fn new(grid: &BinGrid, netlist: &Netlist) -> Self {
        // lint:allow(no-alloc-hot): set-up, once per design
        let cells: Vec<u32> = netlist.movable_cells().map(|c| c.index() as u32).collect();
        let n = cells.len();
        // lint:allow(no-alloc-hot): set-up, once per design
        let mut xo = vec![0u32; n + 1];
        // lint:allow(no-alloc-hot): set-up, once per design
        let mut yo = vec![0u32; n + 1];
        let (mut nx_total, mut ny_total) = (0u32, 0u32);
        for (k, &c) in cells.iter().enumerate() {
            let (ew, eh, _) = grid.smoothed_size(netlist, CellId::from_usize(c as usize));
            let capx = ((ew / grid.bin_w).round() as usize)
                .saturating_add(2)
                .min(grid.nx);
            let capy = ((eh / grid.bin_h).round() as usize)
                .saturating_add(2)
                .min(grid.ny);
            xo[k] = nx_total;
            yo[k] = ny_total;
            nx_total += capx as u32;
            ny_total += capy as u32;
        }
        xo[n] = nx_total;
        yo[n] = ny_total;
        Self {
            cells,
            // lint:allow(no-alloc-hot): set-up, once per design
            span: vec![Span::default(); n],
            xo,
            yo,
            // lint:allow(no-alloc-hot): set-up, once per design
            wx: vec![0.0; nx_total as usize],
            // lint:allow(no-alloc-hot): set-up, once per design
            wy: vec![0.0; ny_total as usize],
            // lint:allow(no-alloc-hot): set-up, once per design
            row_work: vec![0; grid.ny],
        }
    }

    /// Records every movable cell's footprint at `placement`, over
    /// `parts` fixed contiguous cell ranges.
    fn record(
        &mut self,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &Placement,
        exec: &dyn ParallelExec,
        parts: usize,
    ) {
        let parts = parts.clamp(1, MAX_PARTS);
        let n = self.cells.len();
        let (mut span, mut wx, mut wy) = (&mut self.span[..], &mut self.wx[..], &mut self.wy[..]);
        let (cells, xo, yo) = (&self.cells[..], &self.xo[..], &self.yo[..]);
        run_owned(
            exec,
            parts,
            |p| {
                let (lo, hi) = part_bounds(n, parts, p);
                let (s, rest) = std::mem::take(&mut span).split_at_mut(hi - lo);
                span = rest;
                let (x, rest) = std::mem::take(&mut wx).split_at_mut((xo[hi] - xo[lo]) as usize);
                wx = rest;
                let (y, rest) = std::mem::take(&mut wy).split_at_mut((yo[hi] - yo[lo]) as usize);
                wy = rest;
                RecordPiece {
                    cells: &cells[lo..hi],
                    xo: &xo[lo..=hi],
                    yo: &yo[lo..=hi],
                    span: s,
                    wx: x,
                    wy: y,
                }
            },
            &|piece: RecordPiece<'_>| piece.record(grid, netlist, placement),
        );
    }

    /// Splats the recorded footprints into `out` (one value per bin).
    ///
    /// `out` is split into `parts` row bands balanced by splat work; each
    /// band zeroes and fills only its own bins, visiting the cells in
    /// ascending order. Every bin thus receives the same contributions in
    /// the same order as one serial loop over the cells, whatever the
    /// band boundaries.
    fn splat(&mut self, grid: &BinGrid, out: &mut [f64], exec: &dyn ParallelExec, parts: usize) {
        let parts = parts.clamp(1, MAX_PARTS);
        let bands = self.row_bands(grid.ny, parts);
        let nx = grid.nx;
        let this = &*self;
        let mut rest = out;
        run_owned(
            exec,
            parts,
            |p| {
                let rows = bands[p]..bands[p + 1];
                let (band, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * nx);
                rest = tail;
                (rows, band)
            },
            &|(rows, band): (std::ops::Range<usize>, &mut [f64])| this.splat_band(nx, rows, band),
        );
    }

    /// Row boundaries of `parts` bands with about equal splat work. Each
    /// cell's bins are charged to its middle row, which is close enough
    /// for balancing and costs one add per cell.
    fn row_bands(&mut self, ny: usize, parts: usize) -> [usize; MAX_PARTS + 1] {
        let mut bands = [ny; MAX_PARTS + 1];
        bands[0] = 0;
        if parts == 1 {
            return bands;
        }
        self.row_work.iter_mut().for_each(|w| *w = 0);
        for s in &self.span {
            if let Some(w) = self.row_work.get_mut((s.iy0 + s.nrow / 2) as usize) {
                *w += u64::from(s.ncol * s.nrow);
            }
        }
        let total: u64 = self.row_work.iter().sum();
        let (mut p, mut acc) = (1, 0u64);
        for (iy, &w) in self.row_work.iter().enumerate() {
            while p < parts && acc * parts as u64 >= total * p as u64 {
                bands[p] = iy;
                p += 1;
            }
            acc += w;
        }
        bands
    }

    /// Zeroes `out` (the bins of `rows`) and splats into it every cell
    /// whose rows meet the band.
    fn splat_band(&self, nx: usize, rows: std::ops::Range<usize>, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for (k, s) in self.span.iter().enumerate() {
            let iy0 = s.iy0 as usize;
            let lo = iy0.max(rows.start);
            let hi = (iy0 + s.nrow as usize).min(rows.end);
            if lo >= hi {
                continue;
            }
            let (ix0, ncol) = (s.ix0 as usize, s.ncol as usize);
            let wx = &self.wx[self.xo[k] as usize..][..ncol];
            let wy = &self.wy[self.yo[k] as usize..][..s.nrow as usize];
            for iy in lo..hi {
                let h = wy[iy - iy0];
                let at = (iy - rows.start) * nx + ix0;
                for (o, &w) in out[at..at + ncol].iter_mut().zip(wx) {
                    let ov = w * h;
                    if ov > 0.0 {
                        *o += s.scale * ov;
                    }
                }
            }
        }
    }

    /// Adds `∂D/∂x = −q·⟨E_x⟩` and `∂D/∂y = −q·⟨E_y⟩` of every movable
    /// cell to the gradient buffers, where `⟨·⟩` is the overlap-weighted
    /// mean of the field over the recorded footprint. Parts are fixed
    /// contiguous cell ranges, each writing only its own cells' entries.
    #[allow(clippy::too_many_arguments)]
    fn gather(
        &self,
        nx: usize,
        netlist: &Netlist,
        field: (&[f64], &[f64]),
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        exec: &dyn ParallelExec,
        parts: usize,
    ) {
        let parts = parts.clamp(1, MAX_PARTS);
        let n = self.cells.len();
        let len = grad_x.len().min(grad_y.len());
        // part p writes the entries from its first cell up to the next
        // part's first cell (the first part also takes the leading ones)
        let start = |p: usize| {
            let (lo, _) = part_bounds(n, parts, p);
            match (p, self.cells.get(lo)) {
                (0, _) => 0,
                (_, Some(&c)) => c as usize,
                (_, None) => len,
            }
        };
        let (mut gx, mut gy) = (&mut grad_x[..len], &mut grad_y[..len]);
        run_owned(
            exec,
            parts,
            |p| {
                let (lo, hi) = part_bounds(n, parts, p);
                let (base, end) = (start(p), if p + 1 < parts { start(p + 1) } else { len });
                let (x, rest) = std::mem::take(&mut gx).split_at_mut(end - base);
                gx = rest;
                let (y, rest) = std::mem::take(&mut gy).split_at_mut(end - base);
                gy = rest;
                GatherPiece {
                    cells: lo..hi,
                    base,
                    gx: x,
                    gy: y,
                }
            },
            &|piece: GatherPiece<'_>| self.gather_cells(nx, netlist, field, piece),
        );
    }

    fn gather_cells(
        &self,
        nx: usize,
        netlist: &Netlist,
        (ex, ey): (&[f64], &[f64]),
        piece: GatherPiece<'_>,
    ) {
        for k in piece.cells {
            let s = &self.span[k];
            let cell = self.cells[k] as usize;
            let (ix0, iy0) = (s.ix0 as usize, s.iy0 as usize);
            let (fx, fy) = if s.area <= 0.0 {
                // degenerate footprint: the nearest bin's field
                (ex[iy0 * nx + ix0], ey[iy0 * nx + ix0])
            } else {
                let ncol = s.ncol as usize;
                let wx = &self.wx[self.xo[k] as usize..][..ncol];
                let wy = &self.wy[self.yo[k] as usize..][..s.nrow as usize];
                let (mut ax, mut ay) = (0.0, 0.0);
                for (j, &h) in wy.iter().enumerate() {
                    let at = (iy0 + j) * nx + ix0;
                    let (rx, ry) = (&ex[at..at + ncol], &ey[at..at + ncol]);
                    for ((&w, &vx), &vy) in wx.iter().zip(rx).zip(ry) {
                        let ov = w * h;
                        if ov > 0.0 {
                            ax += ov * vx;
                            ay += ov * vy;
                        }
                    }
                }
                (ax / s.area, ay / s.area)
            };
            // ∂D/∂x = −q·E_x (the force is +qE; descending the objective
            // moves the cell along the force)
            let q = netlist.cell_area(CellId::from_usize(cell));
            piece.gx[cell - piece.base] -= q * fx;
            piece.gy[cell - piece.base] -= q * fy;
        }
    }
}

impl RecordPiece<'_> {
    fn record(self, grid: &BinGrid, netlist: &Netlist, placement: &Placement) {
        let (x0, y0) = (self.xo[0], self.yo[0]);
        for (k, (&c, s)) in self.cells.iter().zip(self.span.iter_mut()).enumerate() {
            let (rect, scale) =
                grid.smoothed_footprint(netlist, placement, CellId::from_usize(c as usize));
            let area = rect.area();
            let wx = &mut self.wx[(self.xo[k] - x0) as usize..(self.xo[k + 1] - x0) as usize];
            let wy = &mut self.wy[(self.yo[k] - y0) as usize..(self.yo[k + 1] - y0) as usize];
            if area <= 0.0 {
                // degenerate rect (zero size): it splats nothing, and the
                // gather reads its nearest bin
                *s = Span {
                    ix0: ((((rect.xl - grid.die.xl) / grid.bin_w) as usize).min(grid.nx - 1))
                        as u32,
                    iy0: ((((rect.yl - grid.die.yl) / grid.bin_h) as usize).min(grid.ny - 1))
                        as u32,
                    ncol: 0,
                    nrow: 0,
                    scale,
                    area,
                };
                continue;
            }
            let cols = grid.col_range(rect.xl, rect.xh);
            let rows = grid.row_range(rect.yl, rect.yh);
            debug_assert!(
                cols.len() <= wx.len() && rows.len() <= wy.len(),
                "footprint slot too small"
            );
            let (ncol, nrow) = (cols.len().min(wx.len()), rows.len().min(wy.len()));
            // fill the whole slot: a fixed trip count per cell predicts
            // and vectorizes; weights past `ncol` / `nrow` are never read
            for (i, w) in wx.iter_mut().enumerate() {
                *w = grid.col_weight(cols.start + i, &rect);
            }
            for (j, w) in wy.iter_mut().enumerate() {
                *w = grid.row_weight(rows.start + j, &rect);
            }
            *s = Span {
                ix0: cols.start as u32,
                iy0: rows.start as u32,
                ncol: ncol as u32,
                nrow: nrow as u32,
                scale,
                area,
            };
        }
    }
}

/// Movable and fixed density maps over a [`BinGrid`].
#[derive(Debug, Clone)]
pub struct DensityMap {
    grid: BinGrid,
    /// Fixed-cell area per bin (computed once).
    pub fixed: Vec<f64>,
    /// Movable-cell area per bin (recomputed every iteration).
    pub movable: Vec<f64>,
    foot: Footprints,
}

impl DensityMap {
    /// Builds the map for `netlist`'s movable cells and rasterizes the
    /// fixed cells from `placement`.
    pub fn new(grid: BinGrid, netlist: &Netlist, placement: &Placement) -> Self {
        // lint:allow(no-alloc-hot): set-up, once per design
        let mut fixed = vec![0.0; grid.len()];
        for cell in netlist.fixed_cells() {
            let rect = placement.cell_rect(netlist, cell);
            if rect.area() > 0.0 {
                grid.splat(&rect, 1.0, &mut fixed);
            }
        }
        Self {
            // lint:allow(no-alloc-hot): set-up, once per design
            movable: vec![0.0; grid.len()],
            fixed,
            foot: Footprints::new(&grid, netlist),
            grid,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Number of movable cells the map rasterizes.
    pub(crate) fn num_movable(&self) -> usize {
        self.foot.cells.len()
    }

    /// Re-rasterizes movable cells (with ePlace smoothing) from `placement`.
    pub fn update_movable(&mut self, netlist: &Netlist, placement: &Placement) {
        self.rasterize(netlist, placement, &SerialExec, 1);
    }

    /// Records every movable footprint at `placement` and splats them,
    /// both over `parts` parts of `exec`.
    pub(crate) fn rasterize(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        exec: &dyn ParallelExec,
        parts: usize,
    ) {
        debug_assert_eq!(
            netlist.num_movable(),
            self.num_movable(),
            "map built for another netlist"
        );
        self.foot
            .record(&self.grid, netlist, placement, exec, parts);
        self.foot.splat(&self.grid, &mut self.movable, exec, parts);
    }

    /// Adds the density gradient `−q·⟨E⟩` of every movable cell, read
    /// from the footprints of the last rasterization, to `grad_x` /
    /// `grad_y`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gather_gradient(
        &self,
        netlist: &Netlist,
        ex: &[f64],
        ey: &[f64],
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        exec: &dyn ParallelExec,
        parts: usize,
    ) {
        self.foot
            .gather(self.grid.nx, netlist, (ex, ey), grad_x, grad_y, exec, parts);
    }

    /// ePlace density overflow
    /// `φ = Σ_b (mov_b − ρ_t · free_b)⁺ / Σ movable area`, where `free_b`
    /// is the bin area not covered by fixed cells.
    ///
    /// Overflow starts near 1 with everything piled at the die center and
    /// approaches 0 as cells spread to the target density.
    pub fn overflow(&self, target_density: f64, total_movable_area: f64) -> f64 {
        if total_movable_area <= 0.0 {
            return 0.0;
        }
        let bin_area = self.grid.bin_area();
        let mut over = 0.0;
        for (&m, &f) in self.movable.iter().zip(&self.fixed) {
            let free = (bin_area - f).max(0.0);
            over += (m - target_density * free).max(0.0);
        }
        over / total_movable_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use mep_netlist::synth;
    use proptest::prelude::*;

    fn grid44() -> BinGrid {
        BinGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    #[test]
    fn splat_conserves_area() {
        let g = grid44();
        let mut out = vec![0.0; g.len()];
        let r = Rect::new(0.3, 0.7, 2.9, 3.1);
        g.splat(&r, 1.0, &mut out);
        let total: f64 = out.iter().sum();
        assert!((total - r.area()).abs() < 1e-9);
    }

    #[test]
    fn splat_clips_to_die() {
        let g = grid44();
        let mut out = vec![0.0; g.len()];
        let r = Rect::new(-1.0, -1.0, 1.0, 1.0); // hangs off the die
        g.splat(&r, 1.0, &mut out);
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-9); // only the in-die quarter
        assert!((out[g.index(0, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn splat_scale_factor() {
        let g = grid44();
        let mut out = vec![0.0; g.len()];
        let r = Rect::new(1.0, 1.0, 2.0, 2.0);
        g.splat(&r, 0.25, &mut out);
        assert!((out.iter().sum::<f64>() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gather_of_constant_field_is_constant() {
        let g = grid44();
        let field = vec![3.5; g.len()];
        let r = Rect::new(0.2, 0.6, 3.3, 2.7);
        assert!((oracle::gather(&g, &r, &field) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn gather_weighs_by_overlap() {
        let g = BinGrid::new(Rect::new(0.0, 0.0, 2.0, 1.0), 2, 1);
        let field = vec![1.0, 3.0];
        // rect covering 25% of bin0 and 75% of bin1 (widths 0.5 / 1.5 over x in [0.5, 2.0])
        let r = Rect::new(0.5, 0.0, 2.0, 1.0);
        let want = (0.5 * 1.0 + 1.0 * 3.0) / 1.5;
        assert!((oracle::gather(&g, &r, &field) - want).abs() < 1e-9);
    }

    #[test]
    fn smoothing_preserves_cell_area() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let g = BinGrid::new(c.design.die, 32, 32);
        for cell in nl.movable_cells().take(20) {
            let (rect, scale) = g.smoothed_footprint(nl, &c.placement, cell);
            assert!((rect.area() * scale - nl.cell_area(cell)).abs() < 1e-9);
        }
    }

    #[test]
    fn density_map_totals_match_areas() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        // spread cells a bit so the smoothed footprints stay inside the die
        let mut map = DensityMap::new(BinGrid::new(c.design.die, 16, 16), nl, &c.placement);
        map.update_movable(nl, &c.placement);
        let movable: f64 = map.movable.iter().sum();
        // footprints are centered in-die (cells start at the die center)
        assert!(
            (movable - nl.total_movable_area()).abs() < 0.02 * nl.total_movable_area(),
            "movable mass {movable} vs area {}",
            nl.total_movable_area()
        );
    }

    #[test]
    fn overflow_is_one_when_piled_and_zero_when_spread() {
        // 100 unit cells on a 10x10 die, target density 1.0
        let mut b = mep_netlist::NetlistBuilder::new();
        for i in 0..100 {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap();
        }
        let nl = b.build();
        let die = Rect::new(0.0, 0.0, 10.0, 10.0);
        let grid = BinGrid::new(die, 8, 8);

        // piled at center
        let mut piled = Placement::zeros(100);
        for i in 0..100 {
            piled.x[i] = 4.5;
            piled.y[i] = 4.5;
        }
        let mut map = DensityMap::new(grid.clone(), &nl, &piled);
        map.update_movable(&nl, &piled);
        let phi_piled = map.overflow(1.0, nl.total_movable_area());

        // spread uniformly
        let mut spread = Placement::zeros(100);
        for i in 0..100 {
            spread.x[i] = (i % 10) as f64;
            spread.y[i] = (i / 10) as f64;
        }
        map.update_movable(&nl, &spread);
        let phi_spread = map.overflow(1.0, nl.total_movable_area());

        assert!(phi_piled > 0.6, "piled overflow {phi_piled}");
        assert!(phi_spread < 0.1, "spread overflow {phi_spread}");
    }

    #[test]
    fn fixed_density_reduces_capacity() {
        let mut b = mep_netlist::NetlistBuilder::new();
        b.add_cell("m", 2.0, 2.0, true).unwrap();
        b.add_cell("blk", 5.0, 10.0, false).unwrap();
        let nl = b.build();
        let mut pl = Placement::zeros(2);
        pl.x[1] = 0.0; // block covers left half
        pl.y[1] = 0.0;
        pl.x[0] = 1.0; // movable cell inside the blockage
        pl.y[0] = 4.0;
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 4, 4);
        let mut map = DensityMap::new(grid, &nl, &pl);
        map.update_movable(&nl, &pl);
        let phi_blocked = map.overflow(1.0, nl.total_movable_area());
        // move the movable cell into free space
        pl.x[0] = 7.0;
        map.update_movable(&nl, &pl);
        let phi_free = map.overflow(1.0, nl.total_movable_area());
        assert!(phi_blocked > phi_free);
    }

    #[test]
    fn auto_grid_is_power_of_two() {
        let c = synth::generate(&synth::smoke_spec());
        let g = BinGrid::auto(&c.design);
        assert!(g.nx().is_power_of_two());
        assert!(g.ny().is_power_of_two());
        assert!(g.nx() >= 16 && g.nx() <= 1024);
    }

    /// One movable cell of size `w × h` centered at `(cx, cy)` on a
    /// 12 × 12 die with a 16 × 16 grid.
    fn one_cell(w: f64, h: f64, cx: f64, cy: f64) -> (mep_netlist::Netlist, Placement, BinGrid) {
        let mut b = mep_netlist::NetlistBuilder::new();
        b.add_cell("c", w, h, true).unwrap();
        let nl = b.build();
        let mut pl = Placement::zeros(1);
        pl.set_center(&nl, CellId::from_usize(0), (cx, cy).into());
        (
            nl,
            pl,
            BinGrid::new(Rect::new(0.0, 0.0, 12.0, 12.0), 16, 16),
        )
    }

    /// A footprint fills its whole slot when its width rounds down and its
    /// left edge sits late in a bin (a 2.45-bin cell starting 0.6 into a
    /// bin covers 4 bins); widths and edges around those cases all fit
    /// their slots (debug builds assert it) and splat like the oracle.
    #[test]
    fn footprints_on_bin_edges_fit_their_slots() {
        let bin = 12.0 / 16.0;
        for bins in [2.0, 2.25, 2.45, 2.5, 3.0, 3.49, 5.5] {
            for nudge in [-1e-12, 0.0, 1e-12] {
                let w = bins * bin + nudge;
                for offset in [0.0, 0.3, 0.55, 0.6, 0.9, 1.0 - 1e-9] {
                    let cx = 2.0 * bin + offset * bin + 0.5 * w + nudge;
                    let (nl, pl, grid) = one_cell(w, w, cx, cx);
                    let mut map = DensityMap::new(grid.clone(), &nl, &pl);
                    map.update_movable(&nl, &pl);
                    let (rect, scale) = grid.smoothed_footprint(&nl, &pl, CellId::from_usize(0));
                    let mut want = vec![0.0; grid.len()];
                    oracle::splat(&grid, &rect, scale, &mut want);
                    for (got, exp) in map.movable.iter().zip(&want) {
                        assert_eq!(got.to_bits(), exp.to_bits(), "w={w} cx={cx}");
                    }
                }
            }
        }
    }

    proptest! {
        /// The fused record → splat → gather of one cell equals the
        /// per-rect oracle bit for bit, anywhere on or off the die.
        #[test]
        fn fused_cell_matches_per_rect_oracle(
            w in 0.05f64..6.0, h in 0.05f64..6.0,
            cx in -3.0f64..15.0, cy in -3.0f64..15.0,
            seed in 0u64..1000,
        ) {
            let (nl, pl, grid) = one_cell(w, h, cx, cy);
            let mut map = DensityMap::new(grid.clone(), &nl, &pl);
            map.update_movable(&nl, &pl);
            let (rect, scale) = grid.smoothed_footprint(&nl, &pl, CellId::from_usize(0));
            let mut want = vec![0.0; grid.len()];
            oracle::splat(&grid, &rect, scale, &mut want);
            for (got, exp) in map.movable.iter().zip(&want) {
                prop_assert_eq!(got.to_bits(), exp.to_bits());
            }
            let ex: Vec<f64> = (0..grid.len()).map(|i| ((seed + i as u64) as f64 * 0.61).sin()).collect();
            let ey: Vec<f64> = (0..grid.len()).map(|i| ((seed + i as u64) as f64 * 0.37).cos()).collect();
            let (mut gx, mut gy) = ([0.25], [-0.5]);
            map.gather_gradient(&nl, &ex, &ey, &mut gx, &mut gy, &SerialExec, 1);
            let q = nl.cell_area(CellId::from_usize(0));
            prop_assert_eq!(gx[0].to_bits(), (0.25 - q * oracle::gather(&grid, &rect, &ex)).to_bits());
            prop_assert_eq!(gy[0].to_bits(), (-0.5 - q * oracle::gather(&grid, &rect, &ey)).to_bits());
        }

        /// The gather is the area-weighted adjoint of the splat: on a
        /// constant field `c` a cell inside the die reads exactly `c`
        /// (up to rounding), so its gradient is `−q·c`.
        #[test]
        fn gather_of_constant_field_is_the_constant(
            w in 0.05f64..4.0, h in 0.05f64..4.0,
            cx in 3.0f64..9.0, cy in 3.0f64..9.0,
            c in -5.0f64..5.0,
        ) {
            let (nl, pl, grid) = one_cell(w, h, cx, cy);
            let mut map = DensityMap::new(grid.clone(), &nl, &pl);
            map.update_movable(&nl, &pl);
            let field = vec![c; grid.len()];
            let (mut gx, mut gy) = ([0.0], [0.0]);
            map.gather_gradient(&nl, &field, &field, &mut gx, &mut gy, &SerialExec, 1);
            let q = nl.cell_area(CellId::from_usize(0));
            prop_assert!((gx[0] + q * c).abs() < 1e-9 * (1.0 + (q * c).abs()));
            prop_assert_eq!(gx[0].to_bits(), gy[0].to_bits());
        }
    }
}
