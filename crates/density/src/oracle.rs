//! The per-rect density kernel that the fused footprint kernel replaced,
//! kept as the bit-exact test oracle (DESIGN.md §17).
//!
//! Every movable cell's smoothed footprint is rebuilt for the splat and
//! again for each field component of the gather, and every bin overlap is
//! a fresh [`Rect::overlap_area`] of [`BinGrid::bin_rect`]. Production
//! code must reproduce these results to the bit.

use crate::exec::ParallelExec;
use crate::grid::BinGrid;
use crate::poisson::PoissonSolver;
use mep_netlist::{Design, Placement, Rect};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Splats `rect` (weighted by `scale`) into `out` by exact overlap.
pub(crate) fn splat(grid: &BinGrid, rect: &Rect, scale: f64, out: &mut [f64]) {
    for iy in rows(grid, rect) {
        for ix in cols(grid, rect) {
            let ov = grid.bin_rect(ix, iy).overlap_area(rect);
            if ov > 0.0 {
                out[grid.index(ix, iy)] += scale * ov;
            }
        }
    }
}

/// The overlap-weighted mean of `field` over `rect` (the adjoint of
/// [`splat`]); a zero-area rect reads its nearest bin.
pub(crate) fn gather(grid: &BinGrid, rect: &Rect, field: &[f64]) -> f64 {
    let area = rect.area();
    if area <= 0.0 {
        let ix = (((rect.xl - grid.die().xl) / grid.bin_w()) as usize).min(grid.nx() - 1);
        let iy = (((rect.yl - grid.die().yl) / grid.bin_h()) as usize).min(grid.ny() - 1);
        return field[grid.index(ix, iy)];
    }
    let mut acc = 0.0;
    for iy in rows(grid, rect) {
        for ix in cols(grid, rect) {
            let ov = grid.bin_rect(ix, iy).overlap_area(rect);
            if ov > 0.0 {
                acc += ov * field[grid.index(ix, iy)];
            }
        }
    }
    acc / area
}

fn cols(grid: &BinGrid, r: &Rect) -> std::ops::Range<usize> {
    let (o, b, n) = (grid.die().xl, grid.bin_w(), grid.nx());
    let lo = ((r.xl - o) / b).floor().max(0.0) as usize;
    let hi = (((r.xh - o) / b).ceil() as usize).min(n);
    lo.min(n)..hi
}

fn rows(grid: &BinGrid, r: &Rect) -> std::ops::Range<usize> {
    let (o, b, n) = (grid.die().yl, grid.bin_h(), grid.ny());
    let lo = ((r.yl - o) / b).floor().max(0.0) as usize;
    let hi = (((r.yh - o) / b).ceil() as usize).min(n);
    lo.min(n)..hi
}

/// Everything one density evaluation produces.
#[derive(Debug)]
pub(crate) struct Reference {
    pub rho: Vec<f64>,
    pub energy: f64,
    pub overflow: f64,
    pub grad_x: Vec<f64>,
    pub grad_y: Vec<f64>,
}

/// One density evaluation of `design` at `placement` on `grid` through the
/// per-rect kernel, serially. The gradient is added to `grad0` (so that
/// fixed-cell entries are seen to stay untouched).
pub(crate) fn evaluate(
    design: &Design,
    placement: &Placement,
    grid: &BinGrid,
    grad0: &[f64],
) -> Reference {
    let nl = &design.netlist;
    let mut fixed = vec![0.0; grid.len()];
    for cell in nl.fixed_cells() {
        let rect = placement.cell_rect(nl, cell);
        if rect.area() > 0.0 {
            splat(grid, &rect, 1.0, &mut fixed);
        }
    }
    let mut movable = vec![0.0; grid.len()];
    for cell in nl.movable_cells() {
        let (rect, scale) = grid.smoothed_footprint(nl, placement, cell);
        splat(grid, &rect, scale, &mut movable);
    }
    let bin_area = grid.bin_area();
    let mut rho: Vec<f64> = movable.iter().zip(&fixed).map(|(m, f)| m + f).collect();
    let inv = 1.0 / bin_area;
    for r in rho.iter_mut() {
        *r *= inv;
    }
    let mut solver = PoissonSolver::new(
        grid.nx(),
        grid.ny(),
        design.die.width(),
        design.die.height(),
    );
    let n = grid.len();
    let (mut psi, mut ex, mut ey) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    solver.solve(&rho, &mut psi, &mut ex, &mut ey);
    let energy = 0.5 * rho.iter().zip(&psi).map(|(r, p)| r * p).sum::<f64>() * bin_area;
    let total = nl.total_movable_area();
    let overflow = if total <= 0.0 {
        0.0
    } else {
        let mut over = 0.0;
        for (&m, &f) in movable.iter().zip(&fixed) {
            let free = (bin_area - f).max(0.0);
            over += (m - design.target_density * free).max(0.0);
        }
        over / total
    };
    let (mut grad_x, mut grad_y) = (grad0.to_vec(), grad0.to_vec());
    for cell in nl.movable_cells() {
        let (rect, _scale) = grid.smoothed_footprint(nl, placement, cell);
        let q = nl.cell_area(cell);
        grad_x[cell.index()] -= q * gather(grid, &rect, &ex);
        grad_y[cell.index()] -= q * gather(grid, &rect, &ey);
    }
    Reference {
        rho,
        energy,
        overflow,
        grad_x,
        grad_y,
    }
}

/// A genuinely multi-threaded executor: `threads` scoped workers claim
/// parts dynamically, so the part-to-thread assignment varies run to run.
#[derive(Debug)]
pub(crate) struct ThreadsExec {
    pub threads: usize,
}

impl ParallelExec for ThreadsExec {
    fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(parts) {
                s.spawn(|| loop {
                    let p = next.fetch_add(1, Ordering::Relaxed);
                    if p >= parts {
                        break;
                    }
                    f(p);
                });
            }
        });
    }
}
