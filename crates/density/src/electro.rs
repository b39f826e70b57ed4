//! The high-level electrostatic density system: the `D(x, y)` term of the
//! global placement objective (Eq. (1)) and its gradient.
//!
//! ePlace's analogy: cells are positive charges with charge = area; the
//! density penalty is the electrostatic potential energy
//! `D = ½ Σ_i q_i ψ(x_i)`, its gradient on cell `i` is `−q_i E(x_i)`
//! (cells are pushed *down* the energy landscape, i.e. away from dense
//! regions, by following `−∇D`).

use crate::exec::{ParallelExec, SerialExec, MAX_PARTS};
use crate::grid::{BinGrid, DensityMap};
use crate::poisson::PoissonSolver;
use mep_netlist::{Design, Netlist, Placement};
use std::sync::Arc;

/// Below this movable-cell count the footprint, splat and gather passes
/// stay serial even with an executor: dispatch costs more than it saves.
/// Measured, not guessed (DESIGN.md §17).
const PARALLEL_CELL_THRESHOLD: usize = 1024;

/// An installed executor and the part count it dispatches.
#[derive(Debug, Clone)]
struct ExecHook {
    exec: Arc<dyn ParallelExec>,
    parts: usize,
    netlist_instance: u64,
}

/// Per-iteration density report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityReport {
    /// Electrostatic energy `½ Σ ρ ψ` (the penalty value `D`).
    pub energy: f64,
    /// ePlace density overflow `φ ∈ [0, ~1]`.
    pub overflow: f64,
}

/// The electrostatic system bound to one design: grid, fixed density,
/// spectral solver, and scratch fields.
#[derive(Debug, Clone)]
pub struct Electrostatics {
    map: DensityMap,
    solver: PoissonSolver,
    target_density: f64,
    total_movable_area: f64,
    rho: Vec<f64>,
    psi: Vec<f64>,
    ex: Vec<f64>,
    ey: Vec<f64>,
    bin_area: f64,
    exec: Option<ExecHook>,
    /// Fingerprint of the placement of the last [`Electrostatics::update`]
    /// (debug builds only; zero otherwise).
    stamp: u64,
}

impl Electrostatics {
    /// Builds the system for `design` with an automatically sized grid.
    pub fn new(design: &Design, placement: &Placement) -> Self {
        Self::with_grid(design, placement, BinGrid::auto(design))
    }

    /// Builds the system with an explicit grid.
    pub fn with_grid(design: &Design, placement: &Placement, grid: BinGrid) -> Self {
        let n = grid.len();
        let solver = PoissonSolver::new(
            grid.nx(),
            grid.ny(),
            design.die.width(),
            design.die.height(),
        );
        let bin_area = grid.bin_area();
        let map = DensityMap::new(grid, &design.netlist, placement);
        Self {
            map,
            solver,
            target_density: design.target_density,
            total_movable_area: design.netlist.total_movable_area(),
            // lint:allow(no-alloc-hot): set-up, once per design
            rho: vec![0.0; n],
            // lint:allow(no-alloc-hot): set-up, once per design
            psi: vec![0.0; n],
            // lint:allow(no-alloc-hot): set-up, once per design
            ex: vec![0.0; n],
            // lint:allow(no-alloc-hot): set-up, once per design
            ey: vec![0.0; n],
            bin_area,
            exec: None,
            stamp: 0,
        }
    }

    /// Installs a parallel executor for the density passes: the
    /// footprint record and the gather split `netlist`'s movable cells
    /// into `parts` contiguous ranges, the splat splits the grid into
    /// `parts` row bands, and the spectral solver dispatches row batches.
    /// Results are bit-identical to the serial path (DESIGN.md §17).
    pub fn set_executor(&mut self, exec: Arc<dyn ParallelExec>, parts: usize, netlist: &Netlist) {
        self.solver.set_executor(Arc::clone(&exec), parts.max(1));
        self.exec = Some(ExecHook {
            exec,
            parts: parts.clamp(1, MAX_PARTS),
            netlist_instance: netlist.instance_id(),
        });
    }

    /// The executor and part count for a density pass.
    fn dispatch(exec: &Option<ExecHook>, movable: usize) -> (&dyn ParallelExec, usize) {
        match exec {
            Some(hook) if movable >= PARALLEL_CELL_THRESHOLD => (&*hook.exec, hook.parts),
            _ => (&SerialExec, 1),
        }
    }

    /// The bin grid in use.
    pub fn grid(&self) -> &BinGrid {
        self.map.grid()
    }

    /// Call count and cumulative wall time of the planned 2-D spectral
    /// transforms run by the Poisson solver.
    pub fn transform_stats(&self) -> crate::transform::TransformStats {
        self.solver.transform_stats()
    }

    /// Degrades the Poisson solver to the unplanned serial transform
    /// baseline (see [`PoissonSolver::degrade_to_unplanned`]); one-way.
    pub fn degrade_solver(&mut self) {
        self.solver.degrade_to_unplanned();
    }

    /// Whether the Poisson solver runs in degraded (unplanned) mode.
    pub fn solver_degraded(&self) -> bool {
        self.solver.is_degraded()
    }

    /// Rasterizes movable density and solves the field for `placement`.
    pub fn update(&mut self, netlist: &Netlist, placement: &Placement) -> DensityReport {
        if let Some(hook) = &self.exec {
            debug_assert_eq!(
                hook.netlist_instance,
                netlist.instance_id(),
                "executor installed for a different netlist"
            );
        }
        let (exec, parts) = Self::dispatch(&self.exec, self.map.num_movable());
        self.map.rasterize(netlist, placement, exec, parts);
        // charge density (area per bin → dimensionless density)
        let inv = 1.0 / self.bin_area;
        for ((r, &m), &f) in self
            .rho
            .iter_mut()
            .zip(&self.map.movable)
            .zip(&self.map.fixed)
        {
            *r = (m + f) * inv;
        }
        self.solver
            .solve(&self.rho, &mut self.psi, &mut self.ex, &mut self.ey);
        let energy = 0.5
            * self
                .rho
                .iter()
                .zip(&self.psi)
                .map(|(r, p)| r * p)
                .sum::<f64>()
            * self.bin_area;
        let overflow = self
            .map
            .overflow(self.target_density, self.total_movable_area);
        if cfg!(debug_assertions) {
            self.stamp = placement_stamp(placement);
        }
        DensityReport { energy, overflow }
    }

    /// Density overflow of the last [`Electrostatics::update`].
    pub fn overflow(&self) -> f64 {
        self.map
            .overflow(self.target_density, self.total_movable_area)
    }

    /// Accumulates `∂D/∂x_i`, `∂D/∂y_i` for every movable cell into the
    /// gradient buffers (fixed cells untouched).
    ///
    /// Reads the footprints and field of the last
    /// [`Electrostatics::update`], which must have been called with the
    /// same `placement` (debug builds check this).
    ///
    /// # Panics
    ///
    /// Panics if the buffers are shorter than the cell count.
    pub fn accumulate_gradient(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) {
        assert!(grad_x.len() >= netlist.num_cells());
        assert!(grad_y.len() >= netlist.num_cells());
        debug_assert_eq!(
            self.stamp,
            placement_stamp(placement),
            "accumulate_gradient must follow update at the same placement"
        );
        let (exec, parts) = Self::dispatch(&self.exec, self.map.num_movable());
        self.map
            .gather_gradient(netlist, &self.ex, &self.ey, grad_x, grad_y, exec, parts);
    }

    /// The potential field of the last solve (bin-major, `iy * nx + ix`).
    pub fn potential(&self) -> &[f64] {
        &self.psi
    }

    /// Movable + fixed charge density of the last solve.
    pub fn density(&self) -> &[f64] {
        &self.rho
    }
}

/// FNV-1a over the coordinate bits of `placement`, for the debug check
/// that a gradient is gathered at the placement it was rasterized at.
fn placement_stamp(placement: &Placement) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in placement.x.iter().chain(&placement.y) {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::{synth, NetlistBuilder, Rect};

    fn two_cell_design(x0: f64, x1: f64) -> (Design, Placement) {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 2.0, 2.0, true).unwrap();
        b.add_cell("b", 2.0, 2.0, true).unwrap();
        let nl = b.build();
        let design =
            Design::with_uniform_rows("t", nl, Rect::new(0.0, 0.0, 32.0, 32.0), 1.0, 1.0, 1.0)
                .unwrap();
        let mut pl = Placement::zeros(2);
        pl.x[0] = x0;
        pl.y[0] = 15.0;
        pl.x[1] = x1;
        pl.y[1] = 15.0;
        (design, pl)
    }

    #[test]
    fn overlapping_cells_repel() {
        let (design, pl) = two_cell_design(15.0, 15.5);
        let grid = BinGrid::new(design.die, 32, 32);
        let mut es = Electrostatics::with_grid(&design, &pl, grid);
        es.update(&design.netlist, &pl);
        let mut gx = vec![0.0; 2];
        let mut gy = vec![0.0; 2];
        es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
        // descending −∇D must push cell a left and cell b right
        assert!(gx[0] > 0.0, "gx[0] = {}", gx[0]);
        assert!(gx[1] < 0.0, "gx[1] = {}", gx[1]);
    }

    #[test]
    fn energy_decreases_as_cells_separate() {
        let grid_energy = |sep: f64| {
            let (design, pl) = two_cell_design(15.0 - sep / 2.0, 15.0 + sep / 2.0);
            let grid = BinGrid::new(design.die, 32, 32);
            let mut es = Electrostatics::with_grid(&design, &pl, grid);
            es.update(&design.netlist, &pl).energy
        };
        let e0 = grid_energy(0.0);
        let e4 = grid_energy(4.0);
        let e10 = grid_energy(10.0);
        assert!(e0 > e4, "{e0} vs {e4}");
        assert!(e4 > e10, "{e4} vs {e10}");
    }

    #[test]
    fn gradient_matches_finite_difference_of_energy() {
        let (design, pl) = two_cell_design(12.0, 18.0);
        let grid = BinGrid::new(design.die, 32, 32);
        let mut es = Electrostatics::with_grid(&design, &pl, grid);
        es.update(&design.netlist, &pl);
        let mut gx = vec![0.0; 2];
        let mut gy = vec![0.0; 2];
        es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
        let h = 0.05;
        for cell in 0..2 {
            let mut plus = pl.clone();
            plus.x[cell] += h;
            let mut minus = pl.clone();
            minus.x[cell] -= h;
            let ep = es.update(&design.netlist, &plus).energy;
            let em = es.update(&design.netlist, &minus).energy;
            let fd = (ep - em) / (2.0 * h);
            es.update(&design.netlist, &pl);
            assert!(
                (fd - gx[cell]).abs() < 0.15 * fd.abs().max(0.05),
                "cell {cell}: fd {fd} vs analytic {}",
                gx[cell]
            );
        }
    }

    #[test]
    fn update_reports_sane_overflow() {
        let c = synth::generate(&synth::smoke_spec());
        let mut es = Electrostatics::new(&c.design, &c.placement);
        let report = es.update(&c.design.netlist, &c.placement);
        // everything starts piled at the die center: overflow near 1
        assert!(report.overflow > 0.5, "overflow {}", report.overflow);
        assert!(report.energy > 0.0);
    }

    /// Placements of the oracle scenarios.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// Every movable cell at the die center (the GP start).
        Piled,
        /// Pseudo-random over the die.
        Spread,
        /// Centers on, near and beyond every die edge and corner, plus one
        /// cell so far off that its footprint collapses to zero area.
        OffEdges,
    }

    /// A die of 128 × 96 with enough movable cells for the parallel path:
    /// mostly sub-bin cells, every 97th cell wider than 4 bins, one large
    /// movable macro, and fixed blocks (one hanging off the die).
    fn scenario(layout: Layout, nx: usize, ny: usize) -> (Design, Placement, BinGrid) {
        let n = PARALLEL_CELL_THRESHOLD + 500;
        let mut b = NetlistBuilder::new();
        for i in 0..n {
            let (w, h) = match i {
                0 => (41.0, 29.0),
                _ if i % 97 == 0 => (23.5, 2.0),
                _ => (1.0 + (i % 3) as f64, 1.0),
            };
            b.add_cell(format!("m{i}"), w, h, true).unwrap();
        }
        for (i, (w, h)) in [(10.0, 20.0), (30.0, 6.0), (12.0, 12.0)].iter().enumerate() {
            b.add_cell(format!("f{i}"), *w, *h, false).unwrap();
        }
        let nl = b.build();
        let die = Rect::new(0.0, 0.0, 128.0, 96.0);
        let design = Design::with_uniform_rows("t", nl, die, 1.0, 1.0, 0.9).unwrap();
        let nl = &design.netlist;
        let mut pl = Placement::zeros(nl.num_cells());
        let fixed_at = [(5.0, 60.0), (70.0, 10.0), (120.0, 90.0)];
        for (k, cell) in nl.fixed_cells().enumerate() {
            pl.x[cell.index()] = fixed_at[k].0;
            pl.y[cell.index()] = fixed_at[k].1;
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (i, cell) in nl.movable_cells().enumerate() {
            let (cx, cy) = match layout {
                Layout::Piled => (64.0, 48.0),
                Layout::Spread => (128.0 * unit(), 96.0 * unit()),
                Layout::OffEdges if i == 1 => (1e300, -1e300),
                Layout::OffEdges => {
                    // an edge coordinate, jittered within ±3 of it
                    let along = unit();
                    let off = 6.0 * unit() - 3.0;
                    match i % 4 {
                        0 => (off, 96.0 * along),
                        1 => (128.0 + off, 96.0 * along),
                        2 => (128.0 * along, off),
                        _ => (128.0 * along, 96.0 + off),
                    }
                }
            };
            pl.set_center(nl, cell, (cx, cy).into());
        }
        (design, pl, BinGrid::new(die, nx, ny))
    }

    /// Rho, energy, overflow and both gradients of the fused kernel equal
    /// the per-rect oracle bit for bit, serially and at 1/2/8 parts.
    #[test]
    fn fused_kernel_matches_per_rect_oracle_bitwise() {
        for (nx, ny) in [(32, 32), (64, 16)] {
            for layout in [Layout::Piled, Layout::Spread, Layout::OffEdges] {
                let (design, pl, grid) = scenario(layout, nx, ny);
                let nl = &design.netlist;
                let grad0: Vec<f64> = (0..nl.num_cells())
                    .map(|i| (i as f64 * 0.37).sin())
                    .collect();
                let want = crate::oracle::evaluate(&design, &pl, &grid, &grad0);
                for parts in [0, 1, 2, 8] {
                    let ctx = format!("{layout:?} {nx}x{ny} parts={parts}");
                    let mut es = Electrostatics::with_grid(&design, &pl, grid.clone());
                    if parts > 0 {
                        es.set_executor(
                            Arc::new(crate::oracle::ThreadsExec { threads: parts }),
                            parts,
                            nl,
                        );
                    }
                    let report = es.update(nl, &pl);
                    let (mut gx, mut gy) = (grad0.clone(), grad0.clone());
                    es.accumulate_gradient(nl, &pl, &mut gx, &mut gy);
                    assert_eq!(
                        report.energy.to_bits(),
                        want.energy.to_bits(),
                        "{ctx}: energy"
                    );
                    assert_eq!(
                        report.overflow.to_bits(),
                        want.overflow.to_bits(),
                        "{ctx}: overflow"
                    );
                    for (b, (got, exp)) in es.density().iter().zip(&want.rho).enumerate() {
                        assert_eq!(got.to_bits(), exp.to_bits(), "{ctx}: rho[{b}]");
                    }
                    for i in 0..nl.num_cells() {
                        assert_eq!(gx[i].to_bits(), want.grad_x[i].to_bits(), "{ctx}: gx[{i}]");
                        assert_eq!(gy[i].to_bits(), want.grad_y[i].to_bits(), "{ctx}: gy[{i}]");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same placement")]
    fn gradient_at_another_placement_is_caught_in_debug_builds() {
        let (design, pl) = two_cell_design(12.0, 18.0);
        let mut es = Electrostatics::with_grid(&design, &pl, BinGrid::new(design.die, 32, 32));
        es.update(&design.netlist, &pl);
        let mut moved = pl.clone();
        moved.x[0] += 1.0;
        let (mut gx, mut gy) = (vec![0.0; 2], vec![0.0; 2]);
        es.accumulate_gradient(&design.netlist, &moved, &mut gx, &mut gy);
    }

    #[test]
    fn fixed_cells_get_no_density_gradient() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut es = Electrostatics::new(&c.design, &c.placement);
        es.update(nl, &c.placement);
        let mut gx = vec![0.0; nl.num_cells()];
        let mut gy = vec![0.0; nl.num_cells()];
        es.accumulate_gradient(nl, &c.placement, &mut gx, &mut gy);
        for cell in nl.fixed_cells() {
            assert_eq!(gx[cell.index()], 0.0);
            assert_eq!(gy[cell.index()], 0.0);
        }
        // movable cells at the center pile must feel a force
        let moved = nl
            .movable_cells()
            .filter(|c| gx[c.index()].abs() + gy[c.index()].abs() > 0.0)
            .count();
        assert!(moved > nl.num_movable() / 2);
    }
}
