//! The global-placement objective `Σ_e W_e(x, y) + λ D(x, y)` (Eq. (1))
//! as an optimizable [`Problem`].
//!
//! The parameter vector packs the **centers of movable cells** as
//! `[x_0 … x_{m−1}, y_0 … y_{m−1}]`; fixed cells stay at their input
//! positions. Projection clamps each movable cell inside the die.

use mep_density::electro::{DensityReport, Electrostatics};
use mep_density::exec::ParallelExec;
use mep_netlist::{CellId, Design, Placement};
use mep_optim::Problem;
use mep_wirelength::engine::{EvalEngine, Stage};
use mep_wirelength::{AnyModel, ModelKind, NetModel, NetlistEvaluator, WirelengthGrad};
use std::sync::Arc;

/// Adapter exposing the wirelength crate's [`EvalEngine`] to the density
/// crate's [`ParallelExec`] hook (the density crate must not depend on the
/// wirelength crate).
#[derive(Debug, Clone)]
struct EngineExec(Arc<EvalEngine>);

impl ParallelExec for EngineExec {
    fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        self.0.run(parts, f);
    }
}

/// Statistics of the most recent objective evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Smoothed wirelength `Σ W_e`.
    pub wirelength: f64,
    /// Density energy `D`.
    pub density_energy: f64,
    /// Density overflow `φ`.
    pub overflow: f64,
}

/// The placement objective bound to one design.
pub struct PlacementProblem<'a> {
    design: &'a Design,
    movable: Vec<CellId>,
    engine: Arc<EvalEngine>,
    evaluator: NetlistEvaluator,
    wl: WirelengthGrad,
    es: Electrostatics,
    /// `∇D` at `density_x` (zeroed before each density evaluation, never
    /// reallocated).
    dgx: Vec<f64>,
    dgy: Vec<f64>,
    /// The parameter vector the density term was last evaluated at, and
    /// its report; `None` when nothing valid is held. `D` and `∇D` depend
    /// on the point and the solver only, never on `λ`, the smoothing or
    /// the preconditioner, so a bit-identical point reuses them.
    density_x: Vec<f64>,
    density: Option<DensityReport>,
    scratch: Placement,
    /// Current density weight `λ`.
    pub lambda: f64,
    precondition: bool,
    last: EvalStats,
    /// Spectral-transform stats already forwarded to the engine; new
    /// samples are synced as deltas after each density stage.
    tf_synced: mep_density::TransformStats,
    /// Fault-injection hook (tests): skip `nan_after` more evals, then
    /// poison the next `nan_remaining` evaluations with NaN.
    nan_after: u64,
    nan_remaining: u64,
}

impl<'a> std::fmt::Debug for PlacementProblem<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementProblem")
            .field("design", &self.design.name)
            .field("movable", &self.movable.len())
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl<'a> PlacementProblem<'a> {
    /// Builds the problem. `initial` provides fixed-cell positions (and the
    /// starting movable positions extracted by
    /// [`PlacementProblem::pack_params`]); `model` is the wirelength model;
    /// `engine` executes every evaluation stage (wirelength and density)
    /// and collects per-stage instrumentation.
    pub fn new(
        design: &'a Design,
        initial: &Placement,
        model: AnyModel,
        engine: Arc<EvalEngine>,
    ) -> Self {
        let netlist = &design.netlist;
        let movable: Vec<CellId> = netlist.movable_cells().collect();
        let mut es = Electrostatics::new(design, initial);
        es.set_executor(
            Arc::new(EngineExec(Arc::clone(&engine))),
            engine.threads(),
            netlist,
        );
        Self {
            movable,
            evaluator: NetlistEvaluator::new(model, Arc::clone(&engine)),
            engine,
            wl: WirelengthGrad::zeros(netlist.num_cells()),
            es,
            dgx: vec![0.0; netlist.num_cells()],
            dgy: vec![0.0; netlist.num_cells()],
            density_x: Vec::new(),
            density: None,
            scratch: initial.clone(),
            lambda: 0.0,
            precondition: false,
            design,
            last: EvalStats::default(),
            tf_synced: mep_density::TransformStats::default(),
            nan_after: 0,
            nan_remaining: 0,
        }
    }

    /// Convenience constructor building a private engine with `threads`
    /// workers (tests and small tools; the pipeline shares one engine).
    pub fn with_threads(
        design: &'a Design,
        initial: &Placement,
        model: AnyModel,
        threads: usize,
    ) -> Self {
        Self::new(design, initial, model, Arc::new(EvalEngine::new(threads)))
    }

    /// The evaluation engine (e.g. for its instrumentation counters).
    pub fn engine(&self) -> &Arc<EvalEngine> {
        &self.engine
    }

    /// Enables the ePlace/DREAMPlace Jacobi preconditioner: the reported
    /// gradient of cell `i` is divided by `max(1, #pins_i + λ·area_i)`
    /// (the diagonal of an approximate Hessian), which equalizes step
    /// scales between tiny cells and huge macros. Off by default so the
    /// raw gradient stays exact for verification.
    pub fn set_preconditioner(&mut self, on: bool) {
        self.precondition = on;
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.movable.len()
    }

    /// The movable-cell ids, in parameter order.
    pub fn movable(&self) -> &[CellId] {
        &self.movable
    }

    /// Stats of the last [`Problem::eval`] call.
    pub fn last_stats(&self) -> EvalStats {
        self.last
    }

    /// Sets the wirelength model's smoothing parameter.
    pub fn set_smoothing(&mut self, s: f64) {
        self.evaluator.model_mut().set_smoothing(s);
    }

    /// Current smoothing parameter.
    pub fn smoothing(&self) -> f64 {
        self.evaluator.model().smoothing()
    }

    /// The electrostatic system (e.g. for its bin grid).
    pub fn electrostatics(&self) -> &Electrostatics {
        &self.es
    }

    /// Replaces the wirelength model in place (the recovery guard's
    /// degradation ladder). The evaluator keeps its workspace; only the
    /// model clones are swapped.
    pub fn set_model(&mut self, model: AnyModel) {
        self.evaluator.set_model(model);
    }

    /// Kind of the active wirelength model.
    pub fn model_kind(&self) -> ModelKind {
        self.evaluator.model().kind()
    }

    /// Degrades the density solver to the unplanned transform baseline
    /// (the recovery guard's last ladder rung before halting).
    pub fn degrade_density_solver(&mut self) {
        self.es.degrade_solver();
        // the degraded solver must produce the next density result itself
        self.density = None;
    }

    /// Whether the density solver has been degraded.
    pub fn density_solver_degraded(&self) -> bool {
        self.es.solver_degraded()
    }

    /// Test hook: after `after` more evaluations, poison the following
    /// `count` evaluations with NaN (value, gradient, and stats). Used to
    /// exercise the recovery guard; never active in production flows.
    pub fn inject_nan(&mut self, after: u64, count: u64) {
        self.nan_after = after;
        self.nan_remaining = count;
    }

    /// Packs the movable-cell centers of `placement` into a parameter
    /// vector.
    pub fn pack_params(&self, placement: &Placement) -> Vec<f64> {
        let m = self.movable.len();
        let netlist = &self.design.netlist;
        let mut p = vec![0.0; 2 * m];
        for (i, &cell) in self.movable.iter().enumerate() {
            let c = placement.center(netlist, cell);
            p[i] = c.x;
            p[m + i] = c.y;
        }
        p
    }

    /// Writes a parameter vector back into `placement` (movable cells
    /// only).
    pub fn unpack_params(&self, params: &[f64], placement: &mut Placement) {
        let m = self.movable.len();
        let netlist = &self.design.netlist;
        for (i, &cell) in self.movable.iter().enumerate() {
            placement.set_center(netlist, cell, (params[i], params[m + i]).into());
        }
    }

    /// Exact HPWL at a parameter vector (reporting metric, not the model).
    pub fn exact_hpwl(&mut self, params: &[f64]) -> f64 {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unpack_params(params, &mut scratch);
        let h = mep_netlist::total_hpwl(&self.design.netlist, &scratch);
        self.scratch = scratch;
        h
    }

    /// Density report (energy + overflow) at a parameter vector. Shares
    /// [`Problem::eval`]'s density result: a following `eval` at the same
    /// `params` reuses it.
    pub fn density_report(&mut self, params: &[f64]) -> DensityReport {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unpack_params(params, &mut scratch);
        let report = self.density_term(params, &scratch);
        self.scratch = scratch;
        report
    }

    /// The density term at `x` (unpacked into `placement`): its report,
    /// with `∇D` left in `dgx`/`dgy`. When `x` is bit for bit the point
    /// of the last density evaluation, that result is reused — the same
    /// bits a recomputation would produce — instead of solved again.
    fn density_term(&mut self, x: &[f64], placement: &Placement) -> DensityReport {
        if let Some(report) = self.density {
            let same = x.len() == self.density_x.len()
                && x.iter()
                    .zip(&self.density_x)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if same {
                self.engine.note_density_reused();
                return report;
            }
        }
        let netlist = &self.design.netlist;
        self.dgx.iter_mut().for_each(|g| *g = 0.0);
        self.dgy.iter_mut().for_each(|g| *g = 0.0);
        let es = &mut self.es;
        let (dgx, dgy) = (&mut self.dgx, &mut self.dgy);
        let report = self.engine.time_stage(Stage::Density, || {
            let report = es.update(netlist, placement);
            es.accumulate_gradient(netlist, placement, dgx, dgy);
            report
        });
        // forward the transform sub-stage clock (kept by the density crate)
        let tf = self.es.transform_stats();
        self.engine.add_stage_sample(
            Stage::DensityTransform,
            tf.calls - self.tf_synced.calls,
            tf.nanos - self.tf_synced.nanos,
        );
        self.tf_synced = tf;
        self.density_x.clear();
        self.density_x.extend_from_slice(x);
        self.density = Some(report);
        report
    }
}

impl<'a> Problem for PlacementProblem<'a> {
    fn dim(&self) -> usize {
        2 * self.movable.len()
    }

    fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let m = self.movable.len();
        assert_eq!(x.len(), 2 * m);
        assert_eq!(grad.len(), 2 * m);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unpack_params(x, &mut scratch);
        let netlist = &self.design.netlist;

        // wirelength term (engine-timed inside the evaluator)
        self.evaluator.evaluate(netlist, &scratch, &mut self.wl);

        // density term (reused when `x` is the last density point)
        let report = self.density_term(x, &scratch);

        for (i, &cell) in self.movable.iter().enumerate() {
            let c = cell.index();
            grad[i] = self.wl.grad_x[c] + self.lambda * self.dgx[c];
            grad[m + i] = self.wl.grad_y[c] + self.lambda * self.dgy[c];
            if self.precondition {
                let diag = (netlist.cell_pins(cell).len() as f64
                    + self.lambda * netlist.cell_area(cell))
                .max(1.0);
                grad[i] /= diag;
                grad[m + i] /= diag;
            }
        }

        self.scratch = scratch;
        self.last = EvalStats {
            wirelength: self.wl.value,
            density_energy: report.energy,
            overflow: report.overflow,
        };
        // fault-injection countdown (test hook, see `inject_nan`)
        if self.nan_remaining > 0 {
            if self.nan_after > 0 {
                self.nan_after -= 1;
            } else {
                self.nan_remaining -= 1;
                for g in grad.iter_mut() {
                    *g = f64::NAN;
                }
                self.last = EvalStats {
                    wirelength: f64::NAN,
                    density_energy: f64::NAN,
                    overflow: f64::NAN,
                };
                return f64::NAN;
            }
        }
        self.wl.value + self.lambda * report.energy
    }

    fn project(&self, x: &mut [f64]) {
        let m = self.movable.len();
        let die = self.design.die;
        let netlist = &self.design.netlist;
        for (i, &cell) in self.movable.iter().enumerate() {
            let hw = 0.5 * netlist.cell_width(cell);
            let hh = 0.5 * netlist.cell_height(cell);
            // region-constrained cells are boxed into their fence
            let fence = self.design.region_of(cell).map(|r| r.rect).unwrap_or(die);
            // degenerate box smaller than the cell: pin to the box center
            let (lo_x, hi_x) = (fence.xl + hw, fence.xh - hw);
            let (lo_y, hi_y) = (fence.yl + hh, fence.yh - hh);
            let die = fence;
            x[i] = if lo_x <= hi_x {
                x[i].clamp(lo_x, hi_x)
            } else {
                0.5 * (die.xl + die.xh)
            };
            x[m + i] = if lo_y <= hi_y {
                x[m + i].clamp(lo_y, hi_y)
            } else {
                0.5 * (die.yl + die.yh)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;
    use mep_wirelength::ModelKind;

    fn problem(c: &mep_netlist::bookshelf::BookshelfCircuit) -> PlacementProblem<'_> {
        PlacementProblem::with_threads(
            &c.design,
            &c.placement,
            ModelKind::Moreau.instantiate(1.0),
            1,
        )
    }

    /// `params` with every cell shifted a little, projected into the die.
    fn moved(p: &PlacementProblem<'_>, params: &[f64]) -> Vec<f64> {
        let w = p.design.die.width();
        let mut x: Vec<f64> = params
            .iter()
            .enumerate()
            .map(|(i, &v)| v + ((i as f64) * 0.9).sin() * 0.05 * w)
            .collect();
        p.project(&mut x);
        x
    }

    /// Value and gradient of one evaluation, as bits.
    fn eval_bits(p: &mut PlacementProblem<'_>, x: &[f64]) -> (u64, Vec<u64>) {
        let mut g = vec![0.0; p.dim()];
        let f = p.eval(x, &mut g);
        (f.to_bits(), g.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn density_is_reused_at_the_same_point_across_lambda_smoothing_and_preconditioner() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        let x = moved(&p, &p.pack_params(&c.placement));
        p.lambda = 0.5;
        eval_bits(&mut p, &x);
        p.lambda = 3.0;
        p.set_smoothing(0.25);
        p.set_preconditioner(true);
        let reused = eval_bits(&mut p, &x);
        let stats = p.engine().stats();
        assert_eq!(stats.wl_grad.count, 2);
        assert_eq!((stats.density.count, stats.density_reused), (1, 1));

        let mut fresh = problem(&c);
        fresh.lambda = 3.0;
        fresh.set_smoothing(0.25);
        fresh.set_preconditioner(true);
        assert!(
            reused == eval_bits(&mut fresh, &x),
            "reuse changed the bits"
        );
        assert_eq!(p.last_stats(), fresh.last_stats());

        // a point one ulp away in its last coordinate is a new point
        let mut near = x.clone();
        let last = near.len() - 1;
        near[last] = f64::from_bits(near[last].to_bits() + 1);
        let near_bits = eval_bits(&mut p, &near);
        let stats = p.engine().stats();
        assert_eq!((stats.density.count, stats.density_reused), (2, 1));
        assert!(near_bits == eval_bits(&mut fresh, &near));

        // `density_report` and `eval` share one density result
        let report = p.density_report(&x);
        eval_bits(&mut p, &x);
        let stats = p.engine().stats();
        assert_eq!((stats.density.count, stats.density_reused), (3, 2));
        assert_eq!(
            report.energy.to_bits(),
            p.last_stats().density_energy.to_bits()
        );
    }

    #[test]
    fn degrading_the_density_solver_forces_a_new_density_evaluation() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 2.0;
        let x = moved(&p, &p.pack_params(&c.placement));
        eval_bits(&mut p, &x);
        p.degrade_density_solver();
        let degraded = eval_bits(&mut p, &x);
        let stats = p.engine().stats();
        assert_eq!((stats.density.count, stats.density_reused), (2, 0));

        let mut fresh = problem(&c);
        fresh.lambda = 2.0;
        fresh.degrade_density_solver();
        assert!(
            degraded == eval_bits(&mut fresh, &x),
            "stale density after degrading"
        );
        assert_eq!(p.last_stats(), fresh.last_stats());
    }

    #[test]
    fn engine_instrumentation_sees_both_stages() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        let params = p.pack_params(&c.placement);
        let mut g = vec![0.0; p.dim()];
        p.eval(&params, &mut g);
        // a second, distinct point: the density term is evaluated again
        p.eval(&moved(&p, &params), &mut g);
        let stats = p.engine().stats();
        assert_eq!(stats.wl_grad.count, 2);
        assert_eq!(stats.density.count, 2);
        assert_eq!(stats.density_reused, 0);
        // each density update runs 4 spectral sweeps (DCT2, DCT3, ×2 field)
        assert_eq!(stats.density_transform.count, 8);
        assert!(stats.density_transform.nanos <= stats.density.nanos);
        assert_eq!(stats.spawned_threads, 0, "1-thread engine never spawns");
    }

    #[test]
    fn pack_unpack_round_trip() {
        let c = synth::generate(&synth::smoke_spec());
        let p = problem(&c);
        let params = p.pack_params(&c.placement);
        let mut pl = c.placement.clone();
        p.unpack_params(&params, &mut pl);
        for i in 0..pl.len() {
            assert!((pl.x[i] - c.placement.x[i]).abs() < 1e-12);
            assert!((pl.y[i] - c.placement.y[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn objective_combines_terms() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        let params = p.pack_params(&c.placement);
        let mut g = vec![0.0; p.dim()];
        p.lambda = 0.0;
        let f_wl = p.eval(&params, &mut g);
        let stats = p.last_stats();
        assert!((f_wl - stats.wirelength).abs() < 1e-9);
        p.lambda = 2.0;
        let f_both = p.eval(&params, &mut g);
        assert!((f_both - (stats.wirelength + 2.0 * stats.density_energy)).abs() < 1e-6);
    }

    #[test]
    fn wirelength_gradient_matches_finite_difference() {
        // λ = 0 isolates the wirelength path through pack/unpack; the
        // density force is the physical field, which matches the exact
        // derivative of the *rasterized* energy only up to discretization
        // (verified with its own tolerance in mep-density).
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 0.0;
        let mut params = p.pack_params(&c.placement);
        let die = c.design.die;
        for (i, v) in params.iter_mut().enumerate() {
            *v += ((i as f64) * 0.7).sin() * 0.2 * die.width();
        }
        p.project(&mut params);
        let mut g = vec![0.0; p.dim()];
        p.eval(&params, &mut g);
        let h = 1e-5 * die.width();
        for idx in [3usize, 77, 200, 555] {
            let mut plus = params.clone();
            plus[idx] += h;
            let mut gg = vec![0.0; p.dim()];
            let fp = p.eval(&plus, &mut gg);
            let mut minus = params.clone();
            minus[idx] -= h;
            let fm = p.eval(&minus, &mut gg);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - g[idx]).abs() < 1e-3 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs analytic {}",
                g[idx]
            );
        }
    }

    #[test]
    fn combined_gradient_is_a_descent_direction() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 1.0;
        let mut params = p.pack_params(&c.placement);
        for (i, v) in params.iter_mut().enumerate() {
            *v += ((i as f64) * 1.3).cos() * 0.1 * c.design.die.width();
        }
        p.project(&mut params);
        let mut g = vec![0.0; p.dim()];
        let f0 = p.eval(&params, &mut g);
        let gnorm = g.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        let step = 1e-3 * c.design.die.width() / gnorm * g.len() as f64;
        // a short move along −∇f must reduce the objective
        let trial: Vec<f64> = params
            .iter()
            .zip(&g)
            .map(|(&x, &gi)| x - step.min(1e-2) * gi)
            .collect();
        let mut gg = vec![0.0; p.dim()];
        let f1 = p.eval(&trial, &mut gg);
        assert!(f1 < f0, "f0 {f0} -> f1 {f1}");
    }

    #[test]
    fn projection_keeps_cells_inside_die() {
        let c = synth::generate(&synth::smoke_spec());
        let p = problem(&c);
        let mut params = p.pack_params(&c.placement);
        for v in params.iter_mut() {
            *v += 1e6; // push far outside
        }
        p.project(&mut params);
        let mut pl = c.placement.clone();
        p.unpack_params(&params, &mut pl);
        let nl = &c.design.netlist;
        for cell in nl.movable_cells() {
            let r = pl.cell_rect(nl, cell);
            assert!(
                c.design.die.contains_rect(&r),
                "cell {cell} at {r} outside die"
            );
        }
    }
}
