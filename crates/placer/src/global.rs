//! The electrostatic global-placement engine (ePlace loop).
//!
//! Per iteration: one Nesterov step on `Σ W_e + λ D`, then
//!
//! * the wirelength smoothing parameter is re-derived from the current
//!   density overflow `φ` — the paper's tangent schedule Eq. (14) for the
//!   Moreau model, ePlace's decade schedule for the exponential models;
//! * the density weight `λ` is increased per Eq. (15) with
//!   `(α_L, α_H) = (1.01, 1.02)` and `β = 2000`;
//!
//! until the overflow reaches the target (ISPD-style 0.07 default) or the
//! iteration cap. Optionally records the `(HPWL, φ)` trajectory that
//! regenerates Fig. 3.
//!
//! The loop runs under a numerical-health guard (see [`crate::guard`]):
//! each iteration's value/overflow/coordinates are checked for NaN/Inf,
//! divergence, and stagnation, a best-so-far snapshot is kept, and a
//! tripped guard rolls back + backs off the steplength, escalating after
//! repeated strikes down a degradation ladder (Moreau → WA → LSE model,
//! then the unplanned density transform) before giving up. On a clean run
//! the guard is pure observation and the result is bit-identical to the
//! unguarded loop.

use crate::cancel::CancelToken;
use crate::error::PlacerError;
use crate::guard::{
    Fault, GuardConfig, HealthMonitor, RecoveryAction, RecoveryEvent, RecoveryLog, Termination,
};
use crate::objective::PlacementProblem;
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::Placement;
use mep_obs::{IterationRecord, NoopSink, TraceSink};
use mep_optim::nesterov::Nesterov;
use mep_optim::{Optimizer, Problem};
use mep_wirelength::engine::{EngineStats, EvalEngine};
use mep_wirelength::{EplaceGammaSchedule, ModelKind, SmoothingSchedule, TangentTSchedule};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which schedule drives the Moreau smoothing parameter `t` (ablation of
/// the paper's Eq. (14) design choice; exponential models always use the
/// decade schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MoreauSchedule {
    /// The paper's tangent schedule, Eq. (14).
    #[default]
    Tangent,
    /// ePlace's decade schedule `10^{kφ+b}` applied to `t` instead of `γ`.
    Decade,
}

/// Which first-order optimizer drives the placement iterations.
///
/// ePlace (and the paper) use Nesterov; the alternatives implement the
/// related-work baselines and the "novel optimizers" the paper's
/// conclusion points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerKind {
    /// Nesterov with Lipschitz steplength prediction (ePlace, default).
    #[default]
    Nesterov,
    /// Adam with a steplength scaled from the bin size.
    Adam,
    /// Polak–Ribière–Polyak conjugate subgradient \[23\] — pairs naturally
    /// with `ModelKind::Hpwl` for non-smooth direct optimization.
    ConjugateSubgradient,
}

/// Configuration of the global placer.
#[derive(Debug, Clone)]
pub struct GlobalConfig {
    /// Wirelength model to optimize with.
    pub model: ModelKind,
    /// Smoothing schedule used when `model == Moreau` (Eq. (14) ablation).
    pub moreau_schedule: MoreauSchedule,
    /// First-order optimizer (ePlace Nesterov by default).
    pub optimizer: OptimizerKind,
    /// ePlace/DREAMPlace Jacobi preconditioner on the gradient (off by
    /// default: at our benchmark scale its effect is within ±0.6% and
    /// model-dependent; see `ablation_optimizer` to measure it).
    pub precondition: bool,
    /// Stop once density overflow falls below this (paper flow: 0.07).
    pub target_overflow: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Minimum iterations before the overflow stop can fire.
    pub min_iters: usize,
    /// Worker threads for the evaluation engine (wirelength + density).
    pub threads: usize,
    /// Record the per-iteration trajectory (Fig. 3).
    pub record_trajectory: bool,
    /// `t0` for the tangent schedule (paper default 4).
    pub t0: f64,
    /// `γ0` for the ePlace schedule.
    pub gamma0: f64,
    /// `(α_L, α_H)` of Eq. (15).
    pub alpha: (f64, f64),
    /// `β` of Eq. (15).
    pub beta: f64,
    /// Multiplier on the bootstrapped λ₀ (and therefore on the Eq. (15)
    /// ramp rate). `1.0` is the paper flow; warm-started stages of the
    /// multilevel driver raise it so a placement that is already spread
    /// does not re-walk the whole density ramp from the beginning.
    pub lambda_scale: f64,
    /// Numerical-health guard (rollback, backoff, degradation ladder).
    pub guard: GuardConfig,
    /// Optional wall-clock budget; on expiry the best snapshot so far is
    /// returned as a partial result with [`Termination::WallClock`].
    pub time_budget: Option<Duration>,
    /// Test hook: `(after, count)` poisons `count` consecutive objective
    /// evaluations with NaN once `after` main-loop evaluations have run,
    /// exercising the recovery guard. `None` (the default) in all
    /// production flows.
    pub fault_injection: Option<(u64, u64)>,
    /// Per-iteration trace sink. The default [`NoopSink`] reports
    /// `enabled() == false`, so the loop skips building records (and the
    /// exact-HPWL evaluation feeding them) entirely.
    pub trace: Arc<dyn TraceSink>,
    /// Multilevel hierarchy level this run operates on (0 = the original
    /// finest netlist). Purely observational: stamped into every
    /// [`IterationRecord`] by the loop.
    pub level: u32,
    /// Flow-stage label stamped into trace records (`None` for the flat
    /// flow; the multilevel/ECO drivers set `"warm-ub"`, `"coarse"`,
    /// `"final"`, `"eco"`, …).
    pub stage: Option<String>,
    /// Cooperative cancellation handle, polled once per iteration
    /// alongside `time_budget`. The default token is inert; drivers (the
    /// `mep-serve` daemon, signal handlers) install a shared token to
    /// cancel or deadline a run mid-solve. On trip the loop restores the
    /// best-so-far snapshot and reports [`Termination::Cancelled`]
    /// (explicit cancel) or [`Termination::WallClock`] (deadline expiry).
    pub cancel: CancelToken,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Moreau,
            moreau_schedule: MoreauSchedule::Tangent,
            optimizer: OptimizerKind::Nesterov,
            precondition: false,
            target_overflow: 0.07,
            max_iters: 600,
            min_iters: 30,
            threads: mep_wirelength::engine::default_threads(),
            record_trajectory: false,
            t0: 4.0,
            gamma0: 0.5,
            alpha: (1.01, 1.02),
            beta: 2000.0,
            lambda_scale: 1.0,
            guard: GuardConfig::default(),
            time_budget: None,
            fault_injection: None,
            trace: Arc::new(NoopSink),
            level: 0,
            stage: None,
            cancel: CancelToken::new(),
        }
    }
}

/// One point of the Fig. 3 trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Iteration index.
    pub iter: usize,
    /// Exact HPWL at this iteration.
    pub hpwl: f64,
    /// Density overflow `φ`.
    pub overflow: f64,
    /// Density weight `λ`.
    pub lambda: f64,
    /// Wirelength smoothing parameter in effect.
    pub smoothing: f64,
}

/// Result of global placement.
#[derive(Debug, Clone)]
pub struct GlobalResult {
    /// Final (unlegalized) placement.
    pub placement: Placement,
    /// Exact HPWL of the final placement.
    pub hpwl: f64,
    /// Final density overflow.
    pub overflow: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Per-iteration `(HPWL, φ)` samples when recording was enabled.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Evaluation-engine instrumentation (spawns, eval counts, stage
    /// times) of this run alone, counted through its own
    /// [`EvalEngine::scoped`] view, so it holds even when other runs use
    /// the same engine at the same time.
    pub engine_stats: EngineStats,
    /// Spectral-transform kernel instrumentation (which kernels ran: lane
    /// tiles, scalar fallback lines, transposes) for the density solver.
    pub transform_stats: mep_density::TransformStats,
    /// Every recovery the guard performed (empty on a clean run).
    pub recovery: RecoveryLog,
    /// Why the loop stopped.
    pub termination: Termination,
}

/// Rejects inputs the loop cannot meaningfully run on: nothing to place,
/// a degenerate die, or non-finite starting coordinates.
pub(crate) fn validate_circuit(circuit: &BookshelfCircuit) -> Result<(), PlacerError> {
    let design = &circuit.design;
    if design.netlist.num_movable() == 0 {
        return Err(PlacerError::DegenerateInput {
            reason: format!(
                "netlist '{}' has no movable cells (all {} cells fixed)",
                design.name,
                design.netlist.num_cells()
            ),
        });
    }
    let (w, h) = (design.die.width(), design.die.height());
    // NaN dimensions fail the positivity test and land in the error arm
    let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !positive(w) || !positive(h) || !w.is_finite() || !h.is_finite() {
        return Err(PlacerError::DegenerateInput {
            reason: format!("die has degenerate dimensions {w} × {h}"),
        });
    }
    let bad = circuit
        .placement
        .x
        .iter()
        .chain(circuit.placement.y.iter())
        .filter(|v| !v.is_finite())
        .count();
    if bad > 0 {
        return Err(PlacerError::DegenerateInput {
            reason: format!("initial placement has {bad} non-finite coordinate(s)"),
        });
    }
    Ok(())
}

/// Runs ePlace-style global placement on a circuit, creating a persistent
/// evaluation engine with `config.threads` workers for the run.
pub fn place(
    circuit: &BookshelfCircuit,
    config: &GlobalConfig,
) -> Result<GlobalResult, PlacerError> {
    place_with_engine(circuit, config, Arc::new(EvalEngine::new(config.threads)))
}

/// Runs global placement on a caller-provided engine (so a pipeline can
/// share one worker pool across stages and aggregate instrumentation).
pub fn place_with_engine(
    circuit: &BookshelfCircuit,
    config: &GlobalConfig,
    engine: Arc<EvalEngine>,
) -> Result<GlobalResult, PlacerError> {
    validate_circuit(circuit)?;
    // the engine may be shared, even by runs going on at the same time:
    // count this run's work through its own view of the engine
    let engine = Arc::new(engine.scoped());
    // lint:allow(determinism): the wall-clock budget is an explicit opt-in termination criterion (GlobalConfig::time_budget); its nondeterminism is documented
    let start = Instant::now();
    let design = &circuit.design;
    let model = config.model.instantiate(1.0);
    let mut problem = PlacementProblem::new(design, &circuit.placement, model, engine.clone());
    problem.set_preconditioner(config.precondition);
    let mut params = problem.pack_params(&circuit.placement);
    problem.project(&mut params);

    // schedules sized by the bin grid
    let grid = problem.electrostatics().grid();
    let (bw, bh) = (grid.bin_w(), grid.bin_h());
    let tangent = TangentTSchedule::new(bw, bh).with_t0(config.t0);
    let decade = EplaceGammaSchedule::new(config.gamma0, bw, bh);
    let smoothing_for = |kind: ModelKind, phi: f64| -> f64 {
        match kind {
            ModelKind::Moreau => match config.moreau_schedule {
                MoreauSchedule::Tangent => tangent.value(phi),
                MoreauSchedule::Decade => decade.value(phi).max(1e-6),
            },
            ModelKind::Hpwl => 0.0,
            _ => decade.value(phi),
        }
    };

    // initial overflow & smoothing
    let report0 = problem.density_report(&params);
    let mut phi = report0.overflow;
    let d0 = report0.energy.max(1e-30);
    if !phi.is_finite() || !report0.energy.is_finite() {
        return Err(PlacerError::NumericalFailure {
            iteration: 0,
            detail: format!(
                "initial density report is non-finite (overflow {phi}, energy {})",
                report0.energy
            ),
        });
    }
    if config.model != ModelKind::Hpwl {
        problem.set_smoothing(smoothing_for(config.model, phi));
    }

    // λ0 per ePlace: ratio of gradient norms (wirelength vs density),
    // measured on the raw (unpreconditioned) gradient
    problem.set_preconditioner(false);
    let mut grad = vec![0.0; problem.dim()];
    problem.lambda = 0.0;
    problem.eval(&params, &mut grad);
    let wl_norm: f64 = grad.iter().map(|g| g.abs()).sum();
    problem.lambda = 1.0;
    problem.eval(&params, &mut grad);
    let both_norm: f64 = grad.iter().map(|g| g.abs()).sum();
    let density_norm = (both_norm - wl_norm).abs().max(1e-30);
    let lambda0 = (wl_norm / density_norm).max(1e-12) * config.lambda_scale.max(1e-6);
    if !lambda0.is_finite() {
        return Err(PlacerError::NumericalFailure {
            iteration: 0,
            detail: format!(
                "λ₀ bootstrap produced a non-finite weight \
                 (|∇W| {wl_norm}, |∇W + ∇D| {both_norm})"
            ),
        });
    }
    problem.lambda = lambda0;
    problem.set_preconditioner(config.precondition);

    // Eq. (15) state
    let (alpha_l, alpha_h) = config.alpha;
    let mut alpha_k = (alpha_l - 1.0) * lambda0;

    // initial steplength: first move ~ a couple of bins against ∇f
    let gmax = grad
        .iter()
        .fold(0.0_f64, |acc, g| acc.max(g.abs()))
        .max(1e-30);
    let initial_step = 0.5 * (bw + bh) / gmax;
    let mut optimizer: Box<dyn Optimizer> = match config.optimizer {
        OptimizerKind::Nesterov => Box::new(Nesterov::new(initial_step)),
        OptimizerKind::Adam => Box::new(mep_optim::adam::Adam::new(0.25 * (bw + bh))),
        OptimizerKind::ConjugateSubgradient => Box::new(mep_optim::cg::ConjugateSubgradient::new(
            2.0 * (bw + bh) * (problem.dim() as f64).sqrt(),
        )),
    };

    // the guard: seed the rollback snapshot with the pre-loop state so a
    // fault on the very first step has somewhere safe to return to
    let mut monitor = HealthMonitor::new(config.guard.clone());
    monitor.seed(&params, phi, problem.lambda, problem.smoothing());
    if let Some((after, count)) = config.fault_injection {
        problem.inject_nan(after, count);
    }

    let trace = config.trace.as_ref();
    let tracing = trace.enabled();
    let mut trajectory = Vec::new();
    let mut iterations = 0;
    let mut termination = Termination::IterationCap;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let step_report = optimizer.step(&mut problem, &mut params);
        let stats = problem.last_stats();
        let value = stats.wirelength + problem.lambda * stats.density_energy;
        // `None` on a healthy step, `Some("fault -> action")` otherwise.
        let mut guard_verdict: Option<String> = None;
        let mut stop = false;

        match monitor.check(
            value,
            step_report.grad_norm,
            step_report.step,
            stats.overflow,
            &params,
        ) {
            Ok(()) => {
                phi = stats.overflow;
                monitor.observe_healthy(
                    iter,
                    value,
                    phi,
                    &params,
                    problem.lambda,
                    problem.smoothing(),
                );

                // schedules
                if problem.model_kind() != ModelKind::Hpwl {
                    problem.set_smoothing(smoothing_for(problem.model_kind(), phi));
                }
                let dk = stats.density_energy.max(0.0);
                let mult =
                    alpha_h - (alpha_h - alpha_l) / (1.0 + (1.0 + config.beta * dk / d0).ln());
                alpha_k *= mult;
                problem.lambda += alpha_k;

                if config.record_trajectory {
                    trajectory.push(TrajectoryPoint {
                        iter,
                        hpwl: problem.exact_hpwl(&params),
                        overflow: phi,
                        lambda: problem.lambda,
                        smoothing: problem.smoothing(),
                    });
                }

                if phi <= config.target_overflow && iter + 1 >= config.min_iters {
                    termination = Termination::Converged;
                    stop = true;
                }
            }
            Err(fault) => {
                if matches!(fault, Fault::Stagnation { .. }) {
                    // no amount of retrying fixes a flat-lined optimizer:
                    // return the best snapshot as a partial result
                    restore_best(&monitor, &mut params, &mut problem, &mut phi);
                    monitor.record(RecoveryEvent {
                        iteration: iter,
                        fault,
                        action: RecoveryAction::Halt,
                    });
                    guard_verdict = Some(format!("{fault} -> {}", RecoveryAction::Halt));
                    termination = Termination::Stagnated;
                    stop = true;
                } else {
                    // escalate the degradation ladder after repeated strikes
                    let mut action = RecoveryAction::RollbackBackoff;
                    let mut halted = false;
                    if monitor.strike() >= config.guard.max_strikes {
                        let from = problem.model_kind();
                        let to = match from {
                            ModelKind::Moreau | ModelKind::BigChks | ModelKind::BigWa => {
                                Some(ModelKind::Wa)
                            }
                            ModelKind::Wa => Some(ModelKind::Lse),
                            _ => None,
                        };
                        if let Some(to) = to {
                            problem.set_model(to.instantiate(1.0));
                            action = RecoveryAction::DegradeModel { from, to };
                            monitor.clear_strikes();
                        } else if !problem.density_solver_degraded() {
                            problem.degrade_density_solver();
                            action = RecoveryAction::DegradeDensitySolver;
                            monitor.clear_strikes();
                        } else {
                            action = RecoveryAction::Halt;
                            halted = true;
                        }
                    }

                    if halted {
                        restore_best(&monitor, &mut params, &mut problem, &mut phi);
                        monitor.record(RecoveryEvent {
                            iteration: iter,
                            fault,
                            action,
                        });
                        termination = Termination::GuardExhausted;
                        stop = true;
                    } else {
                        // roll back to the best snapshot, re-derive the
                        // smoothing for the (possibly new) model, and shrink
                        // the steplength; the λ ramp and schedules are
                        // skipped for this iteration
                        restore_best(&monitor, &mut params, &mut problem, &mut phi);
                        if problem.model_kind() != ModelKind::Hpwl {
                            problem.set_smoothing(smoothing_for(problem.model_kind(), phi));
                        }
                        optimizer.backoff(config.guard.backoff);
                        monitor.record(RecoveryEvent {
                            iteration: iter,
                            fault,
                            action,
                        });
                        if monitor.exhausted() {
                            termination = Termination::GuardExhausted;
                            stop = true;
                        }
                    }
                    guard_verdict = Some(format!("{fault} -> {action}"));
                }
            }
        }

        if tracing {
            trace.record(&IterationRecord {
                iter: iter as u64,
                level: config.level as u64,
                stage: config.stage.clone(),
                objective: value,
                hpwl: problem.exact_hpwl(&params),
                overflow: phi,
                lambda: problem.lambda,
                smoothing: problem.smoothing(),
                step: step_report.step,
                grad_norm: step_report.grad_norm,
                guard: guard_verdict,
                elapsed_secs: start.elapsed().as_secs_f64(),
            });
        }
        if stop {
            break;
        }

        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                restore_best(&monitor, &mut params, &mut problem, &mut phi);
                termination = Termination::WallClock;
                break;
            }
        }

        if let Some(t) = config.cancel.termination() {
            restore_best(&monitor, &mut params, &mut problem, &mut phi);
            termination = t;
            break;
        }
    }
    if tracing {
        // best-effort: a sink I/O failure must not fail the placement run;
        // the CLI surfaces flush errors at its own explicit flush
        let _ = trace.flush();
    }

    let mut placement = circuit.placement.clone();
    problem.unpack_params(&params, &mut placement);
    let hpwl = mep_netlist::total_hpwl(&design.netlist, &placement);
    let overflow = problem.density_report(&params).overflow;
    Ok(GlobalResult {
        placement,
        hpwl,
        overflow,
        iterations,
        trajectory,
        engine_stats: engine.stats(),
        transform_stats: problem.electrostatics().transform_stats(),
        recovery: monitor.into_log(),
        termination,
    })
}

/// Restores the monitor's best snapshot into the live loop state (params,
/// `λ`, overflow). No-op when no healthy iterate has been seen and the
/// snapshot was never seeded (disabled guard).
fn restore_best(
    monitor: &HealthMonitor,
    params: &mut [f64],
    problem: &mut PlacementProblem<'_>,
    phi: &mut f64,
) {
    if let Some(best) = monitor.best() {
        params.copy_from_slice(&best.params);
        problem.lambda = best.lambda;
        *phi = best.phi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;

    fn smoke_config(model: ModelKind) -> GlobalConfig {
        GlobalConfig {
            model,
            max_iters: 250,
            min_iters: 20,
            threads: 1,
            record_trajectory: true,
            ..GlobalConfig::default()
        }
    }

    #[test]
    fn overflow_decreases_substantially() {
        let c = synth::generate(&synth::smoke_spec());
        let r = place(&c, &smoke_config(ModelKind::Moreau)).unwrap();
        let first = r.trajectory.first().unwrap().overflow;
        assert!(
            r.overflow < 0.5 * first,
            "overflow {} from {first} after {} iters",
            r.overflow,
            r.iterations
        );
        assert!(r.recovery.is_empty(), "clean run must not trip the guard");
    }

    #[test]
    fn cells_spread_from_center() {
        let c = synth::generate(&synth::smoke_spec());
        let r = place(&c, &smoke_config(ModelKind::Moreau)).unwrap();
        let nl = &c.design.netlist;
        let die = c.design.die;
        // cells must no longer be piled in the middle 10% of the die
        let center = die.center();
        let spread = nl
            .movable_cells()
            .filter(|&cell| {
                let p = r.placement.center(nl, cell);
                (p.x - center.x).abs() > 0.05 * die.width()
                    || (p.y - center.y).abs() > 0.05 * die.height()
            })
            .count();
        assert!(
            spread > nl.num_movable() / 2,
            "only {spread} of {} cells moved off-center",
            nl.num_movable()
        );
        // and all stay inside the die
        for cell in nl.movable_cells() {
            assert!(die.contains_rect(&r.placement.cell_rect(nl, cell)));
        }
    }

    #[test]
    fn all_models_run_and_spread() {
        let c = synth::generate(&synth::smoke_spec());
        for kind in ModelKind::contestants() {
            let mut cfg = smoke_config(kind);
            cfg.max_iters = 120;
            cfg.record_trajectory = false;
            let r = place(&c, &cfg).unwrap();
            assert!(r.hpwl.is_finite(), "{kind}");
            assert!(r.overflow < 0.9, "{kind}: overflow {}", r.overflow);
        }
    }

    #[test]
    fn engine_stats_cover_the_whole_run() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 40;
        cfg.record_trajectory = false;
        let r = place(&c, &cfg).unwrap();
        let s = r.engine_stats;
        // one wirelength-gradient eval per optimizer eval, plus the λ0 probes
        assert!(s.wl_grad.count >= r.iterations as u64, "{s:?}");
        assert_eq!(s.wl_grad.count, s.density.count, "{s:?}");
        assert_eq!(s.spawned_threads, 0, "1-thread config must not spawn");
        assert_eq!(s.workspace_allocs, 1, "workspace built once, then reused");
        assert!(s.wl_grad.nanos > 0 && s.density.nanos > 0);
    }

    #[test]
    fn runs_sharing_an_engine_each_report_their_own_counters_even_at_once() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 30;
        cfg.record_trajectory = false;
        // a threshold of 1 sends every wirelength evaluation to the pool
        let engine = || Arc::new(EvalEngine::new(2).with_parallel_threshold(1));
        let counts = |s: EngineStats| {
            (
                s.parallel_runs,
                s.serial_runs,
                s.workspace_allocs,
                s.wl_grad.count,
                s.wl_value.count,
                s.density.count,
                s.density_transform.count,
            )
        };
        let fresh = place_with_engine(&c, &cfg, engine()).unwrap().engine_stats;
        assert!(fresh.parallel_runs > 0, "{fresh:?}");
        assert_eq!(fresh.spawned_threads, 1);
        let shared = engine();
        let first = place_with_engine(&c, &cfg, Arc::clone(&shared))
            .unwrap()
            .engine_stats;
        let second = place_with_engine(&c, &cfg, Arc::clone(&shared))
            .unwrap()
            .engine_stats;
        assert_eq!(counts(first), counts(fresh));
        assert_eq!(counts(second), counts(fresh));
        assert_eq!(first.spawned_threads, 1);
        assert_eq!(second.spawned_threads, 0, "the pool outlives the first run");
        assert_eq!(shared.stats().wl_grad.count, 2 * fresh.wl_grad.count);

        // two runs going at once on one engine (as `mep serve` workers do)
        let shared = engine();
        let start = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let run = || {
                start.wait();
                place_with_engine(&c, &cfg, Arc::clone(&shared))
                    .unwrap()
                    .engine_stats
            };
            let (a, b) = (s.spawn(run), s.spawn(run));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(counts(a), counts(fresh));
        assert_eq!(counts(b), counts(fresh));
        assert_eq!(a.spawned_threads + b.spawned_threads, 1);
        assert_eq!(shared.stats().density.count, 2 * fresh.density.count);
    }

    #[test]
    fn trajectory_is_recorded_per_iteration() {
        let c = synth::generate(&synth::smoke_spec());
        let r = place(&c, &smoke_config(ModelKind::Wa)).unwrap();
        assert_eq!(r.trajectory.len(), r.iterations);
        // λ increases monotonically per Eq. (15)
        for w in r.trajectory.windows(2) {
            assert!(w[1].lambda >= w[0].lambda);
        }
    }

    #[test]
    fn termination_reports_cap_and_convergence() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 5;
        cfg.record_trajectory = false;
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::IterationCap);
        assert!(!r.termination.is_partial());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.record_trajectory = false;
        cfg.target_overflow = 0.25; // generous: reached well inside the cap
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::Converged);
    }

    #[test]
    fn trace_sink_gets_one_record_per_iteration() {
        use mep_obs::RingSink;
        let c = synth::generate(&synth::smoke_spec());
        let sink = Arc::new(RingSink::new(4096));
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 30;
        cfg.record_trajectory = false;
        cfg.trace = sink.clone();
        let r = place(&c, &cfg).unwrap();
        let recs = sink.records();
        assert_eq!(recs.len(), r.iterations, "one record per Nesterov step");
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.iter, i as u64);
            assert!(rec.objective.is_finite());
            assert!(rec.hpwl.is_finite() && rec.hpwl > 0.0);
            assert!(rec.overflow.is_finite() && rec.overflow >= 0.0);
            assert!(rec.lambda > 0.0);
            assert!(rec.smoothing > 0.0, "Moreau t-schedule is positive");
            assert!(rec.step > 0.0);
            assert!(rec.grad_norm >= 0.0);
            assert!(rec.guard.is_none(), "clean run has no guard verdicts");
            assert!(rec.elapsed_secs >= 0.0);
        }
    }

    #[test]
    fn trace_records_guard_verdicts_on_faults() {
        use mep_obs::RingSink;
        let c = synth::generate(&synth::smoke_spec());
        let sink = Arc::new(RingSink::new(4096));
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 40;
        cfg.record_trajectory = false;
        cfg.fault_injection = Some((10, 2));
        cfg.trace = sink.clone();
        place(&c, &cfg).unwrap();
        let recs = sink.records();
        let faults: Vec<&IterationRecord> = recs.iter().filter(|r| r.guard.is_some()).collect();
        assert!(
            !faults.is_empty(),
            "injected NaNs must show up in the trace"
        );
        for rec in faults {
            let verdict = rec.guard.as_deref().unwrap();
            assert!(verdict.contains("->"), "verdict {verdict:?}");
        }
    }

    #[test]
    fn cancelled_token_returns_a_partial_result() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.record_trajectory = false;
        let token = crate::cancel::CancelToken::new();
        cfg.cancel = token.clone();
        token.cancel();
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::Cancelled);
        assert!(r.termination.is_partial());
        assert_eq!(r.iterations, 1, "token is polled after the first step");
        assert!(r.hpwl.is_finite());
    }

    #[test]
    fn token_deadline_matches_time_budget_semantics() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.record_trajectory = false;
        cfg.cancel = crate::cancel::CancelToken::with_deadline_in(Duration::ZERO);
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::WallClock);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn wall_clock_budget_returns_a_partial_result() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.record_trajectory = false;
        cfg.time_budget = Some(Duration::ZERO);
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::WallClock);
        assert!(r.termination.is_partial());
        assert_eq!(r.iterations, 1, "budget expires after the first step");
        assert!(r.hpwl.is_finite());
    }
}
