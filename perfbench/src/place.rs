//! The flat placement workloads: load -> GP -> LG -> DP -> write, the
//! flow `mep place --out` runs, timed from outside around each layer.

use crate::report::{median, tail, Outcome};
use crate::trace::{now, Open, Tracer};
use mep_density::{Electrostatics, PoissonSolver};
use mep_netlist::bookshelf::{self, BookshelfCircuit};
use mep_netlist::Placement;
use mep_placer::detail::{refine, DetailConfig, DetailReport};
use mep_placer::{audit_legality, legalize, place_with_engine, GlobalConfig, Termination};
use mep_serve::placement_fingerprint;
use mep_wirelength::{
    EngineStats, EvalEngine, ModelKind, NetlistEvaluator, SmoothingSchedule, TangentTSchedule,
    WirelengthGrad,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Iteration cap, the daemon's default: far above the ~770 iterations
/// the circuits converge in, so convergence is what stops every run.
const MAX_ITERS: usize = 2000;

/// Set-ups timed before the first placement and again after each one;
/// `setup_s` is their median. Spreading them over the run keeps a
/// momentary host slowdown from setting the figure.
const SETUP_REPEATS: usize = 5;

/// One placement workload.
#[derive(Debug)]
pub(crate) struct PlaceWorkload {
    /// The `.aux` file of the input circuit.
    pub(crate) aux: PathBuf,
    /// Target density the circuit is placed at (Bookshelf files do not
    /// carry it).
    pub(crate) target_density: f64,
    /// Engine threads for the measured placements.
    pub(crate) threads: usize,
    /// When set, one more placement at this thread count must be
    /// bit-identical to the measured ones (the thread-determinism
    /// contract).
    pub(crate) check_threads: Option<usize>,
}

/// What one placement produced.
#[derive(Debug)]
struct PlaceRun {
    seconds: f64,
    hash: u64,
    dpwl: f64,
    gp_overflow: f64,
    iterations: usize,
    termination: Termination,
    audit_violations: usize,
    engine: EngineStats,
    detail: DetailReport,
    gp_placement: Placement,
    span: Open,
}

fn config(threads: usize) -> GlobalConfig {
    GlobalConfig {
        max_iters: MAX_ITERS,
        threads,
        ..GlobalConfig::default()
    }
}

/// Load -> GP -> LG -> DP -> write, with a fresh engine so its counters
/// cover this placement only.
fn place_once(
    aux: &Path,
    density: f64,
    out_dir: &Path,
    threads: usize,
    id: u64,
    tr: &mut Tracer,
) -> Result<PlaceRun, String> {
    let t0 = now();
    let root = tr.open("placement", id);

    let s = tr.open("netlist.parse", id);
    let circuit = bookshelf::read_aux(aux, density).map_err(|e| format!("parse: {e}"))?;
    tr.close(s);

    let s = tr.open("engine.new", id);
    let engine = Arc::new(EvalEngine::new(threads));
    tr.close(s);

    let s = tr.open("placer.global", id);
    let gp = place_with_engine(&circuit, &config(threads), Arc::clone(&engine))
        .map_err(|e| format!("global placement: {e}"))?;
    tr.close(s);

    let design = circuit.design;
    let s = tr.open("placer.legalize", id);
    let (mut placed, _) =
        legalize(&design, &gp.placement).map_err(|e| format!("legalization: {e}"))?;
    tr.close(s);

    let s = tr.open("placer.detail", id);
    let detail = refine(&design, &mut placed, &DetailConfig::default());
    tr.close(s);

    let s = tr.open("netlist.write", id);
    let result = BookshelfCircuit {
        design,
        placement: placed,
    };
    bookshelf::write_dir(out_dir, &result).map_err(|e| format!("write: {e}"))?;
    tr.close(s);

    tr.close(root);
    let seconds = t0.elapsed().as_secs_f64();

    Ok(PlaceRun {
        seconds,
        hash: placement_fingerprint(&result.placement),
        dpwl: mep_netlist::total_hpwl(&result.design.netlist, &result.placement),
        gp_overflow: gp.overflow,
        iterations: gp.iterations,
        termination: gp.termination,
        audit_violations: audit_legality(&result.design, &result.placement).total(),
        engine: gp.engine_stats,
        detail,
        gp_placement: gp.placement,
        span: root,
    })
}

/// Runs the workload: set-up, then placements until `seconds` of
/// measurement are used (at least two, so the hash can be compared
/// across repeats). With `trace`, every second placement is traced and
/// the per-layer metrics come from the traced ones.
pub(crate) fn run(w: &PlaceWorkload, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(w, seconds, trace, work, &mut out) {
        out.attempted += 1;
        out.fail(e);
    }
    out
}

fn run_inner(
    w: &PlaceWorkload,
    seconds: f64,
    trace: bool,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let aux = &w.aux;
    let density = w.target_density;

    // set-up: Bookshelf parse + engine construction
    let mut pins = 0.0;
    let mut setup = Vec::new();
    let mut time_setup = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPEATS {
            let t0 = now();
            let c = bookshelf::read_aux(aux, density).map_err(|e| format!("parse: {e}"))?;
            let engine = EvalEngine::new(w.threads);
            setup.push(t0.elapsed().as_secs_f64());
            pins = c.design.netlist.num_pins() as f64;
            drop((c, engine));
        }
        Ok(())
    };
    time_setup(&mut setup)?;

    let mut tr = Tracer::new(trace);
    let out_dir = work.join("output");
    let started = now();
    let mut runs: Vec<PlaceRun> = Vec::new();
    loop {
        let id = runs.len() as u64;
        let traced = trace && id % 2 == 1;
        let mut off = Tracer::new(false);
        let r = place_once(
            aux,
            density,
            &out_dir,
            w.threads,
            id,
            if traced { &mut tr } else { &mut off },
        )?;
        out.attempted += 1;
        check(
            &r,
            runs.first().map(|f| f.hash),
            &format!("placement {id}"),
            out,
        );
        runs.push(r);
        let elapsed = started.elapsed().as_secs_f64();
        time_setup(&mut setup)?;
        let typical = median(&runs.iter().map(|r| r.seconds).collect::<Vec<_>>());
        if runs.len() >= 2 && elapsed + typical > seconds {
            break;
        }
    }
    let peak_kib = vm_hwm_kib("self").unwrap_or(0);
    out.set("setup_s", median(&setup));

    if let (Some(threads), Some(first)) = (w.check_threads, runs.first()) {
        let mut off = Tracer::new(false);
        let r = place_once(aux, density, &out_dir, threads, u64::MAX, &mut off)?;
        out.attempted += 1;
        check(
            &r,
            Some(first.hash),
            &format!("{threads}-thread placement"),
            out,
        );
    }

    let untraced: Vec<f64> = runs
        .iter()
        .enumerate()
        .filter(|(i, _)| !trace || i % 2 == 0)
        .map(|(_, r)| r.seconds)
        .collect();
    let (tail_s, _) = tail(&untraced);
    out.set("place_s", median(&untraced));
    out.set("hpwl", runs[0].dpwl);
    out.set("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.set("job_p50_s", median(&untraced));
    out.set("job_tail_s", tail_s);
    out.set(
        "jobs_per_min",
        60.0 * untraced.len() as f64 / untraced.iter().sum::<f64>(),
    );
    out.notes.push(format!(
        "placements {}: wall s {}  iterations {}  DPWL {:.6e}  hash {:016x}",
        runs.len(),
        runs.iter()
            .map(|r| format!("{:.3}", r.seconds))
            .collect::<Vec<_>>()
            .join(" "),
        runs[0].iterations,
        runs[0].dpwl,
        runs[0].hash
    ));

    if trace {
        let traced: Vec<&PlaceRun> = runs.iter().skip(1).step_by(2).collect();
        layer_metrics(&traced, &tr, pins, out);
        let traced_s: Vec<f64> = traced.iter().map(|r| r.seconds).collect();
        out.set("trace.overhead_s", median(&traced_s) - median(&untraced));
        if let Some(last) = traced.last() {
            replay(w, aux, &last.gp_placement, last.gp_overflow, out)?;
        }
        let path = work.join("spans.jsonl");
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Output checks of one placement: legal, converged, and (when a
/// reference exists) bit-identical to it.
fn check(r: &PlaceRun, reference: Option<u64>, what: &str, out: &mut Outcome) {
    if r.termination != Termination::Converged {
        out.fail(format!(
            "{what}: terminated `{}`, not converged",
            r.termination
        ));
    } else if r.audit_violations > 0 {
        out.fail(format!(
            "{what}: {} legality violations",
            r.audit_violations
        ));
    } else if reference.is_some_and(|h| h != r.hash) {
        out.fail(format!(
            "{what}: placement hash {:016x} differs from the first placement's",
            r.hash
        ));
    }
}

/// Per-layer metrics of the traced placements (median over them), with
/// the self-check that the GP children never exceed GP time.
fn layer_metrics(traced: &[&PlaceRun], tr: &Tracer, pins: f64, out: &mut Outcome) {
    let per =
        |f: &dyn Fn(&PlaceRun) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let span = |name: &'static str| move |r: &PlaceRun| tr.child(r.span, name).unwrap_or(0.0);
    let gp = span("placer.global");
    let engine_s = |r: &PlaceRun| r.engine.wl_grad.seconds() + r.engine.density.seconds();
    let global = per(&gp);
    let wl = per(&|r| r.engine.wl_grad.seconds());
    let density = per(&|r| r.engine.density.seconds());
    let spectral = per(&|r| r.engine.density_transform.seconds());
    let unattributed = per(&|r| gp(r) - engine_s(r));
    for r in traced {
        if engine_s(r) > 1.01 * gp(r) {
            out.fail(format!(
                "wirelength + density engine time {:.3}s exceeds global placement {:.3}s: \
                 counters are not scoped to the placement",
                engine_s(r),
                gp(r)
            ));
        }
        if tr.children_total(r.span) > tr.duration(r.span).unwrap_or(0.0) {
            out.fail("placement children exceed the placement span".to_string());
        }
    }
    out.set("placer.global_s", global);
    out.set("wirelength.grad_s", wl);
    out.set("density.total_s", density);
    out.set("density.spectral_s", spectral);
    out.set("density.raster_gather_s", density - spectral);
    out.set("placer.global.unattributed_s", unattributed);
    out.set("placer.global.iters", per(&|r| r.iterations as f64));
    out.set(
        "wirelength.grad_calls",
        per(&|r| r.engine.wl_grad.count as f64),
    );
    out.set(
        "wirelength.pins_per_s",
        per(&|r| pins * r.engine.wl_grad.count as f64 / r.engine.wl_grad.seconds().max(1e-12)),
    );
    out.set(
        "engine.parallel_share",
        per(&|r| {
            let all = r.engine.parallel_runs + r.engine.serial_runs;
            r.engine.parallel_runs as f64 / all.max(1) as f64
        }),
    );
    out.set("placer.legalize_s", per(&span("placer.legalize")));
    out.set("placer.detail_s", per(&span("placer.detail")));
    out.set(
        "placer.detail.swap_accept",
        per(&|r| r.detail.swap_acceptance()),
    );
    out.set(
        "placer.detail.reorder_accept",
        per(&|r| r.detail.reorder_acceptance()),
    );
    out.set(
        "placer.detail.matching_accept",
        per(&|r| r.detail.matching_acceptance()),
    );
    out.set("netlist.parse_s", per(&span("netlist.parse")));
    out.set("netlist.write_s", per(&span("netlist.write")));
    out.set(
        "placement.total_s",
        per(&|r| tr.duration(r.span).unwrap_or(0.0)),
    );
    out.set(
        "placement.unattributed_s",
        per(&|r| tr.duration(r.span).unwrap_or(0.0) - tr.children_total(r.span)),
    );
}

/// Per-call cost of the density and wirelength kernels, replayed at the
/// GP output placement (serial density, workload thread count for the
/// wirelength evaluator).
fn replay(
    w: &PlaceWorkload,
    aux: &Path,
    gp: &Placement,
    overflow: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let circuit = bookshelf::read_aux(aux, w.target_density).map_err(|e| format!("parse: {e}"))?;
    let design = &circuit.design;
    let nl = &design.netlist;
    let mut es = Electrostatics::new(design, gp);
    out.set(
        "density.update_ms",
        per_call_ms(|| {
            es.update(nl, gp);
        }),
    );
    let (mut gx, mut gy) = (vec![0.0; nl.num_cells()], vec![0.0; nl.num_cells()]);
    out.set(
        "density.gather_ms",
        per_call_ms(|| {
            es.accumulate_gradient(nl, gp, &mut gx, &mut gy);
        }),
    );
    let grid = es.grid();
    let (bw, bh) = (grid.bin_w(), grid.bin_h());
    let mut solver = PoissonSolver::new(
        grid.nx(),
        grid.ny(),
        design.die.width(),
        design.die.height(),
    );
    let rho = es.density().to_vec();
    let (mut psi, mut ex, mut ey) = (
        vec![0.0; rho.len()],
        vec![0.0; rho.len()],
        vec![0.0; rho.len()],
    );
    out.set(
        "density.poisson_ms",
        per_call_ms(|| {
            solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        }),
    );
    let smoothing = TangentTSchedule::new(bw, bh)
        .with_t0(config(w.threads).t0)
        .value(overflow);
    let mut eval = NetlistEvaluator::new(
        ModelKind::Moreau.instantiate(smoothing),
        Arc::new(EvalEngine::new(w.threads)),
    );
    let mut grad = WirelengthGrad::zeros(nl.num_cells());
    out.set(
        "wirelength.eval_ms",
        per_call_ms(|| eval.evaluate(nl, gp, &mut grad)),
    );
    Ok(())
}

/// Median milliseconds per call over at least 5 calls and ~0.3 s.
fn per_call_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily built plans
    let start = now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed().as_secs_f64() < 0.3 && samples.len() < 200) {
        let t = now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// `VmHWM` (peak resident set) of a process, KiB.
pub(crate) fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(PathBuf::from("/proc").join(pid).join("status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
