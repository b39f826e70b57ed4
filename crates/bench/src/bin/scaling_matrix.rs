//! **Multi-thread scaling matrix** (DESIGN.md §13): wall-clock medians for
//! the three placement hot paths — whole-netlist wirelength evaluation,
//! the spectral density transform (the four 2-D sweeps of one Poisson
//! solve), and a full global-placement iteration — at 1/2/4/8 worker
//! threads, plus the serial fused-vs-unfused spectral comparison that
//! backs the ISSUE 7 acceptance criterion.
//!
//! ```text
//! cargo run -p mep-bench --release --bin scaling_matrix [--fast] [--out PATH]
//! cargo run -p mep-bench --release --bin scaling_matrix --guard [BASELINE]
//! ```
//!
//! The default mode writes `BENCH_scaling.json` (or `--out PATH`).
//! `--guard` is the CI perf-regression mode: it re-measures only the
//! serial fused 512×512 density step and exits non-zero if it is more
//! than `MEP_PERF_GUARD_TOLERANCE` (default 0.10 = 10%) slower than the
//! committed baseline JSON. Thread counts can be pinned externally via
//! `MEP_THREADS` (see `mep_wirelength::engine::default_threads`), but
//! this binary always sweeps its own explicit 1/2/4/8 matrix.

use mep_density::transform::{Kind, Spectral2d};
use mep_density::ParallelExec;
use mep_obs::json::JsonObject;
use mep_placer::global::place;
use mep_placer::GlobalConfig;
use mep_wirelength::engine::EvalEngine;
use mep_wirelength::{ModelKind, NetlistEvaluator, WirelengthGrad};
use std::sync::Arc;
use std::time::Instant;

/// The four sweeps of one spectral Poisson solve.
const SWEEPS: [(Kind, Kind); 4] = [
    (Kind::Dct2, Kind::Dct2),
    (Kind::Dct3, Kind::Dct3),
    (Kind::Dst3, Kind::Dct3),
    (Kind::Dct3, Kind::Dst3),
];

/// Thread counts of the scaling matrix.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Adapter exposing the persistent worker pool to the density crate (same
/// shape as the placer's private adapter).
#[derive(Debug)]
struct EngineExec(Arc<EvalEngine>);

impl ParallelExec for EngineExec {
    fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        self.0.run(parts, f);
    }
}

/// Median wall-clock of `reps` timed runs (after one warmup), in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: touch caches, fault pages, build plans
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Deterministic pseudo-random grid (the same LCG the spectral tests use).
fn test_grid(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// One density step (four sweeps) on a prepared engine, in ms.
fn density_step_ms(n: usize, reps: usize, engine: &mut Spectral2d, rho: &[f64]) -> f64 {
    let mut buf = vec![0.0; n * n];
    median_ms(reps, || {
        for &(kx, ky) in &SWEEPS {
            buf.copy_from_slice(rho);
            engine.execute(&mut buf, kx, ky);
        }
        std::hint::black_box(buf[0]);
    })
}

/// Serial unfused reference density step, in ms.
fn density_step_unfused_ms(n: usize, reps: usize, rho: &[f64]) -> f64 {
    let mut engine = Spectral2d::new(n, n);
    let mut buf = vec![0.0; n * n];
    median_ms(reps, || {
        for &(kx, ky) in &SWEEPS {
            buf.copy_from_slice(rho);
            engine.execute_unfused(&mut buf, kx, ky);
        }
        std::hint::black_box(buf[0]);
    })
}

fn speedup_field(o: &mut JsonObject, name: &str, ms_by_threads: &[(usize, f64)]) {
    let base = ms_by_threads
        .iter()
        .find(|&&(t, _)| t == 1)
        .map(|&(_, ms)| ms)
        .unwrap_or(f64::NAN);
    let mut s = JsonObject::new();
    for &(t, ms) in ms_by_threads {
        s.field_f64(&format!("{t}"), round3(base / ms));
    }
    o.field_raw(name, &s.finish());
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let guard = args.iter().any(|a| a == "--guard");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    if guard {
        run_guard(&args);
        return;
    }

    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let reps = if fast { 3 } else { 7 };
    eprintln!("[scaling] available_parallelism = {avail}, reps = {reps}, fast = {fast}");

    // ---- density transform: serial fused vs unfused, then thread sweep ----
    let sizes: &[usize] = if fast {
        &[256, 512]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut density_json = JsonObject::new();
    let mut fused_512_serial = f64::NAN;
    for &n in sizes {
        let rho = test_grid(n * n, 17 + n as u64);
        let unfused = density_step_unfused_ms(n, reps, &rho);
        let mut per_size = JsonObject::new();
        per_size.field_f64("serial_unfused", round3(unfused));
        let mut by_threads = Vec::new();
        for &t in &THREADS {
            let mut engine = Spectral2d::new(n, n);
            if t > 1 {
                let pool = Arc::new(EvalEngine::new(t));
                engine.set_executor(Arc::new(EngineExec(pool)), t);
            }
            let ms = density_step_ms(n, reps, &mut engine, &rho);
            per_size.field_f64(&format!("fused_{t}t"), round3(ms));
            by_threads.push((t, ms));
            eprintln!("[scaling] density {n}x{n} fused {t}t: {ms:.2} ms (unfused {unfused:.2} ms)");
        }
        if n == 512 {
            fused_512_serial = by_threads[0].1;
        }
        per_size.field_f64(
            "fused_serial_speedup_vs_unfused",
            round3(unfused / by_threads[0].1),
        );
        speedup_field(&mut per_size, "thread_speedup", &by_threads);
        density_json.field_raw(&format!("{n}"), &per_size.finish());
    }

    // ---- engine eval: whole-netlist wirelength value + gradient ----
    let movable = if fast { 20_000 } else { 60_000 };
    let spec = mep_netlist::synth::scaled_clustered_spec(movable, 7);
    eprintln!("[scaling] generating `{}` ({movable} movable) …", spec.name);
    let circuit = mep_netlist::synth::generate(&spec);
    let nl = &circuit.design.netlist;
    let mut engine_rows = Vec::new();
    for &t in &THREADS {
        let mut eval = NetlistEvaluator::new(
            ModelKind::Moreau.instantiate(2.0),
            Arc::new(EvalEngine::new(t)),
        );
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        let ms = median_ms(reps, || {
            eval.evaluate(nl, &circuit.placement, &mut out);
            std::hint::black_box(out.value);
        });
        eprintln!("[scaling] engine eval {t}t: {ms:.2} ms");
        engine_rows.push((t, ms));
    }
    let mut engine_json = JsonObject::new();
    engine_json
        .field_u64("movable_cells", movable as u64)
        .field_u64("nets", nl.num_nets() as u64)
        .field_u64("pins", nl.num_pins() as u64);
    for &(t, ms) in &engine_rows {
        engine_json.field_f64(&format!("eval_{t}t"), round3(ms));
    }
    speedup_field(&mut engine_json, "thread_speedup", &engine_rows);

    // ---- full GP iteration: fixed-iteration global placement ----
    let gp_movable = if fast { 8_000 } else { 20_000 };
    let gp_iters = if fast { 15 } else { 30 };
    let gp_spec = mep_netlist::synth::scaled_clustered_spec(gp_movable, 11);
    let gp_circuit = mep_netlist::synth::generate(&gp_spec);
    let mut gp_rows = Vec::new();
    for &t in &THREADS {
        let config = GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: gp_iters,
            min_iters: gp_iters,
            threads: t,
            ..GlobalConfig::default()
        };
        let t0 = Instant::now();
        let r = place(&gp_circuit, &config).expect("global placement");
        let ms_per_iter = t0.elapsed().as_secs_f64() * 1e3 / r.iterations.max(1) as f64;
        eprintln!(
            "[scaling] gp iteration {t}t: {ms_per_iter:.2} ms/iter over {} iters",
            r.iterations
        );
        gp_rows.push((t, ms_per_iter));
    }
    let mut gp_json = JsonObject::new();
    gp_json
        .field_u64("movable_cells", gp_movable as u64)
        .field_u64("iterations", gp_iters as u64);
    for &(t, ms) in &gp_rows {
        gp_json.field_f64(&format!("iter_{t}t"), round3(ms));
    }
    speedup_field(&mut gp_json, "thread_speedup", &gp_rows);

    // ---- assemble the artifact ----
    let mut root = JsonObject::new();
    root.field_str("bench", "scaling_matrix")
        .field_str(
            "description",
            "Wall-clock medians for the three placement hot paths at 1/2/4/8 worker \
             threads. density_transform_ms: one spectral density step = the four 2-D \
             sweeps of a Poisson solve on the fused transpose-free Spectral2d path, \
             with the unfused transpose-based path as the serial reference. \
             engine_eval_ms: whole-netlist Moreau wirelength value+gradient on the \
             persistent EvalEngine. gp_iteration_ms: per-iteration wall clock of a \
             fixed-iteration global placement run (wirelength + density + optimizer).",
        )
        .field_str(
            "determinism_note",
            "All configurations produce bit-identical grids and gradients at every \
             thread count (crates/density/tests/spectral_plans.rs, \
             crates/wirelength src tests); the matrix measures wall clock only.",
        )
        .field_u64("available_parallelism", avail as u64)
        .field_opt_str(
            "mep_threads_env",
            std::env::var("MEP_THREADS").ok().as_deref(),
        )
        .field_u64_array("threads_tested", &[1, 2, 4, 8])
        .field_bool("fast_mode", fast)
        .field_str("timer", &format!("median of {reps} runs after one warmup"));
    root.field_raw("density_transform_ms", &density_json.finish());
    root.field_raw("engine_eval_ms", &engine_json.finish());
    root.field_raw("gp_iteration_ms", &gp_json.finish());
    let mut guard_json = JsonObject::new();
    guard_json
        .field_f64("density_512_serial_fused_ms", round3(fused_512_serial))
        .field_f64("tolerance", 0.10);
    root.field_raw("guard_baseline", &guard_json.finish());

    let text = root.finish();
    match std::fs::write(&out_path, format!("{text}\n")) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}

/// CI perf-regression guard: re-measure the serial fused 512×512 density
/// step and fail if it regressed more than the tolerance vs the committed
/// baseline. Tolerance can be widened for noisy runners via
/// `MEP_PERF_GUARD_TOLERANCE` (fraction, e.g. `0.25`).
fn run_guard(args: &[String]) {
    let baseline_path = args
        .iter()
        .position(|a| a == "--guard")
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[guard] cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    // minimal field scrape (no JSON dependency): the artifact is generated
    // by this same binary, so the field layout is known
    let baseline_ms = scrape_f64(&text, "density_512_serial_fused_ms");
    let tolerance = std::env::var("MEP_PERF_GUARD_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .or_else(|| scrape_f64(&text, "tolerance"))
        .unwrap_or(0.10);
    let Some(baseline_ms) = baseline_ms else {
        eprintln!("[guard] baseline {baseline_path} has no density_512_serial_fused_ms");
        std::process::exit(1);
    };
    let n = 512usize;
    let rho = test_grid(n * n, 17 + n as u64);
    let mut engine = Spectral2d::new(n, n);
    let ms = density_step_ms(n, 7, &mut engine, &rho);
    let ratio = ms / baseline_ms;
    println!(
        "[guard] serial fused 512x512 density step: {ms:.2} ms vs baseline \
         {baseline_ms:.2} ms (ratio {ratio:.3}, tolerance +{:.0}%)",
        tolerance * 100.0
    );
    if ratio > 1.0 + tolerance {
        eprintln!("[guard] FAIL: serial 512x512 density step regressed beyond tolerance");
        std::process::exit(1);
    }
    println!("[guard] OK");
}

/// Extracts `"name": <number>` from a flat JSON text.
fn scrape_f64(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
