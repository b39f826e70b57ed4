//! Determinism contract of the planned 2-D spectral transforms: grids are
//! bit-identical (`to_bits`) between the serial path and parallel row-batch
//! execution at 1, 2, and 8 threads.
//!
//! Uses a test-local scoped-thread executor (the density crate must not
//! depend on the wirelength crate's engine; any [`ParallelExec`] must give
//! identical results, which is exactly what this test pins down).

use mep_density::transform::{Kind, Spectral2d, PARALLEL_GRID_THRESHOLD};
use mep_density::{ParallelExec, PoissonSolver, SerialExec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A genuinely multi-threaded executor: `threads` scoped workers claim
/// parts dynamically from a shared counter, so part-to-thread assignment
/// varies run to run — which is the point: outputs must not depend on it.
/// It counts its dispatches, so a test can check it reached the parallel
/// path.
#[derive(Debug)]
struct ThreadsExec {
    threads: usize,
    runs: AtomicUsize,
}

impl ThreadsExec {
    fn new(threads: usize) -> Arc<Self> {
        Arc::new(Self {
            threads,
            runs: AtomicUsize::new(0),
        })
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }
}

impl ParallelExec for ThreadsExec {
    fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        self.runs.fetch_add(1, Ordering::Relaxed);
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

fn test_grid(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn transform_2d_bit_identical_across_thread_counts() {
    let (rows, cols) = (512usize, 512usize);
    assert!(rows * cols >= PARALLEL_GRID_THRESHOLD);
    let pairs = [
        (Kind::Dct2, Kind::Dct2),
        (Kind::Dct3, Kind::Dct3),
        (Kind::Dst3, Kind::Dct3),
        (Kind::Dct3, Kind::Dst3),
    ];
    for (i, &(kx, ky)) in pairs.iter().enumerate() {
        let x = test_grid(rows, cols, 11 + i as u64);
        let mut reference = Spectral2d::new(rows, cols);
        let mut want = x.clone();
        reference.execute(&mut want, kx, ky);

        for threads in [1usize, 2, 8] {
            let mut engine = Spectral2d::new(rows, cols);
            let exec = ThreadsExec::new(threads);
            engine.set_executor(exec.clone(), threads.max(2));
            let mut got = x.clone();
            engine.execute(&mut got, kx, ky);
            assert!(exec.runs() > 0, "parallel path not taken");
            for j in 0..want.len() {
                assert_eq!(
                    got[j].to_bits(),
                    want[j].to_bits(),
                    "pair {i} threads {threads} elem {j}: {} vs {}",
                    got[j],
                    want[j]
                );
            }
        }
    }
}

#[test]
fn transform_2d_bit_identical_on_rectangular_grids() {
    let (rows, cols) = (256usize, 1024usize);
    let x = test_grid(rows, cols, 99);
    let mut reference = Spectral2d::new(rows, cols);
    let mut want = x.clone();
    reference.execute(&mut want, Kind::Dct2, Kind::Dct2);
    for threads in [2usize, 8] {
        let mut engine = Spectral2d::new(rows, cols);
        let exec = ThreadsExec::new(threads);
        engine.set_executor(exec.clone(), threads);
        let mut got = x.clone();
        engine.execute(&mut got, Kind::Dct2, Kind::Dct2);
        assert!(exec.runs() > 0, "parallel path not taken");
        for j in 0..want.len() {
            assert_eq!(got[j].to_bits(), want[j].to_bits(), "threads {threads}");
        }
    }
}

/// Property test for the fused kernels: over random power-of-two grids
/// spanning 2..=1024 on a side, the fused transpose-free path is
/// bit-identical to the unfused transpose-based reference for every sweep
/// pair, at 1, 2, and 8 threads.
#[test]
fn fused_sweeps_bit_identical_to_unfused_across_sizes_and_threads() {
    // deterministic "random" size walk over the power-of-two lattice,
    // biased to cover both the scalar fallback (dims < 8) and big grids;
    // the thin 8-lane and rectangular shapes recur at and above
    // PARALLEL_GRID_THRESHOLD so the threaded sweeps see them too
    let shapes: &[(usize, usize)] = &[
        (2, 1024),
        (1024, 2),
        (4, 4),
        (8, 512),
        (512, 8),
        (16, 16),
        (64, 128),
        (256, 64),
        (1024, 32),
        (8, 32768),
        (32768, 8),
        (256, 1024),
    ];
    let pairs = [
        (Kind::Dct2, Kind::Dct2),
        (Kind::Dct3, Kind::Dct3),
        (Kind::Dst3, Kind::Dct3),
        (Kind::Dct3, Kind::Dst3),
    ];
    for (si, &(rows, cols)) in shapes.iter().enumerate() {
        for (i, &(kx, ky)) in pairs.iter().enumerate() {
            let x = test_grid(rows, cols, 1000 + (si * 4 + i) as u64);
            let mut reference = Spectral2d::new(rows, cols);
            let mut want = x.clone();
            reference.execute_unfused(&mut want, kx, ky);
            for threads in [1usize, 2, 8] {
                let mut engine = Spectral2d::new(rows, cols);
                let exec = ThreadsExec::new(threads);
                engine.set_executor(exec.clone(), threads.max(2));
                let mut got = x.clone();
                engine.execute(&mut got, kx, ky);
                if rows * cols >= PARALLEL_GRID_THRESHOLD {
                    assert!(exec.runs() > 0, "{rows}x{cols}: parallel path not taken");
                }
                for j in 0..want.len() {
                    assert_eq!(
                        got[j].to_bits(),
                        want[j].to_bits(),
                        "{rows}x{cols} pair {i} threads {threads} elem {j}: {} vs {}",
                        got[j],
                        want[j]
                    );
                }
            }
        }
    }
}

/// The unfused reference itself must stay thread-count invariant too.
#[test]
fn unfused_sweeps_bit_identical_across_thread_counts() {
    let (rows, cols) = (1024usize, 256usize);
    assert!(rows * cols >= PARALLEL_GRID_THRESHOLD);
    let x = test_grid(rows, cols, 55);
    let mut reference = Spectral2d::new(rows, cols);
    let mut want = x.clone();
    reference.execute_unfused(&mut want, Kind::Dct2, Kind::Dct2);
    for threads in [2usize, 8] {
        let mut engine = Spectral2d::new(rows, cols);
        let exec = ThreadsExec::new(threads);
        engine.set_executor(exec.clone(), threads);
        let mut got = x.clone();
        engine.execute_unfused(&mut got, Kind::Dct2, Kind::Dct2);
        assert!(exec.runs() > 0, "parallel path not taken");
        for j in 0..want.len() {
            assert_eq!(got[j].to_bits(), want[j].to_bits(), "threads {threads}");
        }
    }
}

#[test]
fn poisson_solve_bit_identical_across_thread_counts() {
    let n = 512usize;
    assert!(n * n >= PARALLEL_GRID_THRESHOLD);
    let rho = test_grid(n, n, 7);
    let solve = |exec: Option<(Arc<dyn ParallelExec>, usize)>| {
        let mut solver = PoissonSolver::new(n, n, 2.0, 2.0);
        if let Some((e, parts)) = exec {
            solver.set_executor(e, parts);
        }
        let mut psi = vec![0.0; n * n];
        let mut ex = vec![0.0; n * n];
        let mut ey = vec![0.0; n * n];
        solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        (psi, ex, ey)
    };
    let (psi0, ex0, ey0) = solve(None);
    let configs: Vec<(Arc<dyn ParallelExec>, usize)> = vec![
        (Arc::new(SerialExec), 4),
        (ThreadsExec::new(1), 4),
        (ThreadsExec::new(2), 4),
        (ThreadsExec::new(8), 8),
    ];
    for (k, cfg) in configs.into_iter().enumerate() {
        let (psi, ex, ey) = solve(Some(cfg));
        for i in 0..n * n {
            assert_eq!(psi[i].to_bits(), psi0[i].to_bits(), "cfg {k} psi[{i}]");
            assert_eq!(ex[i].to_bits(), ex0[i].to_bits(), "cfg {k} ex[{i}]");
            assert_eq!(ey[i].to_bits(), ey0[i].to_bits(), "cfg {k} ey[{i}]");
        }
    }
}
