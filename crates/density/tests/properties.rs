//! Property-based tests for the density substrate: transform algebra,
//! rasterization conservation, and Poisson-solver physics on randomized
//! inputs.

use mep_density::fft::{dft_naive, fft_in_place, FftPlan};
use mep_density::grid::BinGrid;
use mep_density::poisson::PoissonSolver;
use mep_density::transform::{self, naive, DctPlan, Kind, TransformScratch};
use mep_netlist::Rect;
use proptest::prelude::*;

fn pow2_len() -> impl Strategy<Value = usize> {
    (1u32..8).prop_map(|k| 1usize << k)
}

/// Planned-path coverage spans every grid size the placer can pick
/// (`BinGrid::auto` caps at 1024).
fn pow2_len_wide() -> impl Strategy<Value = usize> {
    (1u32..11).prop_map(|k| 1usize << k)
}

proptest! {
    /// FFT matches the naive DFT on random signals of random power-of-two
    /// lengths.
    #[test]
    fn fft_matches_naive(n in pow2_len(), seed in 0u64..1000) {
        let re0: Vec<f64> = (0..n).map(|i| ((seed as f64 + i as f64) * 0.77).sin()).collect();
        let im0: Vec<f64> = (0..n).map(|i| ((seed as f64 - i as f64) * 0.39).cos()).collect();
        let (wr, wi) = dft_naive(&re0, &im0, false);
        let mut re = re0;
        let mut im = im0;
        fft_in_place(&mut re, &mut im, false);
        for i in 0..n {
            prop_assert!((re[i] - wr[i]).abs() < 1e-8);
            prop_assert!((im[i] - wi[i]).abs() < 1e-8);
        }
    }

    /// DCT-II/III and DST-III match their naive references.
    #[test]
    fn transforms_match_naive(n in pow2_len(), seed in 0u64..1000) {
        let x: Vec<f64> = (0..n).map(|i| ((seed as f64 * 1.3 + i as f64) * 0.53).sin()).collect();
        let mut scratch = TransformScratch::new();
        let mut got = vec![0.0; n];
        transform::dct2(&x, &mut got, &mut scratch);
        for (g, w) in got.iter().zip(naive::dct2(&x)) {
            prop_assert!((g - w).abs() < 1e-8);
        }
        transform::dct3(&x, &mut got, &mut scratch);
        for (g, w) in got.iter().zip(naive::dct3(&x)) {
            prop_assert!((g - w).abs() < 1e-8);
        }
        transform::dst3(&x, &mut got, &mut scratch);
        for (g, w) in got.iter().zip(naive::dst3(&x)) {
            prop_assert!((g - w).abs() < 1e-8);
        }
    }

    /// The planned FFT matches the naive DFT in both directions across
    /// sizes 2..=1024.
    #[test]
    fn planned_fft_matches_naive(n in pow2_len_wide(), seed in 0u64..500, dir in 0u32..2) {
        let inverse = dir == 1;
        let re0: Vec<f64> = (0..n).map(|i| ((seed as f64 + i as f64) * 0.83).sin()).collect();
        let im0: Vec<f64> = (0..n).map(|i| ((seed as f64 - i as f64) * 0.29).cos()).collect();
        let (wr, wi) = dft_naive(&re0, &im0, inverse);
        let plan = FftPlan::new(n);
        let mut re = re0;
        let mut im = im0;
        plan.process(&mut re, &mut im, inverse);
        // the naive reference itself drifts with n; scale the tolerance
        let tol = 1e-9 * n as f64;
        for i in 0..n {
            prop_assert!((re[i] - wr[i]).abs() < tol, "re[{i}]");
            prop_assert!((im[i] - wi[i]).abs() < tol, "im[{i}]");
        }
    }

    /// The planned real-FFT DCT/DST paths match the naive references
    /// across sizes 2..=1024.
    #[test]
    fn planned_dct_matches_naive(n in pow2_len_wide(), seed in 0u64..500) {
        let x: Vec<f64> = (0..n).map(|i| ((seed as f64 * 1.7 + i as f64) * 0.47).sin()).collect();
        let plan = DctPlan::new(n);
        let mut scratch = TransformScratch::new();
        let tol = 1e-9 * n as f64;
        for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
            let want = match kind {
                Kind::Dct2 => naive::dct2(&x),
                Kind::Dct3 => naive::dct3(&x),
                Kind::Dst3 => naive::dst3(&x),
            };
            let mut got = x.clone();
            plan.apply(kind, &mut got, &mut scratch);
            for i in 0..n {
                prop_assert!((got[i] - want[i]).abs() < tol, "{kind:?}[{i}]");
            }
        }
    }

    /// The planned path agrees with the unplanned free functions exactly
    /// enough for the solver (and the plan itself is reusable).
    #[test]
    fn planned_matches_unplanned(n in pow2_len(), seed in 0u64..500) {
        let x: Vec<f64> = (0..n).map(|i| ((seed as f64 + i as f64) * 0.71).cos()).collect();
        let plan = DctPlan::new(n);
        let mut scratch = TransformScratch::new();
        let mut legacy = vec![0.0; n];
        transform::dct2(&x, &mut legacy, &mut scratch);
        let mut planned = x.clone();
        plan.dct2(&mut planned, &mut scratch);
        for i in 0..n {
            prop_assert!((planned[i] - legacy[i]).abs() < 1e-9 * n as f64);
        }
    }

    /// Rasterization conserves the splatted mass for arbitrary in-die
    /// rectangles and scales.
    #[test]
    fn splat_conserves_mass(
        xl in 0.0f64..8.0, yl in 0.0f64..8.0,
        w in 0.01f64..4.0, h in 0.01f64..4.0,
        scale in 0.1f64..3.0,
    ) {
        let die = Rect::new(0.0, 0.0, 12.0, 12.0);
        let grid = BinGrid::new(die, 16, 16);
        let rect = Rect::from_origin_size(xl, yl, w, h);
        let mut out = vec![0.0; grid.len()];
        grid.splat(&rect, scale, &mut out);
        let total: f64 = out.iter().sum();
        prop_assert!((total - scale * rect.area()).abs() < 1e-9 * (1.0 + rect.area()));
    }

    /// Poisson solve is linear: solve(aρ1 + bρ2) = a·solve(ρ1) + b·solve(ρ2).
    #[test]
    fn poisson_is_linear(seed in 0u64..200, a in -2.0f64..2.0, b in -2.0f64..2.0) {
        let n = 16;
        let mk = |s: u64| -> Vec<f64> {
            (0..n * n).map(|i| ((s as f64 + i as f64) * 0.61).sin()).collect()
        };
        let r1 = mk(seed);
        let r2 = mk(seed + 7);
        let combo: Vec<f64> = r1.iter().zip(&r2).map(|(x, y)| a * x + b * y).collect();
        let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let buf = || (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        let (mut p1, mut e1x, mut e1y) = buf();
        let (mut p2, mut e2x, mut e2y) = buf();
        let (mut pc, mut ecx, mut ecy) = buf();
        solver.solve(&r1, &mut p1, &mut e1x, &mut e1y);
        solver.solve(&r2, &mut p2, &mut e2x, &mut e2y);
        solver.solve(&combo, &mut pc, &mut ecx, &mut ecy);
        for i in 0..n * n {
            prop_assert!((pc[i] - (a * p1[i] + b * p2[i])).abs() < 1e-8);
            prop_assert!((ecx[i] - (a * e1x[i] + b * e2x[i])).abs() < 1e-8);
            prop_assert!((ecy[i] - (a * e1y[i] + b * e2y[i])).abs() < 1e-8);
        }
    }

    /// The solver ignores the DC component: adding a constant to ρ changes
    /// nothing.
    #[test]
    fn poisson_ignores_dc(seed in 0u64..200, dc in -3.0f64..3.0) {
        let n = 16;
        let rho: Vec<f64> = (0..n * n).map(|i| ((seed as f64 + i as f64) * 0.43).cos()).collect();
        let shifted: Vec<f64> = rho.iter().map(|v| v + dc).collect();
        let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let (mut p1, mut ex1, mut ey1) = (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        let (mut p2, mut ex2, mut ey2) = (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        solver.solve(&rho, &mut p1, &mut ex1, &mut ey1);
        solver.solve(&shifted, &mut p2, &mut ex2, &mut ey2);
        for i in 0..n * n {
            prop_assert!((p1[i] - p2[i]).abs() < 1e-8);
            prop_assert!((ex1[i] - ex2[i]).abs() < 1e-8);
        }
    }

    /// Electrostatic energy is non-negative (ρ with zero mean ⇒ ½Σρψ ≥ 0,
    /// since the operator is positive semidefinite).
    #[test]
    fn energy_nonnegative(seed in 0u64..500) {
        let n = 16;
        let mut rho: Vec<f64> = (0..n * n).map(|i| ((seed as f64 * 2.1 + i as f64) * 0.37).sin()).collect();
        let mean = rho.iter().sum::<f64>() / rho.len() as f64;
        for v in rho.iter_mut() { *v -= mean; }
        let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let (mut p, mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        solver.solve(&rho, &mut p, &mut ex, &mut ey);
        let energy: f64 = rho.iter().zip(&p).map(|(r, q)| r * q).sum::<f64>();
        prop_assert!(energy >= -1e-9);
    }
}
