//! The Moreau-envelope wirelength model — the paper's contribution.
//!
//! For one net with coordinates `x ∈ R^n` and HPWL span
//! `W_e(x) = max_i x_i − min_i x_i`, the Moreau envelope is
//!
//! ```text
//! W_e^t(x) = min_u W_e(u) + ‖u − x‖² / (2t)
//! ```
//!
//! Theorem 1 gives the minimizer in closed form up to two water levels
//! `τ1, τ2` (clamping), solved by [`crate::waterfill`]; Corollary 1 gives
//! the gradient `∇W_e^t = (x − prox_{tW_e}(x)) / t` (the envelope theorem).
//! The reported model value is `W_e^t + t`, as in the paper, which centres
//! the approximation error band of Theorem 2.

use crate::model::NetModel;
use crate::waterfill::TauPair;

/// Result of one envelope evaluation, exposing the intermediate quantities
/// (levels, prox) that tests and the Fig. 2 harness need
/// ([C-INTERMEDIATE]).
///
/// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeEval {
    /// The envelope value `W_e^t(x)` (without the `+t` offset).
    pub envelope: f64,
    /// Lower water level `τ1` (or the mean in the collapsed case).
    pub tau1: f64,
    /// Upper water level `τ2` (or the mean in the collapsed case).
    pub tau2: f64,
    /// Whether `τ1 > τ2` collapsed the prox to the mean coordinate.
    pub collapsed: bool,
}

/// Computes `prox_{tW_e}(x)` per Theorem 1 into `out`.
///
/// `x` need not be sorted. `O(n log n)` from the internal sort. Allocates
/// a per-call scratch copy; the hot loop uses [`prox_in`].
///
/// # Panics
///
/// Panics if `x` is empty, `out.len() != x.len()`, or `t ≤ 0`.
pub fn prox(x: &[f64], t: f64, out: &mut [f64]) -> EnvelopeEval {
    // lint:allow(no-alloc-hot): convenience wrapper; hot callers use the _in variant with engine workspace scratch
    prox_in(x, t, out, &mut Vec::new())
}

/// [`prox`] with a caller-provided scratch vector (e.g. an engine
/// workspace slot): zero allocations once `scratch` has grown to the
/// largest net degree.
///
/// # Panics
///
/// Panics if `x` is empty, `out.len() != x.len()`, or `t ≤ 0`.
pub fn prox_in(x: &[f64], t: f64, out: &mut [f64], scratch: &mut Vec<f64>) -> EnvelopeEval {
    assert_eq!(x.len(), out.len(), "output length must match input");
    scratch.clear();
    scratch.extend_from_slice(x);
    eval_sorted_scratch(scratch, x, t, None, Some(out))
}

/// Computes the envelope value and its gradient (Algorithm 1 + Corollary 1).
///
/// `grad` receives `∇W_e^t(x)`; the return value carries the envelope and
/// the water levels. `x` need not be sorted. Allocates a per-call scratch
/// copy; the hot loop uses [`eval_with_gradient_in`].
///
/// # Panics
///
/// Panics if `x` is empty, `grad.len() != x.len()`, or `t ≤ 0`.
pub fn eval_with_gradient(x: &[f64], t: f64, grad: &mut [f64]) -> EnvelopeEval {
    // lint:allow(no-alloc-hot): convenience wrapper; hot callers use the _in variant with engine workspace scratch
    eval_with_gradient_in(x, t, grad, &mut Vec::new())
}

/// [`eval_with_gradient`] with a caller-provided scratch vector: zero
/// allocations once `scratch` has grown to the largest net degree.
///
/// # Panics
///
/// Panics if `x` is empty, `grad.len() != x.len()`, or `t ≤ 0`.
pub fn eval_with_gradient_in(
    x: &[f64],
    t: f64,
    grad: &mut [f64],
    scratch: &mut Vec<f64>,
) -> EnvelopeEval {
    assert_eq!(x.len(), grad.len(), "gradient length must match input");
    scratch.clear();
    scratch.extend_from_slice(x);
    eval_sorted_scratch(scratch, x, t, Some(grad), None)
}

/// Envelope value only. Allocates a per-call scratch copy; the hot loop
/// uses [`envelope_in`].
///
/// # Panics
///
/// Panics if `x` is empty or `t ≤ 0`.
pub fn envelope(x: &[f64], t: f64) -> f64 {
    // lint:allow(no-alloc-hot): convenience wrapper; hot callers use the _in variant with engine workspace scratch
    envelope_in(x, t, &mut Vec::new())
}

/// [`envelope`] with a caller-provided scratch vector: zero allocations
/// once `scratch` has grown to the largest net degree.
///
/// # Panics
///
/// Panics if `x` is empty or `t ≤ 0`.
pub fn envelope_in(x: &[f64], t: f64, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend_from_slice(x);
    eval_sorted_scratch(scratch, x, t, None, None).envelope
}

/// Optimal sorting networks for `n ≤ 8` elements as compare-exchange
/// pairs `(i, j)`, `i < j`, applied in order: entry `n` sorts `n`
/// elements. One table drives both the scalar [`sort_small`] and the
/// lane-batched sort of `moreau_lanes.rs`, so the two run the very same
/// comparator sequence (and so the same `min`/`max` operations).
#[rustfmt::skip]
pub(crate) const SORT_NETWORKS: [&[(usize, usize)]; 9] = [
    &[],
    &[],
    &[(0, 1)],
    &[(0, 1), (0, 2), (1, 2)],
    &[(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)],
    &[(0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2)],
    &[
        (1, 2), (4, 5), (0, 2), (3, 5), (0, 1), (3, 4),
        (2, 5), (0, 3), (1, 4), (2, 4), (1, 3), (2, 3),
    ],
    &[
        (1, 2), (3, 4), (5, 6), (0, 2), (3, 5), (4, 6), (0, 1), (4, 5),
        (2, 6), (0, 4), (1, 5), (0, 3), (2, 5), (1, 3), (2, 4), (2, 3),
    ],
    &[
        (0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7), (1, 2), (5, 6),
        (0, 4), (3, 7), (1, 5), (2, 6), (1, 4), (3, 6), (2, 4), (3, 5), (3, 4),
    ],
];

/// Branchless ascending sort of `v.len() ≤ 8` elements by the optimal
/// sorting networks of [`SORT_NETWORKS`]: every compare-exchange lowers to
/// `minsd`/`maxsd`, no data-dependent branches, no comparator closure.
/// Nets of ≤ 8 pins are the vast majority of every benchmark, so this
/// removes the `sort_unstable_by` dispatch from the model's hot path.
fn sort_small(v: &mut [f64]) {
    match v.len() {
        0 | 1 => {}
        2 => sort_fixed::<2>(v),
        3 => sort_fixed::<3>(v),
        4 => sort_fixed::<4>(v),
        5 => sort_fixed::<5>(v),
        6 => sort_fixed::<6>(v),
        7 => sort_fixed::<7>(v),
        8 => sort_fixed::<8>(v),
        // lint:allow(no-panic-lib): sort_small dispatch is exhaustive for n <= 8 by construction (debug_assert upstream)
        _ => unreachable!("sort_small is only called for n <= 8"),
    }
}

/// Applies network `N` of [`SORT_NETWORKS`] to `v` (`v.len() == N`).
#[inline(always)]
fn sort_fixed<const N: usize>(v: &mut [f64]) {
    for &(i, j) in SORT_NETWORKS[N] {
        let (a, b) = (v[i], v[j]);
        v[i] = a.min(b);
        v[j] = a.max(b);
    }
}

/// Shared core: sorts `scratch`, solves the water levels, then fills the
/// requested outputs from the *original* coordinates.
fn eval_sorted_scratch(
    scratch: &mut [f64],
    x: &[f64],
    t: f64,
    grad: Option<&mut [f64]>,
    prox_out: Option<&mut [f64]>,
) -> EnvelopeEval {
    assert!(!x.is_empty(), "net must have at least one pin");
    assert!(t > 0.0, "smoothing parameter must be positive, got {t}");
    // NaN coordinates are tolerated rather than asserted away: a poisoned
    // iterate must propagate NaN through value/gradient (the placer's
    // health guard detects and rolls it back) instead of panicking here.
    if scratch.len() <= 8 {
        sort_small(scratch);
    } else {
        scratch.sort_unstable_by(f64::total_cmp);
    }
    let pair = TauPair::solve(scratch, t);
    let n = x.len() as f64;

    if pair.is_collapsed() {
        // Theorem 1, second case: prox is the mean in every component.
        let mean = x.iter().sum::<f64>() / n;
        let mut sq = 0.0;
        for &xi in x {
            let r = xi - mean;
            sq += r * r;
        }
        if let Some(g) = grad {
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi = (xi - mean) / t;
            }
        }
        if let Some(p) = prox_out {
            p.fill(mean);
        }
        return EnvelopeEval {
            envelope: sq / (2.0 * t),
            tau1: mean,
            tau2: mean,
            collapsed: true,
        };
    }

    let (tau1, tau2) = (pair.tau1, pair.tau2);
    // One fused, branch-light pass over the coordinates. The clamp
    // residual `r = max(x−τ2, 0) + min(x−τ1, 0)` is bit-identical to the
    // three-way branch of [`reference::eval`] on every input: exactly one
    // term is nonzero outside the band (adding ±0 preserves the bits),
    // both are +0 inside it, and for NaN coordinates `f64::max`/`min`
    // return the non-NaN operand — matching the branch chain whose
    // comparisons are all false. Everything lowers to `maxsd`/`minsd`
    // straight-line code, and value/gradient/prox share one traversal.
    let mut sq = 0.0;
    match (grad, prox_out) {
        (None, None) => {
            for &xi in x {
                let r = (xi - tau2).max(0.0) + (xi - tau1).min(0.0);
                sq += r * r;
            }
        }
        (Some(g), None) => {
            for (gi, &xi) in g.iter_mut().zip(x) {
                let r = (xi - tau2).max(0.0) + (xi - tau1).min(0.0);
                sq += r * r;
                *gi = r / t;
            }
        }
        (None, Some(p)) => {
            for (pi, &xi) in p.iter_mut().zip(x) {
                let r = (xi - tau2).max(0.0) + (xi - tau1).min(0.0);
                sq += r * r;
                *pi = xi.clamp(tau1, tau2);
            }
        }
        (Some(g), Some(p)) => {
            for ((gi, pi), &xi) in g.iter_mut().zip(p.iter_mut()).zip(x) {
                let r = (xi - tau2).max(0.0) + (xi - tau1).min(0.0);
                sq += r * r;
                *gi = r / t;
                *pi = xi.clamp(tau1, tau2);
            }
        }
    }
    EnvelopeEval {
        envelope: (tau2 - tau1) + sq / (2.0 * t),
        tau1,
        tau2,
        collapsed: false,
    }
}

/// Plainly-written scalar reference for the envelope evaluation: the
/// three-way branch form of Theorem 1 / Corollary 1, with separate loops
/// for value, gradient, and prox. The production kernel
/// ([`eval_with_gradient_in`] and friends) is a fused, branch-light
/// restructuring that must stay **bit-identical** to this module on every
/// input — property tests compare the two with `to_bits`.
pub mod reference {
    use super::{sort_small, EnvelopeEval};
    use crate::waterfill::TauPair;

    /// Branchy scalar evaluation of value + optional gradient + optional
    /// prox. Same contract as the production `eval_sorted_scratch` core.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, an output length mismatches, or `t ≤ 0`.
    pub fn eval(
        x: &[f64],
        t: f64,
        grad: Option<&mut [f64]>,
        prox_out: Option<&mut [f64]>,
        scratch: &mut Vec<f64>,
    ) -> EnvelopeEval {
        assert!(!x.is_empty(), "net must have at least one pin");
        assert!(t > 0.0, "smoothing parameter must be positive, got {t}");
        scratch.clear();
        scratch.extend_from_slice(x);
        if scratch.len() <= 8 {
            sort_small(scratch);
        } else {
            scratch.sort_unstable_by(f64::total_cmp);
        }
        let pair = TauPair::solve(scratch, t);
        let n = x.len() as f64;

        if pair.is_collapsed() {
            let mean = x.iter().sum::<f64>() / n;
            let mut sq = 0.0;
            for &xi in x {
                let r = xi - mean;
                sq += r * r;
            }
            if let Some(g) = grad {
                for (gi, &xi) in g.iter_mut().zip(x) {
                    *gi = (xi - mean) / t;
                }
            }
            if let Some(p) = prox_out {
                p.fill(mean);
            }
            return EnvelopeEval {
                envelope: sq / (2.0 * t),
                tau1: mean,
                tau2: mean,
                collapsed: true,
            };
        }

        let (tau1, tau2) = (pair.tau1, pair.tau2);
        let mut sq = 0.0;
        for &xi in x {
            let r = if xi > tau2 {
                xi - tau2
            } else if xi < tau1 {
                xi - tau1
            } else {
                0.0
            };
            sq += r * r;
        }
        if let Some(g) = grad {
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi = if xi > tau2 {
                    (xi - tau2) / t
                } else if xi < tau1 {
                    (xi - tau1) / t
                } else {
                    0.0
                };
            }
        }
        if let Some(p) = prox_out {
            for (pi, &xi) in p.iter_mut().zip(x) {
                *pi = xi.clamp(tau1, tau2);
            }
        }
        EnvelopeEval {
            envelope: (tau2 - tau1) + sq / (2.0 * t),
            tau1,
            tau2,
            collapsed: false,
        }
    }
}

/// The Moreau-envelope model as a reusable [`NetModel`]
/// (reported value is `W_e^t + t`, the paper's convention).
#[derive(Debug, Clone)]
pub struct Moreau {
    t: f64,
    scratch: Vec<f64>,
}

impl Moreau {
    /// Creates the model with smoothing parameter `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t ≤ 0`.
    pub fn new(t: f64) -> Self {
        assert!(t > 0.0, "smoothing parameter must be positive, got {t}");
        Self {
            t,
            // lint:allow(no-alloc-hot): one empty Vec per evaluator; grows to max net degree once, then reused
            scratch: Vec::new(),
        }
    }

    /// Full evaluation exposing levels and collapse status.
    pub fn eval_detailed(&mut self, x: &[f64], grad: &mut [f64]) -> EnvelopeEval {
        eval_with_gradient_in(x, self.t, grad, &mut self.scratch)
    }
}

impl NetModel for Moreau {
    fn name(&self) -> &'static str {
        "Moreau"
    }

    fn smoothing(&self) -> f64 {
        self.t
    }

    fn set_smoothing(&mut self, s: f64) {
        assert!(s > 0.0, "smoothing parameter must be positive, got {s}");
        self.t = s;
    }

    fn eval_axis(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.eval_detailed(x, grad).envelope + self.t
    }

    fn value_axis(&mut self, x: &[f64]) -> f64 {
        envelope_in(x, self.t, &mut self.scratch) + self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(x: &[f64]) -> f64 {
        let mx = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mn = x.iter().cloned().fold(f64::INFINITY, f64::min);
        mx - mn
    }

    /// Brute-force envelope by dense 1-D search over u is infeasible; instead
    /// verify the prox by first-order optimality: for the convex objective
    /// H(u) = (max u − min u) + ‖u−x‖²/(2t), any feasible direction from u*
    /// must not decrease H (checked along coordinate and random directions).
    fn check_prox_optimality(x: &[f64], t: f64) {
        let mut u = vec![0.0; x.len()];
        prox(x, t, &mut u);
        let h = |v: &[f64]| -> f64 {
            let mut s = 0.0;
            for (vi, xi) in v.iter().zip(x) {
                s += (vi - xi) * (vi - xi);
            }
            span(v) + s / (2.0 * t)
        };
        let h0 = h(&u);
        let eps = 1e-4;
        // coordinate probes
        for i in 0..u.len() {
            for delta in [eps, -eps] {
                let mut v = u.clone();
                v[i] += delta;
                assert!(
                    h(&v) >= h0 - 1e-9,
                    "prox not optimal: x={x:?} t={t} i={i} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn prox_first_order_optimality() {
        check_prox_optimality(&[0.0, 1.0, 5.0, 9.0], 0.7);
        check_prox_optimality(&[2.0, 2.0, 2.0], 0.5);
        check_prox_optimality(&[-3.0, 4.0], 1.0);
        check_prox_optimality(&[0.0, 100.0, 100.0, 100.0, 3.0], 2.5);
        check_prox_optimality(&[1.0], 1.0);
    }

    #[test]
    fn gradient_matches_envelope_theorem() {
        let x = [0.0, 2.0, 7.0, 11.0];
        let t = 0.9;
        let mut g = vec![0.0; 4];
        let mut u = vec![0.0; 4];
        eval_with_gradient(&x, t, &mut g);
        prox(&x, t, &mut u);
        for i in 0..4 {
            assert!((g[i] - (x[i] - u[i]) / t).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_finite_difference() {
        let x = [0.3, -1.2, 4.5, 2.0, 4.5];
        let t = 0.8;
        let mut g = vec![0.0; x.len()];
        eval_with_gradient(&x, t, &mut g);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd = (envelope(&xp, t) - envelope(&xm, t)) / (2.0 * h);
            assert!(
                (fd - g[i]).abs() < 1e-5,
                "coordinate {i}: fd {fd} vs analytic {}",
                g[i]
            );
        }
    }

    #[test]
    fn envelope_bounds_of_theorem_2() {
        // −t/2 (1/n_max + 1/n_min) ≤ W^t − W ≤ 0
        let cases: &[&[f64]] = &[
            &[0.0, 5.0, 10.0],
            &[0.0, 0.0, 10.0, 10.0],
            &[1.0, 4.0, 4.0, 9.0, 9.0, 9.0],
            &[-5.0, 3.0],
        ];
        for &x in cases {
            let w = span(x);
            let mx = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mn = x.iter().cloned().fold(f64::INFINITY, f64::min);
            let nmax = x.iter().filter(|&&v| v == mx).count() as f64;
            let nmin = x.iter().filter(|&&v| v == mn).count() as f64;
            for &t in &[0.01, 0.1, 1.0] {
                let e = envelope(x, t);
                let lower = -t / 2.0 * (1.0 / nmax + 1.0 / nmin);
                assert!(e - w <= 1e-12, "upper bound broken: {x:?} t={t}");
                assert!(e - w >= lower - 1e-12, "lower bound broken: {x:?} t={t}");
            }
        }
    }

    #[test]
    fn envelope_converges_to_hpwl_as_t_vanishes() {
        let x = [0.0, 3.0, 8.0, 20.0];
        let w = span(&x);
        let mut prev_err = f64::INFINITY;
        for &t in &[4.0, 1.0, 0.25, 0.0625] {
            let err = (envelope(&x, t) - w).abs();
            assert!(err <= prev_err + 1e-12);
            prev_err = err;
        }
        assert!(prev_err < 0.07);
    }

    #[test]
    fn gradient_components_sum_to_zero() {
        // Corollary 3
        let x = [0.0, 1.5, 6.0, 6.0, -2.0];
        for &t in &[0.1, 1.0, 100.0] {
            let mut g = vec![0.0; x.len()];
            eval_with_gradient(&x, t, &mut g);
            assert!(g.iter().sum::<f64>().abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn gradient_upper_side_sums_to_one() {
        // Theorem 6: Σ_{x_i > τ2} g_i = 1 and Σ_{x_i < τ1} g_i = −1
        let x = [0.0, 2.0, 5.0, 9.0, 10.0];
        let t = 1.3;
        let mut g = vec![0.0; x.len()];
        let eval = eval_with_gradient(&x, t, &mut g);
        assert!(!eval.collapsed);
        let up: f64 = x
            .iter()
            .zip(&g)
            .filter(|(&xi, _)| xi > eval.tau2)
            .map(|(_, &gi)| gi)
            .sum();
        let dn: f64 = x
            .iter()
            .zip(&g)
            .filter(|(&xi, _)| xi < eval.tau1)
            .map(|(_, &gi)| gi)
            .sum();
        assert!((up - 1.0).abs() < 1e-9, "upper sum {up}");
        assert!((dn + 1.0).abs() < 1e-9, "lower sum {dn}");
    }

    #[test]
    fn small_t_gradient_matches_wa_limit_subgradient() {
        // Theorem 4: for small t the gradient equals Eq. (17)
        let x = [0.0, 0.0, 3.0, 7.0, 7.0, 7.0];
        let t = 1e-3;
        let mut g = vec![0.0; x.len()];
        eval_with_gradient(&x, t, &mut g);
        let expect = [-0.5, -0.5, 0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];
        for (gi, ei) in g.iter().zip(&expect) {
            assert!((gi - ei).abs() < 1e-9, "{g:?}");
        }
    }

    #[test]
    fn collapsed_case_uses_mean() {
        let x = [1.0, 2.0, 3.0];
        let t = 100.0; // enormous smoothing ⇒ collapse
        let mut g = vec![0.0; 3];
        let eval = eval_with_gradient(&x, t, &mut g);
        assert!(eval.collapsed);
        for (gi, &xi) in g.iter().zip(&x) {
            assert!((gi - (xi - 2.0) / t).abs() < 1e-12);
        }
        assert!((eval.envelope - (1.0 + 0.0 + 1.0) / (2.0 * t)).abs() < 1e-12);
    }

    #[test]
    fn single_pin_net_has_zero_gradient() {
        let x = [5.0];
        let mut g = [123.0];
        let eval = eval_with_gradient(&x, 1.0, &mut g);
        assert_eq!(g[0], 0.0);
        assert_eq!(eval.envelope, 0.0);
    }

    #[test]
    fn model_reports_envelope_plus_t() {
        let mut m = Moreau::new(0.5);
        let x = [0.0, 10.0];
        let mut g = [0.0; 2];
        let v = m.eval_axis(&x, &mut g);
        assert!((v - (envelope(&x, 0.5) + 0.5)).abs() < 1e-12);
        assert_eq!(m.value_axis(&x), v);
    }

    #[test]
    fn convexity_along_random_segments() {
        // Moreau envelopes of convex functions are convex (§II-D.2)
        let a = [0.0, 4.0, 9.0, 2.0];
        let b = [3.0, -1.0, 5.0, 8.0];
        let t = 0.7;
        let f = |lam: f64| {
            let v: Vec<f64> = a
                .iter()
                .zip(&b)
                .map(|(&ai, &bi)| (1.0 - lam) * ai + lam * bi)
                .collect();
            envelope(&v, t)
        };
        for k in 1..10 {
            let lam = k as f64 / 10.0;
            assert!(
                f(lam) <= (1.0 - lam) * f(0.0) + lam * f(1.0) + 1e-9,
                "convexity violated at λ={lam}"
            );
        }
    }

    #[test]
    fn translation_equivariance() {
        // envelope(x + c) == envelope(x); gradient unchanged
        let x = [0.0, 2.0, 5.0];
        let shifted: Vec<f64> = x.iter().map(|v| v + 1234.5).collect();
        let t = 0.4;
        let mut g1 = vec![0.0; 3];
        let mut g2 = vec![0.0; 3];
        let e1 = eval_with_gradient(&x, t, &mut g1);
        let e2 = eval_with_gradient(&shifted, t, &mut g2);
        assert!((e1.envelope - e2.envelope).abs() < 1e-9);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "smoothing parameter must be positive")]
    fn zero_t_rejected() {
        let _ = Moreau::new(0.0);
    }

    #[test]
    fn sorting_networks_pass_zero_one_principle() {
        // a comparator network sorts all inputs iff it sorts every 0/1
        // sequence (Knuth's 0-1 principle); n ≤ 8 is exhaustible
        for n in 0..=8usize {
            for mask in 0..(1u32 << n) {
                let mut v: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                sort_small(&mut v);
                assert!(
                    v.windows(2).all(|w| w[0] <= w[1]),
                    "n={n} mask={mask:b}: {v:?}"
                );
            }
        }
    }

    #[test]
    fn sorting_networks_match_std_sort_on_random_data() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in 1..=8usize {
            for _ in 0..200 {
                let v: Vec<f64> = (0..n).map(|_| next()).collect();
                let mut want = v.clone();
                want.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
                let mut got = v;
                sort_small(&mut got);
                for i in 0..n {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        let x = [0.3, -1.2, 4.5, 2.0, 4.5, 9.1, -3.0, 0.0, 2.2];
        let t = 0.8;
        let mut scratch = Vec::new();

        assert_eq!(envelope(&x, t), envelope_in(&x, t, &mut scratch));

        let mut g1 = vec![0.0; x.len()];
        let mut g2 = vec![0.0; x.len()];
        let e1 = eval_with_gradient(&x, t, &mut g1);
        let e2 = eval_with_gradient_in(&x, t, &mut g2, &mut scratch);
        assert_eq!(e1, e2);
        assert_eq!(g1, g2);

        let mut p1 = vec![0.0; x.len()];
        let mut p2 = vec![0.0; x.len()];
        let e1 = prox(&x, t, &mut p1);
        let e2 = prox_in(&x, t, &mut p2, &mut scratch);
        assert_eq!(e1, e2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn fused_kernel_bitwise_matches_branchy_reference() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut scratch = Vec::new();
        let mut rscratch = Vec::new();
        for n in 1..=24usize {
            for rep in 0..40 {
                let mut x: Vec<f64> = (0..n).map(|_| next() * 20.0).collect();
                if rep % 5 == 0 && n >= 2 {
                    x[n / 2] = x[0]; // exercise duplicate coordinates
                }
                // spread t across collapse and non-collapse regimes
                for &t in &[1e-3, 0.7, 5.0, 500.0] {
                    let mut g = vec![0.0; n];
                    let mut p = vec![0.0; n];
                    let got =
                        eval_sorted_scratch_entry(&x, t, Some(&mut g), Some(&mut p), &mut scratch);
                    let mut rg = vec![0.0; n];
                    let mut rp = vec![0.0; n];
                    let want = reference::eval(&x, t, Some(&mut rg), Some(&mut rp), &mut rscratch);
                    assert_eq!(
                        got.envelope.to_bits(),
                        want.envelope.to_bits(),
                        "n={n} t={t}"
                    );
                    assert_eq!(got.tau1.to_bits(), want.tau1.to_bits());
                    assert_eq!(got.tau2.to_bits(), want.tau2.to_bits());
                    assert_eq!(got.collapsed, want.collapsed);
                    for i in 0..n {
                        assert_eq!(g[i].to_bits(), rg[i].to_bits(), "grad n={n} t={t} i={i}");
                        assert_eq!(p[i].to_bits(), rp[i].to_bits(), "prox n={n} t={t} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_matches_reference_on_nan_coordinates() {
        let x = [1.0, f64::NAN, 3.0, -2.0];
        let t = 0.5;
        let mut scratch = Vec::new();
        let mut g = vec![0.0; 4];
        let got = eval_sorted_scratch_entry(&x, t, Some(&mut g), None, &mut scratch);
        let mut rg = vec![0.0; 4];
        let want = reference::eval(&x, t, Some(&mut rg), None, &mut Vec::new());
        assert_eq!(got.envelope.to_bits(), want.envelope.to_bits());
        for i in 0..4 {
            assert_eq!(g[i].to_bits(), rg[i].to_bits(), "i={i}");
        }
    }

    /// Test-only shim: drive the production core with the same optional
    /// outputs the reference takes.
    fn eval_sorted_scratch_entry(
        x: &[f64],
        t: f64,
        grad: Option<&mut [f64]>,
        prox_out: Option<&mut [f64]>,
        scratch: &mut Vec<f64>,
    ) -> EnvelopeEval {
        scratch.clear();
        scratch.extend_from_slice(x);
        eval_sorted_scratch(scratch, x, t, grad, prox_out)
    }

    #[test]
    fn scratch_is_reused_without_reallocation() {
        let x = [5.0, 1.0, 3.0, 2.0, 4.0, 0.0, 6.0];
        let mut scratch = Vec::new();
        let _ = envelope_in(&x, 1.0, &mut scratch);
        let cap = scratch.capacity();
        assert!(cap >= x.len());
        for _ in 0..10 {
            let mut g = vec![0.0; x.len()];
            let _ = eval_with_gradient_in(&x, 1.0, &mut g, &mut scratch);
            assert_eq!(scratch.capacity(), cap, "scratch reallocated");
        }
    }
}
