//! Lane-batched Moreau kernel: the envelope and gradient of [`LANES`] nets
//! of one degree `2 ≤ D ≤ MAX_LANE_DEGREE` at once.
//!
//! Nets of degree 2–8 are the vast majority of every benchmark, and for
//! them the scalar kernel ([`crate::moreau::eval_with_gradient_in`]) is
//! dominated by degree-dependent control flow: the `sort_small` dispatch
//! and the data-dependent exits of the two water-fills. Here the degree is
//! a compile-time constant, so the loops over pins unroll, and the lanes
//! are independent nets, so the loop over them vectorizes without
//! branches.
//!
//! # Bit identity
//!
//! Each lane performs exactly the IEEE operations of the scalar path on its
//! own net, in the same order; only the control flow differs:
//!
//! * the sort is the same comparator network ([`crate::moreau`]'s
//!   `SORT_NETWORKS`), each compare-exchange a lane-wise `min`/`max`;
//! * a water-fill does not return at the first crossing: each lane keeps
//!   `hi`, the trial and `k` of its first crossing by select and walks on,
//!   then takes the one division `(trial − t)/k` (or the fallback's
//!   `(t − filled)/n`) and the same final add/subtract the scalar return
//!   expression uses;
//! * the collapsed (`τ1 > τ2`) and clamped residuals are both formed and
//!   the right one is selected per lane before it is squared, so `Σ r²`,
//!   the gradient `r / t` and the envelope use the scalar expressions.
//!
//! No operation mixes lanes, so a NaN coordinate in one lane leaves every
//! other lane's bits unchanged. The tests compare every lane with
//! [`crate::moreau::reference::eval`] by `to_bits`.

use crate::moreau::SORT_NETWORKS;

/// Nets evaluated together by one kernel call. The kernel is one loop
/// over the lanes whose body is the whole per-net computation; with
/// eight lanes that loop is not unrolled away, so the compiler's loop
/// vectorizer turns it into two passes of 4-wide vector code, selects
/// included.
pub(crate) const LANES: usize = 8;

/// Largest net degree the lane kernel takes; larger nets stay on the
/// scalar path (their sort and water-fill are no longer branch-bound).
pub(crate) const MAX_LANE_DEGREE: usize = 8;

/// One value per lane.
pub(crate) type Lanes = [f64; LANES];

/// Envelope `W_e^t` (without the model's `+t`) of each lane's net, where
/// `x[j][l]` is pin `j` of lane `l`. When `grad` is given it receives
/// `∇W_e^t` in the same layout.
///
/// Lane `l` is bit-identical to
/// [`eval_with_gradient_in`](crate::moreau::eval_with_gradient_in) on
/// `[x[0][l], …, x[D-1][l]]` (see the module docs). `D` must be in
/// `2..=MAX_LANE_DEGREE` and `t > 0`.
#[inline]
pub(crate) fn eval_lanes<const D: usize>(
    x: &[Lanes; D],
    t: f64,
    grad: Option<&mut [Lanes; D]>,
) -> Lanes {
    // sort each lane's pins: every compare-exchange of the network is a
    // lane-wise min/max of two whole rows
    let mut sorted = *x;
    for &(i, j) in SORT_NETWORKS[D] {
        let (a, b) = (sorted[i], sorted[j]);
        for l in 0..LANES {
            sorted[i][l] = a[l].min(b[l]);
            sorted[j][l] = a[l].max(b[l]);
        }
    }
    let mut envelope = [0.0; LANES];
    let mut r = [[0.0; LANES]; D];
    for l in 0..LANES {
        let tau1 = lower_level(&sorted, l, t);
        let tau2 = upper_level(&sorted, l, t);
        let collapsed = tau1 > tau2;
        // the collapsed case's mean, summed in pin order from -0.0 exactly
        // as `Iterator::sum` does
        let mut mean = -0.0;
        for xj in x {
            mean += xj[l];
        }
        mean /= D as f64;
        let mut sq = 0.0;
        for (xj, rj) in x.iter().zip(r.iter_mut()) {
            let clamped = (xj[l] - tau2).max(0.0) + (xj[l] - tau1).min(0.0);
            rj[l] = if collapsed { xj[l] - mean } else { clamped };
            sq += rj[l] * rj[l];
        }
        let curvature = sq / (2.0 * t);
        envelope[l] = if collapsed {
            curvature
        } else {
            (tau2 - tau1) + curvature
        };
    }
    if let Some(g) = grad {
        for (gj, rj) in g.iter_mut().zip(&r) {
            for (gjl, rjl) in gj.iter_mut().zip(rj) {
                *gjl = rjl / t;
            }
        }
    }
    envelope
}

/// Branch-free [`crate::waterfill::solve_lower`] on lane `l` of ascending
/// lanes `s`.
///
/// The walk does not stop at the first crossing: it keeps the crossing's
/// `hi`, trial and `k` (a lane that has not crossed yet still holds
/// `k_at = D`, an index no step has) and goes on, so the vectorized lanes
/// share one instruction stream. The return value is the scalar one:
/// `hi − (trial − t)/k`, or `s[D−1] + (t − filled)/D` if nothing crossed.
#[inline(always)]
fn lower_level<const D: usize>(s: &[Lanes; D], l: usize, t: f64) -> f64 {
    let n = D as f64;
    let (mut filled, mut at, mut trial_at, mut k_at) = (0.0, s[D - 1][l], 0.0, n);
    for k in 1..D {
        let kf = k as f64;
        let trial = filled + kf * (s[k][l] - s[k - 1][l]);
        let first = (trial > t) & (k_at == n);
        at = if first { s[k][l] } else { at };
        trial_at = if first { trial } else { trial_at };
        k_at = if first { kf } else { k_at };
        filled = trial;
    }
    let crossed = k_at != n;
    let q = if crossed { trial_at - t } else { t - filled } / k_at;
    if crossed {
        at - q
    } else {
        at + q
    }
}

/// Branch-free [`crate::waterfill::solve_upper`], the mirror image of
/// [`lower_level`]: `lo + (trial − t)/k`, or `s[0] − (t − filled)/D`.
#[inline(always)]
fn upper_level<const D: usize>(s: &[Lanes; D], l: usize, t: f64) -> f64 {
    let n = D as f64;
    let (mut filled, mut at, mut trial_at, mut k_at) = (0.0, s[0][l], 0.0, n);
    for k in 1..D {
        let kf = k as f64;
        let trial = filled + kf * (s[D - k][l] - s[D - k - 1][l]);
        let first = (trial > t) & (k_at == n);
        at = if first { s[D - k - 1][l] } else { at };
        trial_at = if first { trial } else { trial_at };
        k_at = if first { kf } else { k_at };
        filled = trial;
    }
    let crossed = k_at != n;
    let q = if crossed { trial_at - t } else { t - filled } / k_at;
    if crossed {
        at + q
    } else {
        at - q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moreau::reference;

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// Runs the lane kernel on `nets` (each of degree `D`, at most
    /// [`LANES`]; missing lanes repeat the first net, like the evaluator's
    /// padding) and checks every filled lane against the scalar reference
    /// bit for bit. Returns how many lanes collapsed.
    fn check<const D: usize>(nets: &[[f64; D]], t: f64) -> usize {
        assert!(!nets.is_empty() && nets.len() <= LANES);
        let mut x = [[0.0; LANES]; D];
        for l in 0..LANES {
            let net = nets.get(l).unwrap_or(&nets[0]);
            for j in 0..D {
                x[j][l] = net[j];
            }
        }
        let mut g = [[0.0; LANES]; D];
        let got = eval_lanes::<D>(&x, t, Some(&mut g));
        let value_only = eval_lanes::<D>(&x, t, None);
        let mut collapsed = 0;
        let mut scratch = Vec::new();
        for (l, net) in nets.iter().enumerate() {
            let mut rg = [0.0; D];
            let want = reference::eval(net, t, Some(&mut rg), None, &mut scratch);
            collapsed += usize::from(want.collapsed);
            assert_eq!(
                got[l].to_bits(),
                want.envelope.to_bits(),
                "D={D} t={t} lane {l}: {net:?}"
            );
            assert_eq!(value_only[l].to_bits(), want.envelope.to_bits());
            for j in 0..D {
                assert_eq!(
                    g[j][l].to_bits(),
                    rg[j].to_bits(),
                    "D={D} t={t} lane {l} pin {j}: {net:?}"
                );
            }
        }
        collapsed
    }

    /// Random nets of degree `D` (with ties, duplicates and signed zeros
    /// mixed in) over a sweep of `t` from no collapse to full collapse;
    /// every group size from one lane to [`LANES`] appears.
    fn sweep<const D: usize>(seed: u64) {
        let mut next = xorshift(seed);
        let mut collapsed = [0usize; 5];
        let ts = [1e-3, 0.3, 2.0, 8.0, 1e4];
        for rep in 0..300 {
            let lanes = 1 + rep % LANES;
            let mut nets = [[0.0; D]; LANES];
            for net in nets.iter_mut() {
                for v in net.iter_mut() {
                    *v = (next() * 40.0).round() / 4.0;
                }
                match rep % 6 {
                    0 => net[D - 1] = net[0],
                    1 => {
                        let first = net[0];
                        net.fill(first);
                    }
                    2 => {
                        net[0] = 0.0;
                        net[D - 1] = -0.0;
                    }
                    3 => net.iter_mut().for_each(|v| *v = -0.0),
                    _ => {}
                }
            }
            for (k, &t) in ts.iter().enumerate() {
                collapsed[k] += check::<D>(&nets[..lanes], t);
            }
        }
        assert!(collapsed[4] > 0, "D={D}: no lane collapsed at large t");
        assert!(collapsed[0] < collapsed[4], "D={D}: collapse not swept");
    }

    #[test]
    fn every_degree_matches_the_scalar_reference_bitwise() {
        sweep::<2>(0x9E3779B97F4A7C15);
        sweep::<3>(0x2545F4914F6CDD1D);
        sweep::<4>(0xD1B54A32D192ED03);
        sweep::<5>(0x8CB92BA72F3D8DD7);
        sweep::<6>(0xABCDEF0123456789);
        sweep::<7>(0x1234567890ABCDEF);
        sweep::<8>(0x0F1E2D3C4B5A6978);
    }

    #[test]
    fn tied_and_signed_zero_coordinates_match_the_reference() {
        check::<2>(&[[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]], 1.0);
        check::<3>(&[[0.0, -0.0, 0.0], [1.0, 1.0, 1.0], [-0.0, 2.0, -0.0]], 0.5);
        check::<4>(&[[3.0, 3.0, -3.0, -3.0], [0.0, 0.0, -0.0, -0.0]], 3.0);
        check::<8>(&[[-0.0; 8], [0.0; 8], [5.0; 8]], 0.25);
        for &t in &[1e-9, 1.0, 1e9] {
            check::<5>(
                &[[1.0, -1.0, 0.0, -0.0, 1.0], [0.0, 0.0, 0.0, 0.0, -0.0]],
                t,
            );
        }
    }

    #[test]
    fn a_nan_lane_leaves_the_other_lanes_untouched() {
        let mut next = xorshift(0x5DEECE66D);
        let mut clean = [[0.0; 6]; LANES];
        for net in clean.iter_mut() {
            for v in net.iter_mut() {
                *v = (next() * 20.0).round() / 2.0;
            }
        }
        clean[1] = [1.0, 1.0, 2.0, 2.0, 3.0, -0.0];
        for &t in &[0.2, 3.0, 100.0] {
            let mut x = [[0.0; LANES]; 6];
            for (l, net) in clean.iter().enumerate() {
                for j in 0..6 {
                    x[j][l] = net[j];
                }
            }
            let mut g_clean = [[0.0; LANES]; 6];
            let env_clean = eval_lanes::<6>(&x, t, Some(&mut g_clean));
            for poisoned in 0..LANES {
                let mut y = x;
                y[poisoned % 6][poisoned] = f64::NAN;
                let mut g = [[0.0; LANES]; 6];
                let env = eval_lanes::<6>(&y, t, Some(&mut g));
                for l in (0..LANES).filter(|&l| l != poisoned) {
                    assert_eq!(env[l].to_bits(), env_clean[l].to_bits(), "t={t} lane {l}");
                    for j in 0..6 {
                        assert_eq!(g[j][l].to_bits(), g_clean[j][l].to_bits());
                    }
                }
                // the NaN lane itself runs the reference's operations too
                let mut net = clean[poisoned];
                net[poisoned % 6] = f64::NAN;
                let mut rg = [0.0; 6];
                let want = reference::eval(&net, t, Some(&mut rg), None, &mut Vec::new());
                assert_eq!(env[poisoned].to_bits(), want.envelope.to_bits());
                for j in 0..6 {
                    assert_eq!(g[j][poisoned].to_bits(), rg[j].to_bits(), "pin {j}");
                }
            }
        }
    }
}
