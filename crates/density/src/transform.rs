//! Trigonometric transforms (DCT-II / DCT-III / DST-III) built on the FFT.
//!
//! These are the kernels of the ePlace spectral Poisson solver. With the
//! half-sample cosine basis `cos(πu(i+½)/N)` (Neumann boundary):
//!
//! * [`dct2`]  — analysis:  `X_u = Σ_i x_i cos(πu(i+½)/N)`
//! * [`dct3`]  — synthesis: `y_i = X_0/2 + Σ_{u≥1} X_u cos(πu(i+½)/N)`
//! * [`dst3`]  — synthesis with sines: `y_i = Σ_{u≥1} X_u sin(πu(i+½)/N)`
//!   (what DREAMPlace calls IDXST; used for the electric field)
//!
//! The pair satisfies `x = (2/N)·dct3(dct2(x))`.
//!
//! Two generations of kernels coexist:
//!
//! * the original free functions ([`dct2`], [`dct3`], [`dst3`],
//!   [`transform_2d`]) embed each length-`N` transform into a length-`2N`
//!   **complex** FFT with trigonometry recomputed per call — kept as the
//!   unplanned baseline and for one-off use;
//! * [`DctPlan`] (1-D) and [`Spectral2d`] (2-D) are the planned hot-loop
//!   path: each length-`2N` transform collapses onto an `N`-point complex
//!   FFT through the real-input pack/unpack identities (the inputs are
//!   real, and the synthesis output of a real spectrum is mirror-conjugate,
//!   so half the butterflies vanish), every phase factor is a table lookup,
//!   the 2-D column pass runs on contiguous memory after a cache-blocked
//!   transpose, and row batches dispatch through a
//!   [`crate::exec::ParallelExec`] with a fixed row-to-part assignment —
//!   results are bit-identical at any thread count because every row is
//!   transformed by the same serial code regardless of which part runs it.

use crate::exec::{part_bounds, ParallelExec};
use crate::fft::{fft_in_place, FftPlan, LANES};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scratch buffers for the FFT-based transforms (reused across calls).
#[derive(Debug, Clone, Default)]
pub struct TransformScratch {
    re: Vec<f64>,
    im: Vec<f64>,
    /// SoA buffers for the `*_lanes` kernels ([`LANES`] interleaved
    /// sequences). Grow-only, so alternating row/column sweeps of a
    /// rectangular grid never shrink-and-refill them.
    lre: Vec<f64>,
    lim: Vec<f64>,
    /// One gathered column for the scalar fallback of strided sweeps.
    line: Vec<f64>,
    /// Column-tile output of the parallel fused column pass (per part).
    colbuf: Vec<f64>,
}

impl TransformScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n2: usize) {
        self.re.clear();
        self.re.resize(n2, 0.0);
        self.im.clear();
        self.im.resize(n2, 0.0);
    }

    /// Sizes the buffers without zeroing them (planned kernels overwrite
    /// every slot before reading).
    fn ensure(&mut self, n: usize) {
        if self.re.len() != n {
            self.re.resize(n, 0.0);
            self.im.resize(n, 0.0);
        }
    }

    /// Grows (never shrinks) the lane buffers to `n · LANES` slots; the
    /// lane kernels overwrite every slot they read.
    fn ensure_lanes(&mut self, n: usize) {
        let need = n * LANES;
        if self.lre.len() < need {
            self.lre.resize(need, 0.0);
            self.lim.resize(need, 0.0);
        }
    }
}

/// Copies one [`LANES`]-wide group out of strided grid storage
/// (`src[at + l · lstep]`, `l = 0..LANES`). `lstep == 1` — the fused
/// column pass — is a straight 64-byte line copy.
#[inline]
fn load_group(src: &[f64], at: usize, lstep: usize, dst: &mut [f64]) {
    if lstep == 1 {
        dst.copy_from_slice(&src[at..at + LANES]);
    } else {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = src[at + l * lstep];
        }
    }
}

/// Scatters one [`LANES`]-wide group back into strided grid storage;
/// mirror of [`load_group`].
#[inline]
fn store_group(dst: &mut [f64], at: usize, lstep: usize, src: &[f64]) {
    if lstep == 1 {
        dst[at..at + LANES].copy_from_slice(src);
    } else {
        for (l, &s) in src.iter().enumerate() {
            dst[at + l * lstep] = s;
        }
    }
}

/// DCT-II: `out[u] = Σ_i x[i] cos(πu(i+½)/N)`.
///
/// Uses the even-mirror embedding into a length-`2N` FFT:
/// `W_u = 2 e^{jπu/2N} X_u`.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two or `out.len() != x.len()`.
pub fn dct2(x: &[f64], out: &mut [f64], scratch: &mut TransformScratch) {
    let n = x.len();
    assert_eq!(out.len(), n);
    if n == 0 {
        return;
    }
    scratch.prepare(2 * n);
    scratch.re[..n].copy_from_slice(x);
    for i in 0..n {
        scratch.re[2 * n - 1 - i] = x[i];
    }
    fft_in_place(&mut scratch.re, &mut scratch.im, false);
    for u in 0..n {
        let ang = -std::f64::consts::PI * u as f64 / (2.0 * n as f64);
        let (c, s) = (ang.cos(), ang.sin());
        out[u] = 0.5 * (scratch.re[u] * c - scratch.im[u] * s);
    }
}

/// DCT-III: `out[i] = X_0/2 + Σ_{u=1}^{N-1} X_u cos(πu(i+½)/N)`.
///
/// Together with [`dct2`]: `x = (2/N) · dct3(dct2(x))`.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two or `out.len() != x.len()`.
pub fn dct3(x: &[f64], out: &mut [f64], scratch: &mut TransformScratch) {
    synthesize(x, out, scratch, false)
}

/// DST-III-style synthesis: `out[i] = Σ_{u=1}^{N-1} X_u sin(πu(i+½)/N)`
/// (the `u = 0` slot of `x` is ignored since `sin 0 = 0`).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two or `out.len() != x.len()`.
pub fn dst3(x: &[f64], out: &mut [f64], scratch: &mut TransformScratch) {
    synthesize(x, out, scratch, true)
}

/// Shared synthesis core: `y_i = Σ_u c_u X_u e^{jπu(i+½)/N}` evaluated by a
/// zero-padded length-`2N` inverse FFT; real part → DCT-III, imaginary part
/// → DST-III.
fn synthesize(x: &[f64], out: &mut [f64], scratch: &mut TransformScratch, sine: bool) {
    let n = x.len();
    assert_eq!(out.len(), n);
    if n == 0 {
        return;
    }
    scratch.prepare(2 * n);
    for u in 0..n {
        let coeff = if u == 0 && !sine { 0.5 * x[0] } else { x[u] };
        let ang = std::f64::consts::PI * u as f64 / (2.0 * n as f64);
        scratch.re[u] = coeff * ang.cos();
        scratch.im[u] = coeff * ang.sin();
    }
    fft_in_place(&mut scratch.re, &mut scratch.im, true);
    if sine {
        out.copy_from_slice(&scratch.im[..n]);
    } else {
        out.copy_from_slice(&scratch.re[..n]);
    }
}

/// Naive references for the three transforms (tests and odd sizes).
pub mod naive {
    use std::f64::consts::PI;

    /// `O(N²)` DCT-II.
    pub fn dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|u| {
                x.iter()
                    .enumerate()
                    .map(|(i, &xi)| xi * (PI * u as f64 * (i as f64 + 0.5) / n as f64).cos())
                    .sum()
            })
            .collect()
    }

    /// `O(N²)` DCT-III.
    pub fn dct3(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                x[0] / 2.0
                    + (1..n)
                        .map(|u| x[u] * (PI * u as f64 * (i as f64 + 0.5) / n as f64).cos())
                        .sum::<f64>()
            })
            .collect()
    }

    /// `O(N²)` DST-III.
    pub fn dst3(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                (1..n)
                    .map(|u| x[u] * (PI * u as f64 * (i as f64 + 0.5) / n as f64).sin())
                    .sum()
            })
            .collect()
    }
}

/// 2-D separable transform over a row-major `rows × cols` grid.
///
/// `kind_rows` is applied along each row (x-direction, i.e. over columns),
/// then `kind_cols` along each column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DCT-II analysis.
    Dct2,
    /// DCT-III synthesis.
    Dct3,
    /// DST-III synthesis.
    Dst3,
}

fn apply_1d(kind: Kind, x: &[f64], out: &mut [f64], scratch: &mut TransformScratch) {
    match kind {
        Kind::Dct2 => dct2(x, out, scratch),
        Kind::Dct3 => dct3(x, out, scratch),
        Kind::Dst3 => dst3(x, out, scratch),
    }
}

/// Applies `kind_x` along rows then `kind_y` along columns of the row-major
/// `rows × cols` grid `data`, in place.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols` or a dimension is not a power of
/// two.
pub fn transform_2d(
    data: &mut [f64],
    rows: usize,
    cols: usize,
    kind_x: Kind,
    kind_y: Kind,
    scratch: &mut TransformScratch,
) {
    assert_eq!(data.len(), rows * cols, "grid shape mismatch");
    let mut line = vec![0.0; cols.max(rows)];
    let mut out = vec![0.0; cols.max(rows)];
    // rows (contiguous)
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        line[..cols].copy_from_slice(row);
        apply_1d(kind_x, &line[..cols], &mut out[..cols], scratch);
        row.copy_from_slice(&out[..cols]);
    }
    // columns (strided)
    for c in 0..cols {
        for r in 0..rows {
            line[r] = data[r * cols + c];
        }
        apply_1d(kind_y, &line[..rows], &mut out[..rows], scratch);
        for r in 0..rows {
            data[r * cols + c] = out[r];
        }
    }
}

/// A reusable plan for the three length-`N` trigonometric transforms.
///
/// Holds an `N`-point [`FftPlan`] plus the two phase-factor tables the
/// real-input fast path needs, so [`DctPlan::apply`] performs **no**
/// trigonometry:
///
/// * **Analysis** ([`Kind::Dct2`]): the even-mirrored extension of the
///   input is a length-`2N` *real* sequence; its FFT is computed by packing
///   adjacent pairs into an `N`-point complex FFT and unpacking with the
///   conjugate-symmetry identity
///   `Y_u = (Z_u + Z̄_{N−u})/2 − (i/2)·e^{−iπu/N}(Z_u − Z̄_{N−u})`.
/// * **Synthesis** ([`Kind::Dct3`] / [`Kind::Dst3`]): the length-`2N`
///   half-spectrum inverse FFT `s_i = Σ_u c_u e^{iπu(i+½)/N}` of *real*
///   coefficients `c` satisfies `s_{2N−1−i} = s̄_i`, so its even-indexed
///   samples are exactly the `N`-point inverse FFT of
///   `d_u = c_u e^{iπu/2N}` and the odd-indexed samples are conjugated
///   mirror reads of the same array.
///
/// Either way a planned 1-D transform costs one `N`-point complex FFT and
/// two `O(N)` table passes — versus a `2N`-point FFT plus `O(N)` `cos`/`sin`
/// calls for the unplanned functions.
#[derive(Debug, Clone)]
pub struct DctPlan {
    n: usize,
    fft: FftPlan,
    /// `(cos, sin)` of `πu/2N`, `u = 0..N`: synthesis input rotation
    /// `e^{iπu/2N}`; its conjugate is the analysis output rotation.
    ph_re: Vec<f64>,
    ph_im: Vec<f64>,
    /// `(cos, sin)` of `πk/N`, `k = 0..N`: real-FFT unpack rotation
    /// (used conjugated, as `e^{−iπk/N}`).
    un_re: Vec<f64>,
    un_im: Vec<f64>,
}

impl DctPlan {
    /// Builds the plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "transform length {n} is not a power of two"
        );
        let half_angle = |u: usize, denom: f64| {
            let ang = std::f64::consts::PI * u as f64 / denom;
            (ang.cos(), ang.sin())
        };
        let mut ph_re = Vec::with_capacity(n);
        let mut ph_im = Vec::with_capacity(n);
        let mut un_re = Vec::with_capacity(n);
        let mut un_im = Vec::with_capacity(n);
        for u in 0..n {
            let (c, s) = half_angle(u, 2.0 * n as f64);
            ph_re.push(c);
            ph_im.push(s);
            let (c, s) = half_angle(u, n as f64);
            un_re.push(c);
            un_im.push(s);
        }
        Self {
            n,
            fft: FftPlan::new(n),
            ph_re,
            ph_im,
            un_re,
            un_im,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial length-0 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Applies `kind` to `inout` in place.
    ///
    /// # Panics
    ///
    /// Panics if `inout.len()` differs from the planned length.
    pub fn apply(&self, kind: Kind, inout: &mut [f64], scratch: &mut TransformScratch) {
        match kind {
            Kind::Dct2 => self.dct2(inout, scratch),
            Kind::Dct3 => self.dct3(inout, scratch),
            Kind::Dst3 => self.dst3(inout, scratch),
        }
    }

    /// In-place DCT-II (same math as the free [`dct2`]).
    pub fn dct2(&self, inout: &mut [f64], scratch: &mut TransformScratch) {
        let n = self.n;
        assert_eq!(inout.len(), n, "input length differs from planned length");
        if n <= 1 {
            return; // X_0 = x_0
        }
        scratch.ensure(n);
        // pack the even-mirrored sequence y (y_i = x_i, y_{2N−1−i} = x_i)
        // pairwise: z_j = y_{2j} + i·y_{2j+1}
        let half = n / 2;
        for j in 0..half {
            scratch.re[j] = inout[2 * j];
            scratch.im[j] = inout[2 * j + 1];
        }
        for j in half..n {
            scratch.re[j] = inout[2 * n - 1 - 2 * j];
            scratch.im[j] = inout[2 * n - 2 - 2 * j];
        }
        self.fft.process(&mut scratch.re, &mut scratch.im, false);
        // Unpack bins 0..N of the 2N-point real FFT and rotate into
        // DCT-II. Conjugate symmetry pairs bin u with N−u, so one walk
        // over mirror pairs shares the Z loads and halves the unpack
        // traffic; u = 0 and u = N/2 are their own mirrors. `rot` is
        // mirrored verbatim in `dct2_lanes` — keep the expression shapes
        // in lockstep or the fused/unfused bitwise contract breaks.
        let rot = |u: usize, zr_u: f64, zi_u: f64, zr_v: f64, zi_v: f64| -> f64 {
            let a_re = 0.5 * (zr_u + zr_v);
            let a_im = 0.5 * (zi_u - zi_v);
            let d_re = 0.5 * (zr_u - zr_v);
            let d_im = 0.5 * (zi_u + zi_v);
            // B = −i·D, then Y = A + e^{−iπu/N}·B
            let (b_re, b_im) = (d_im, -d_re);
            let y_re = f64::mul_add(self.un_im[u], b_im, f64::mul_add(self.un_re[u], b_re, a_re));
            let y_im = f64::mul_add(
                -self.un_im[u],
                b_re,
                f64::mul_add(self.un_re[u], b_im, a_im),
            );
            // X_u = ½·Re[Y_u e^{−iπu/2N}]
            0.5 * f64::mul_add(self.ph_im[u], y_im, y_re * self.ph_re[u])
        };
        inout[0] = rot(
            0,
            scratch.re[0],
            scratch.im[0],
            scratch.re[0],
            scratch.im[0],
        );
        inout[half] = rot(
            half,
            scratch.re[half],
            scratch.im[half],
            scratch.re[half],
            scratch.im[half],
        );
        for u in 1..half {
            let v = n - u;
            let (zr_u, zi_u) = (scratch.re[u], scratch.im[u]);
            let (zr_v, zi_v) = (scratch.re[v], scratch.im[v]);
            inout[u] = rot(u, zr_u, zi_u, zr_v, zi_v);
            inout[v] = rot(v, zr_v, zi_v, zr_u, zi_u);
        }
    }

    /// In-place DCT-III (same math as the free [`dct3`]).
    pub fn dct3(&self, inout: &mut [f64], scratch: &mut TransformScratch) {
        self.synthesize(inout, scratch, false)
    }

    /// In-place DST-III synthesis (same math as the free [`dst3`]).
    pub fn dst3(&self, inout: &mut [f64], scratch: &mut TransformScratch) {
        self.synthesize(inout, scratch, true)
    }

    fn synthesize(&self, inout: &mut [f64], scratch: &mut TransformScratch, sine: bool) {
        let n = self.n;
        assert_eq!(inout.len(), n, "input length differs from planned length");
        if n == 0 {
            return;
        }
        if n == 1 {
            inout[0] = if sine { 0.0 } else { 0.5 * inout[0] };
            return;
        }
        scratch.ensure(n);
        // d_u = c_u·e^{iπu/2N}; c_0 contributes only to the real (cosine)
        // output, so the sine path zeroes it
        let c0 = if sine { 0.0 } else { 0.5 * inout[0] };
        scratch.re[0] = c0;
        scratch.im[0] = 0.0;
        for u in 1..n {
            let c = inout[u];
            scratch.re[u] = c * self.ph_re[u];
            scratch.im[u] = c * self.ph_im[u];
        }
        self.fft.process(&mut scratch.re, &mut scratch.im, true);
        // s_{2m} = E_m, s_{2m+1} = conj(E_{N−1−m}); cosine output reads the
        // real parts, sine output the (sign-flipped on odd) imaginary parts
        let half = n / 2;
        if sine {
            for m in 0..half {
                inout[2 * m] = scratch.im[m];
                inout[2 * m + 1] = -scratch.im[n - 1 - m];
            }
        } else {
            for m in 0..half {
                inout[2 * m] = scratch.re[m];
                inout[2 * m + 1] = scratch.re[n - 1 - m];
            }
        }
    }

    /// Applies `kind` to [`LANES`] strided sequences of the grid `data`
    /// at once: element `u` of lane `l` lives at
    /// `data[base + u * estep + l * lstep]`.
    ///
    /// With `estep = 1, lstep = cols` this transforms eight adjacent grid
    /// rows; with `estep = cols, lstep = 1` eight adjacent grid columns
    /// in place — no transpose. Lane `l` of the result is bit-identical
    /// to [`DctPlan::apply`] on that sequence alone: the lane kernels
    /// mirror the scalar expressions one-for-one.
    ///
    /// # Panics
    ///
    /// Panics if any addressed element falls outside `data`.
    pub fn apply_lanes(
        &self,
        kind: Kind,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
    ) {
        match kind {
            Kind::Dct2 => self.dct2_lanes(data, base, estep, lstep, scratch),
            Kind::Dct3 => self.synthesize_lanes(data, base, estep, lstep, scratch, false),
            Kind::Dst3 => self.synthesize_lanes(data, base, estep, lstep, scratch, true),
        }
    }

    /// Lane variant of [`DctPlan::dct2`]; see [`DctPlan::apply_lanes`]
    /// for the addressing scheme and the bitwise-mirroring contract.
    pub fn dct2_lanes(
        &self,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
    ) {
        const W: usize = LANES;
        let n = self.n;
        if n <= 1 {
            return; // X_0 = x_0
        }
        scratch.ensure_lanes(n);
        let lre = &mut scratch.lre[..n * W];
        let lim = &mut scratch.lim[..n * W];
        // pairwise pack of the even-mirrored sequence, per lane
        let half = n / 2;
        for j in 0..half {
            let e0 = base + (2 * j) * estep;
            let e1 = base + (2 * j + 1) * estep;
            load_group(data, e0, lstep, &mut lre[j * W..j * W + W]);
            load_group(data, e1, lstep, &mut lim[j * W..j * W + W]);
        }
        for j in half..n {
            let e0 = base + (2 * n - 1 - 2 * j) * estep;
            let e1 = base + (2 * n - 2 - 2 * j) * estep;
            load_group(data, e0, lstep, &mut lre[j * W..j * W + W]);
            load_group(data, e1, lstep, &mut lim[j * W..j * W + W]);
        }
        self.fft.process_lanes(lre, lim, false);
        // mirror-pair unpack; `rot` mirrors `DctPlan::dct2` verbatim
        let rot = |u: usize, zr_u: f64, zi_u: f64, zr_v: f64, zi_v: f64| -> f64 {
            let a_re = 0.5 * (zr_u + zr_v);
            let a_im = 0.5 * (zi_u - zi_v);
            let d_re = 0.5 * (zr_u - zr_v);
            let d_im = 0.5 * (zi_u + zi_v);
            let (b_re, b_im) = (d_im, -d_re);
            let y_re = f64::mul_add(self.un_im[u], b_im, f64::mul_add(self.un_re[u], b_re, a_re));
            let y_im = f64::mul_add(
                -self.un_im[u],
                b_re,
                f64::mul_add(self.un_re[u], b_im, a_im),
            );
            0.5 * f64::mul_add(self.ph_im[u], y_im, y_re * self.ph_re[u])
        };
        let mut tmp = [0.0_f64; W];
        for (l, t) in tmp.iter_mut().enumerate() {
            *t = rot(0, lre[l], lim[l], lre[l], lim[l]);
        }
        store_group(data, base, lstep, &tmp);
        for (l, t) in tmp.iter_mut().enumerate() {
            let (zr, zi) = (lre[half * W + l], lim[half * W + l]);
            *t = rot(half, zr, zi, zr, zi);
        }
        store_group(data, base + half * estep, lstep, &tmp);
        let mut tmp_v = [0.0_f64; W];
        for u in 1..half {
            let v = n - u;
            for l in 0..W {
                let (zr_u, zi_u) = (lre[u * W + l], lim[u * W + l]);
                let (zr_v, zi_v) = (lre[v * W + l], lim[v * W + l]);
                tmp[l] = rot(u, zr_u, zi_u, zr_v, zi_v);
                tmp_v[l] = rot(v, zr_v, zi_v, zr_u, zi_u);
            }
            store_group(data, base + u * estep, lstep, &tmp);
            store_group(data, base + v * estep, lstep, &tmp_v);
        }
    }

    /// Lane variant of the synthesis core; mirrors
    /// [`DctPlan::synthesize`] expression-for-expression.
    fn synthesize_lanes(
        &self,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
        sine: bool,
    ) {
        const W: usize = LANES;
        let n = self.n;
        if n == 0 {
            return;
        }
        if n == 1 {
            for l in 0..W {
                let at = base + l * lstep;
                data[at] = if sine { 0.0 } else { 0.5 * data[at] };
            }
            return;
        }
        scratch.ensure_lanes(n);
        let lre = &mut scratch.lre[..n * W];
        let lim = &mut scratch.lim[..n * W];
        let mut tmp = [0.0_f64; W];
        load_group(data, base, lstep, &mut tmp);
        for l in 0..W {
            let c0 = if sine { 0.0 } else { 0.5 * tmp[l] };
            lre[l] = c0;
            lim[l] = 0.0;
        }
        for u in 1..n {
            let (pr, pi) = (self.ph_re[u], self.ph_im[u]);
            load_group(data, base + u * estep, lstep, &mut tmp);
            for l in 0..W {
                let c = tmp[l];
                lre[u * W + l] = c * pr;
                lim[u * W + l] = c * pi;
            }
        }
        self.fft.process_lanes(lre, lim, true);
        let half = n / 2;
        if sine {
            let mut odd = [0.0_f64; W];
            for m in 0..half {
                let src = &lim[m * W..m * W + W];
                store_group(data, base + (2 * m) * estep, lstep, src);
                for (l, o) in odd.iter_mut().enumerate() {
                    *o = -lim[(n - 1 - m) * W + l];
                }
                store_group(data, base + (2 * m + 1) * estep, lstep, &odd);
            }
        } else {
            for m in 0..half {
                let src = &lre[m * W..m * W + W];
                store_group(data, base + (2 * m) * estep, lstep, src);
                let mirror = &lre[(n - 1 - m) * W..(n - 1 - m) * W + W];
                store_group(data, base + (2 * m + 1) * estep, lstep, mirror);
            }
        }
    }
}

/// Process-wide [`DctPlan`] cache, keyed by transform length.
///
/// Plan construction is pure table precomputation — two plans for the
/// same length are element-for-element identical — so every
/// [`Spectral2d`] in the process shares one immutable plan per length
/// through an `Arc`. A long-lived multi-job driver (the `mep-serve`
/// daemon) pays the `O(N log N)` table build once per grid size ever
/// seen, not once per job, and concurrent jobs on same-sized grids share
/// the tables' cache footprint. Plans are read-only after construction,
/// so sharing cannot leak state between jobs.
fn plan_cache() -> &'static Mutex<std::collections::BTreeMap<usize, Arc<DctPlan>>> {
    static CACHE: std::sync::OnceLock<Mutex<std::collections::BTreeMap<usize, Arc<DctPlan>>>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
}

static PLAN_CACHE_HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static PLAN_CACHE_MISSES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Returns the process-wide shared plan for length `n`, building and
/// caching it on first use.
///
/// # Panics
///
/// Panics if `n` is not a power of two (same contract as
/// [`DctPlan::new`]); the failed build is not cached.
pub fn shared_dct_plan(n: usize) -> Arc<DctPlan> {
    let mut cache = match plan_cache().lock() {
        Ok(g) => g,
        // a panic inside DctPlan::new (non-power-of-two) poisons the
        // lock but never left a partial entry behind; keep serving
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(plan) = cache.get(&n) {
        PLAN_CACHE_HITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        return Arc::clone(plan);
    }
    PLAN_CACHE_MISSES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let plan = Arc::new(DctPlan::new(n));
    cache.insert(n, Arc::clone(&plan));
    plan
}

/// `(hits, misses)` of [`shared_dct_plan`] since process start. A serving
/// process that has warmed up should see hits grow and misses stay flat.
pub fn plan_cache_stats() -> (u64, u64) {
    (
        PLAN_CACHE_HITS.load(std::sync::atomic::Ordering::Relaxed),
        PLAN_CACHE_MISSES.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// Call count, cumulative wall time, and per-kernel work counters of
/// planned 2-D transforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Number of [`Spectral2d::execute`] / [`Spectral2d::execute_unfused`]
    /// calls.
    pub calls: u64,
    /// Cumulative wall time, nanoseconds.
    pub nanos: u64,
    /// [`LANES`]-wide row tiles transformed by the fused row pass.
    pub row_lane_tiles: u64,
    /// [`LANES`]-wide column tiles transformed by the fused column pass.
    pub col_lane_tiles: u64,
    /// Rows/columns that went through the scalar 1-D kernel instead of a
    /// lane tile (grid dimensions below [`LANES`], and every line of an
    /// unfused sweep).
    pub scalar_lines: u64,
    /// Full-grid transpose passes (unfused path only; the fused path
    /// performs none).
    pub transposes: u64,
}

impl TransformStats {
    /// Cumulative wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Below this element count parallel row dispatch is not worth the
/// synchronization; [`Spectral2d`] stays serial even with an executor.
/// Measured on a 2-core host (DESIGN.md §13): a 512² solve was faster on
/// two threads in every run, while 64² was always slower and 128² and
/// 256² were slower in some runs.
pub const PARALLEL_GRID_THRESHOLD: usize = 512 * 512;

/// Planned separable 2-D transform engine for one fixed `rows × cols` grid.
///
/// Caches a [`DctPlan`] per axis and per-part FFT scratch, so the
/// placement hot loop performs no allocation and no trigonometry. The
/// default [`Spectral2d::execute`] path is **fused**: both passes run
/// through [`LANES`]-wide SIMD-friendly lane kernels, and the column pass
/// walks the grid in place with strided tiles — eight adjacent columns
/// per tile, so every row touch is one full cache line and the two
/// full-grid transposes of the unfused path disappear.
/// [`Spectral2d::execute_unfused`] keeps the original
/// transpose + scalar-sweep pipeline as the bitwise reference.
///
/// # Determinism
///
/// With an installed [`ParallelExec`], lane tiles are split into
/// contiguous ranges with a **fixed** tile-to-part assignment and each
/// part writes only its own tiles with its own scratch. Every lane runs
/// the same arithmetic as the scalar 1-D kernels whatever part (or
/// thread) executes it, so grids are bit-identical at any thread count
/// — and bit-identical between the fused and unfused paths.
#[derive(Debug)]
pub struct Spectral2d {
    rows: usize,
    cols: usize,
    /// Shared per-length plans from the process-wide [`shared_dct_plan`]
    /// cache (immutable tables; cloning the engine clones the `Arc`).
    row_plan: Arc<DctPlan>,
    col_plan: Arc<DctPlan>,
    /// `cols × rows` transpose buffer (unfused path only; grown lazily).
    tbuf: Vec<f64>,
    /// One FFT scratch per part (uncontended; each part index runs once).
    scratches: Vec<Mutex<TransformScratch>>,
    exec: Option<Arc<dyn ParallelExec>>,
    calls: u64,
    nanos: u64,
    row_lane_tiles: u64,
    col_lane_tiles: u64,
    scalar_lines: u64,
    transposes: u64,
}

impl Clone for Spectral2d {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            row_plan: self.row_plan.clone(),
            col_plan: self.col_plan.clone(),
            tbuf: self.tbuf.clone(),
            scratches: self
                .scratches
                .iter()
                .map(|m| {
                    // poison recovery: a scratch is plain buffer space, so a
                    // clone of a poisoned one is still well-formed
                    let guard = match m.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    Mutex::new(guard.clone())
                })
                .collect(),
            exec: self.exec.clone(),
            calls: self.calls,
            nanos: self.nanos,
            row_lane_tiles: self.row_lane_tiles,
            col_lane_tiles: self.col_lane_tiles,
            scalar_lines: self.scalar_lines,
            transposes: self.transposes,
        }
    }
}

impl Spectral2d {
    /// Builds the engine for a row-major `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_plan: shared_dct_plan(cols),
            col_plan: shared_dct_plan(rows),
            tbuf: Vec::new(),
            scratches: vec![Mutex::new(TransformScratch::new())],
            exec: None,
            calls: 0,
            nanos: 0,
            row_lane_tiles: 0,
            col_lane_tiles: 0,
            scalar_lines: 0,
            transposes: 0,
        }
    }

    /// Installs a parallel executor dispatching row batches over `parts`
    /// fixed contiguous chunks (per-part scratch is (re)built here, never
    /// in the hot loop).
    pub fn set_executor(&mut self, exec: Arc<dyn ParallelExec>, parts: usize) {
        let parts = parts.max(1);
        self.scratches = (0..parts)
            .map(|_| Mutex::new(TransformScratch::new()))
            .collect();
        self.exec = Some(exec);
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Instrumentation snapshot (calls, cumulative wall time, per-kernel
    /// work counters).
    pub fn stats(&self) -> TransformStats {
        TransformStats {
            calls: self.calls,
            nanos: self.nanos,
            row_lane_tiles: self.row_lane_tiles,
            col_lane_tiles: self.col_lane_tiles,
            scalar_lines: self.scalar_lines,
            transposes: self.transposes,
        }
    }

    /// Applies `kind_x` along rows then `kind_y` along columns of the
    /// row-major grid `data`, in place. Planned equivalent of
    /// [`transform_2d`].
    ///
    /// Fused path: both passes run [`LANES`]-wide lane kernels and the
    /// column pass is strided-in-place, so the grid is traversed twice
    /// per sweep instead of four times (no transposes). Bit-identical to
    /// [`Spectral2d::execute_unfused`] at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn execute(&mut self, data: &mut [f64], kind_x: Kind, kind_y: Kind) {
        assert_eq!(data.len(), self.rows * self.cols, "grid shape mismatch");
        // lint:allow(determinism): TransformStats timing telemetry; durations never feed back into results
        let t0 = Instant::now();
        self.sweep_rows_fused(kind_x, data);
        self.sweep_cols_fused(kind_y, data);
        self.calls += 1;
        self.nanos += t0.elapsed().as_nanos() as u64;
    }

    /// The original transpose-based pipeline: scalar row sweep, blocked
    /// transpose, scalar row sweep of the transpose, transpose back.
    /// Kept as the bitwise reference for the fused path (and as a
    /// debugging fallback).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn execute_unfused(&mut self, data: &mut [f64], kind_x: Kind, kind_y: Kind) {
        assert_eq!(data.len(), self.rows * self.cols, "grid shape mismatch");
        // lint:allow(determinism): TransformStats timing telemetry; durations never feed back into results
        let t0 = Instant::now();
        self.sweep(&self.row_plan, kind_x, data);
        let mut tbuf = std::mem::take(&mut self.tbuf);
        tbuf.resize(self.rows * self.cols, 0.0);
        transpose_blocked(data, &mut tbuf, self.rows, self.cols);
        self.sweep(&self.col_plan, kind_y, &mut tbuf);
        transpose_blocked(&tbuf, data, self.cols, self.rows);
        self.tbuf = tbuf;
        self.calls += 1;
        self.scalar_lines += (self.rows + self.cols) as u64;
        self.transposes += 2;
        self.nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Fused row pass: [`LANES`] adjacent rows per tile, transformed by
    /// the lane kernels; leftover rows (dimensions below [`LANES`]) go
    /// through the scalar kernel. Tiles have a fixed contiguous
    /// assignment to parts.
    fn sweep_rows_fused(&mut self, kind: Kind, data: &mut [f64]) {
        const W: usize = LANES;
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return;
        }
        let tiles = rows / W;
        let rem = rows % W; // nonzero only when rows < LANES (power of two)
        let parts = self.scratches.len();
        let parallel =
            self.exec.is_some() && parts > 1 && data.len() >= PARALLEL_GRID_THRESHOLD && tiles >= 2;
        if !parallel {
            let mut scratch = self.scratches[0].lock().expect("spectral scratch lock");
            for t in 0..tiles {
                self.row_plan
                    .apply_lanes(kind, data, t * W * cols, 1, cols, &mut scratch);
            }
            for r in tiles * W..rows {
                let row = &mut data[r * cols..(r + 1) * cols];
                self.row_plan.apply(kind, row, &mut scratch);
            }
        } else {
            debug_assert_eq!(rem, 0, "parallel row pass requires whole tiles");
            // fixed tile-to-part split: each part's rows are contiguous
            // lint:allow(no-alloc-hot): O(parts) ≤ 16 handle vector per parallel sweep, amortized over the whole grid pass
            let mut batches: Vec<Mutex<&mut [f64]>> = Vec::with_capacity(parts);
            let mut rest = &mut data[..tiles * W * cols];
            for p in 0..parts {
                let (lo, hi) = part_bounds(tiles, parts, p);
                let (head, tail) = rest.split_at_mut((hi - lo) * W * cols);
                // lint:allow(no-alloc-hot): push into the pre-capacitied O(parts) handle vector above
                batches.push(Mutex::new(head));
                rest = tail;
            }
            let exec = self.exec.as_ref().expect("executor checked above");
            let row_plan = &self.row_plan;
            exec.run(parts, &|p| {
                let mut batch = batches[p].lock().expect("spectral batch lock");
                let mut scratch = self.scratches[p].lock().expect("spectral scratch lock");
                let ntiles = batch.len() / (W * cols);
                for t in 0..ntiles {
                    row_plan.apply_lanes(kind, &mut batch, t * W * cols, 1, cols, &mut scratch);
                }
            });
        }
        self.row_lane_tiles += tiles as u64;
        self.scalar_lines += rem as u64;
    }

    /// Fused column pass: [`LANES`] adjacent columns per strided tile —
    /// every row touch is one cache line, and no transpose exists.
    /// Serially the tiles transform the grid in place; in parallel each
    /// part reads the grid immutably, transforms into its own scratch
    /// `colbuf`, and the results are scattered back in one serial pass
    /// (safe Rust cannot hand out disjoint strided `&mut` views of one
    /// grid). Both routes run identical per-column arithmetic.
    fn sweep_cols_fused(&mut self, kind: Kind, data: &mut [f64]) {
        const W: usize = LANES;
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return;
        }
        let tiles = cols / W;
        let rem = cols % W; // nonzero only when cols < LANES (power of two)
        let parts = self.scratches.len();
        let parallel =
            self.exec.is_some() && parts > 1 && data.len() >= PARALLEL_GRID_THRESHOLD && tiles >= 2;
        if parallel {
            debug_assert_eq!(rem, 0, "parallel column pass requires whole tiles");
            let exec = self.exec.as_ref().expect("executor checked above");
            let col_plan = &self.col_plan;
            let data_ref: &[f64] = data;
            exec.run(parts, &|p| {
                let (lo, hi) = part_bounds(tiles, parts, p);
                if hi == lo {
                    return;
                }
                let mut scratch = self.scratches[p].lock().expect("spectral scratch lock");
                let mut colbuf = std::mem::take(&mut scratch.colbuf);
                let need = (hi - lo) * rows * W;
                if colbuf.len() < need {
                    colbuf.resize(need, 0.0);
                }
                for t in 0..hi - lo {
                    let c0 = (lo + t) * W;
                    let tbase = t * rows * W;
                    for u in 0..rows {
                        let at = tbase + u * W;
                        colbuf[at..at + W]
                            .copy_from_slice(&data_ref[u * cols + c0..u * cols + c0 + W]);
                    }
                    col_plan.apply_lanes(kind, &mut colbuf, tbase, W, 1, &mut scratch);
                }
                scratch.colbuf = colbuf;
            });
            // serial scatter of each part's finished columns
            for p in 0..parts {
                let (lo, hi) = part_bounds(tiles, parts, p);
                if hi == lo {
                    continue;
                }
                let scratch = self.scratches[p].lock().expect("spectral scratch lock");
                for t in 0..hi - lo {
                    let c0 = (lo + t) * W;
                    let tbase = t * rows * W;
                    for u in 0..rows {
                        let at = tbase + u * W;
                        data[u * cols + c0..u * cols + c0 + W]
                            .copy_from_slice(&scratch.colbuf[at..at + W]);
                    }
                }
            }
        } else {
            let mut scratch = self.scratches[0].lock().expect("spectral scratch lock");
            for t in 0..tiles {
                self.col_plan
                    .apply_lanes(kind, data, t * W, cols, 1, &mut scratch);
            }
            if rem > 0 {
                // gather-transform-scatter each leftover column through
                // the scalar kernel
                let mut line = std::mem::take(&mut scratch.line);
                line.resize(rows, 0.0);
                for c in tiles * W..cols {
                    for (r, slot) in line.iter_mut().enumerate() {
                        *slot = data[r * cols + c];
                    }
                    self.col_plan.apply(kind, &mut line, &mut scratch);
                    for (r, &val) in line.iter().enumerate() {
                        data[r * cols + c] = val;
                    }
                }
                scratch.line = line;
            }
        }
        self.col_lane_tiles += tiles as u64;
        self.scalar_lines += rem as u64;
    }

    /// Transforms every `plan.len()`-sized row of `buf` in place, serially
    /// or over the installed executor with fixed contiguous row batches.
    fn sweep(&self, plan: &DctPlan, kind: Kind, buf: &mut [f64]) {
        let rowlen = plan.len();
        let nrows = buf.len() / rowlen.max(1);
        let parts = self.scratches.len();
        let parallel =
            self.exec.is_some() && parts > 1 && buf.len() >= PARALLEL_GRID_THRESHOLD && nrows > 1;
        if !parallel {
            let mut scratch = self.scratches[0].lock().expect("spectral scratch lock");
            for row in buf.chunks_exact_mut(rowlen) {
                plan.apply(kind, row, &mut scratch);
            }
            return;
        }
        // fixed row-to-part split: part p owns rows part_bounds(nrows, parts, p)
        // lint:allow(no-alloc-hot): O(parts) ≤ 16 handle vector per parallel sweep, amortized over the whole grid pass
        let mut batches: Vec<Mutex<&mut [f64]>> = Vec::with_capacity(parts);
        let mut rest = buf;
        for p in 0..parts {
            let (lo, hi) = part_bounds(nrows, parts, p);
            let (head, tail) = rest.split_at_mut((hi - lo) * rowlen);
            // lint:allow(no-alloc-hot): push into the pre-capacitied O(parts) handle vector above
            batches.push(Mutex::new(head));
            rest = tail;
        }
        let exec = self.exec.as_ref().expect("executor checked above");
        exec.run(parts, &|p| {
            let mut rows = batches[p].lock().expect("spectral batch lock");
            let mut scratch = self.scratches[p].lock().expect("spectral scratch lock");
            for row in rows.chunks_exact_mut(rowlen) {
                plan.apply(kind, row, &mut scratch);
            }
        });
    }
}

/// Cache-blocked out-of-place transpose of a row-major `rows × cols`
/// matrix into a row-major `cols × rows` matrix.
///
/// # Panics
///
/// Panics if a slice length differs from `rows · cols`.
pub fn transpose_blocked(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose source shape mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose target shape mismatch");
    // 32×32 f64 tiles: two 8 KiB working sets, comfortably inside L1
    const B: usize = 32;
    for rb in (0..rows).step_by(B) {
        let r_hi = (rb + B).min(rows);
        for cb in (0..cols).step_by(B) {
            let c_hi = (cb + B).min(cols);
            for r in rb..r_hi {
                let base = r * cols;
                for c in cb..c_hi {
                    dst[c * rows + r] = src[base + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_seq(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn dct2_matches_naive() {
        for &n in &[2usize, 4, 16, 64] {
            let x = rand_seq(n, 1);
            let want = naive::dct2(&x);
            let mut got = vec![0.0; n];
            dct2(&x, &mut got, &mut TransformScratch::new());
            for i in 0..n {
                assert!((got[i] - want[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dct3_matches_naive() {
        for &n in &[2usize, 8, 32] {
            let x = rand_seq(n, 2);
            let want = naive::dct3(&x);
            let mut got = vec![0.0; n];
            dct3(&x, &mut got, &mut TransformScratch::new());
            for i in 0..n {
                assert!((got[i] - want[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dst3_matches_naive() {
        for &n in &[2usize, 8, 32, 128] {
            let x = rand_seq(n, 3);
            let want = naive::dst3(&x);
            let mut got = vec![0.0; n];
            dst3(&x, &mut got, &mut TransformScratch::new());
            for i in 0..n {
                assert!((got[i] - want[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dct_round_trip() {
        let n = 64;
        let x = rand_seq(n, 4);
        let mut freq = vec![0.0; n];
        let mut back = vec![0.0; n];
        let mut s = TransformScratch::new();
        dct2(&x, &mut freq, &mut s);
        dct3(&freq, &mut back, &mut s);
        for i in 0..n {
            assert!((x[i] - 2.0 / n as f64 * back[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_2d_round_trip() {
        let (rows, cols) = (8, 16);
        let x = rand_seq(rows * cols, 5);
        let mut data = x.clone();
        let mut s = TransformScratch::new();
        transform_2d(&mut data, rows, cols, Kind::Dct2, Kind::Dct2, &mut s);
        transform_2d(&mut data, rows, cols, Kind::Dct3, Kind::Dct3, &mut s);
        let scale = 2.0 / rows as f64 * 2.0 / cols as f64;
        for i in 0..x.len() {
            assert!((x[i] - scale * data[i]).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn transform_2d_single_mode() {
        // a pure cosine mode concentrates in a single coefficient
        let (rows, cols) = (8usize, 8usize);
        let (u, v) = (3usize, 2usize);
        let mut data = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let cy = (std::f64::consts::PI * u as f64 * (r as f64 + 0.5) / rows as f64).cos();
                let cx = (std::f64::consts::PI * v as f64 * (c as f64 + 0.5) / cols as f64).cos();
                data[r * cols + c] = cy * cx;
            }
        }
        let mut s = TransformScratch::new();
        transform_2d(&mut data, rows, cols, Kind::Dct2, Kind::Dct2, &mut s);
        // expected magnitude N·M/4 in the (u, v) slot, ~0 elsewhere
        for r in 0..rows {
            for c in 0..cols {
                let want = if (r, c) == (u, v) {
                    rows as f64 * cols as f64 / 4.0
                } else {
                    0.0
                };
                assert!(
                    (data[r * cols + c] - want).abs() < 1e-9,
                    "({r},{c}) = {}",
                    data[r * cols + c]
                );
            }
        }
    }

    #[test]
    fn dct_plan_matches_naive_all_kinds() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let plan = DctPlan::new(n);
            assert_eq!(plan.len(), n);
            let mut scratch = TransformScratch::new();
            for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
                let x = rand_seq(n, 100 + n as u64);
                let want = match kind {
                    Kind::Dct2 => naive::dct2(&x),
                    Kind::Dct3 => naive::dct3(&x),
                    Kind::Dst3 => naive::dst3(&x),
                };
                let mut got = x.clone();
                plan.apply(kind, &mut got, &mut scratch);
                for i in 0..n {
                    assert!(
                        (got[i] - want[i]).abs() < 1e-9,
                        "n={n} kind={kind:?} i={i}: {} vs {}",
                        got[i],
                        want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn shared_plan_cache_returns_one_instance_per_length() {
        let a = shared_dct_plan(32);
        let b = shared_dct_plan(32);
        assert!(Arc::ptr_eq(&a, &b), "same length shares one plan");
        assert_eq!(a.len(), 32);
        let c = shared_dct_plan(64);
        assert!(!Arc::ptr_eq(&a, &c));
        // two same-shape engines share both axis plans (cache counters
        // are process-global, so only pointer identity is asserted here)
        let (h0, _) = plan_cache_stats();
        let _e1 = Spectral2d::new(16, 32);
        let _e2 = Spectral2d::new(16, 32);
        let (h1, _) = plan_cache_stats();
        assert!(h1 >= h0 + 2, "second engine hits the cache for both axes");
    }

    #[test]
    fn dct_plan_is_deterministic_across_calls() {
        let n = 64;
        let plan = DctPlan::new(n);
        let x = rand_seq(n, 9);
        let mut scratch = TransformScratch::new();
        let mut first = x.clone();
        plan.dct2(&mut first, &mut scratch);
        for _ in 0..3 {
            let mut again = x.clone();
            plan.dct2(&mut again, &mut scratch);
            for i in 0..n {
                assert_eq!(again[i].to_bits(), first[i].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "differs from planned length")]
    fn dct_plan_rejects_length_mismatch() {
        let plan = DctPlan::new(8);
        let mut x = vec![0.0; 4];
        plan.dct2(&mut x, &mut TransformScratch::new());
    }

    #[test]
    fn transpose_blocked_matches_direct() {
        for &(rows, cols) in &[(1usize, 1usize), (4, 8), (33, 65), (64, 64), (100, 7)] {
            let src = rand_seq(rows * cols, 6);
            let mut dst = vec![0.0; rows * cols];
            transpose_blocked(&src, &mut dst, rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(dst[c * rows + r].to_bits(), src[r * cols + c].to_bits());
                }
            }
        }
    }

    #[test]
    fn spectral2d_matches_transform_2d() {
        let (rows, cols) = (16usize, 32usize);
        let pairs = [
            (Kind::Dct2, Kind::Dct2),
            (Kind::Dct3, Kind::Dct3),
            (Kind::Dst3, Kind::Dct3),
            (Kind::Dct3, Kind::Dst3),
        ];
        let mut engine = Spectral2d::new(rows, cols);
        for (i, &(kx, ky)) in pairs.iter().enumerate() {
            let x = rand_seq(rows * cols, 40 + i as u64);
            let mut want = x.clone();
            transform_2d(&mut want, rows, cols, kx, ky, &mut TransformScratch::new());
            let mut got = x;
            engine.execute(&mut got, kx, ky);
            for j in 0..want.len() {
                assert!(
                    (got[j] - want[j]).abs() < 1e-9,
                    "pair {i} elem {j}: {} vs {}",
                    got[j],
                    want[j]
                );
            }
        }
        assert_eq!(engine.stats().calls, pairs.len() as u64);
    }

    #[test]
    fn fused_execute_bitwise_matches_unfused() {
        // includes dimensions below LANES (scalar fallback lines) and
        // rectangular grids in both aspect ratios
        let shapes = [
            (2usize, 2usize),
            (4, 32),
            (32, 4),
            (8, 8),
            (16, 64),
            (64, 16),
            (128, 128),
        ];
        let pairs = [
            (Kind::Dct2, Kind::Dct2),
            (Kind::Dct3, Kind::Dct3),
            (Kind::Dst3, Kind::Dct3),
            (Kind::Dct3, Kind::Dst3),
        ];
        for &(rows, cols) in &shapes {
            let mut fused = Spectral2d::new(rows, cols);
            let mut unfused = Spectral2d::new(rows, cols);
            for (i, &(kx, ky)) in pairs.iter().enumerate() {
                let x = rand_seq(rows * cols, 900 + i as u64);
                let mut a = x.clone();
                let mut b = x;
                fused.execute(&mut a, kx, ky);
                unfused.execute_unfused(&mut b, kx, ky);
                for j in 0..a.len() {
                    assert_eq!(
                        a[j].to_bits(),
                        b[j].to_bits(),
                        "{rows}x{cols} pair {i} elem {j}: {} vs {}",
                        a[j],
                        b[j]
                    );
                }
            }
            assert_eq!(fused.stats().transposes, 0);
            assert_eq!(unfused.stats().transposes, 2 * pairs.len() as u64);
        }
    }

    #[test]
    fn apply_lanes_bitwise_matches_scalar_apply() {
        for &n in &[2usize, 8, 16, 128] {
            let plan = DctPlan::new(n);
            let mut scratch = TransformScratch::new();
            for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
                // strided layout: element u of lane l at u*LANES + l
                let cols = LANES;
                let mut grid = rand_seq(n * cols, 70 + n as u64);
                let mut want: Vec<Vec<f64>> = (0..cols)
                    .map(|l| (0..n).map(|u| grid[u * cols + l]).collect())
                    .collect();
                plan.apply_lanes(kind, &mut grid, 0, cols, 1, &mut scratch);
                for (l, col) in want.iter_mut().enumerate() {
                    plan.apply(kind, col, &mut scratch);
                    for u in 0..n {
                        assert_eq!(
                            grid[u * cols + l].to_bits(),
                            col[u].to_bits(),
                            "n={n} kind={kind:?} lane={l} elem={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spectral2d_serial_executor_is_bitwise_identical() {
        let (rows, cols) = (512usize, 512usize); // meets PARALLEL_GRID_THRESHOLD
        let x = rand_seq(rows * cols, 77);
        let mut serial = Spectral2d::new(rows, cols);
        let mut dispatched = Spectral2d::new(rows, cols);
        dispatched.set_executor(Arc::new(crate::exec::SerialExec), 4);
        let mut a = x.clone();
        let mut b = x;
        serial.execute(&mut a, Kind::Dct2, Kind::Dct2);
        dispatched.execute(&mut b, Kind::Dct2, Kind::Dct2);
        for i in 0..a.len() {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "elem {i}");
        }
    }
}
