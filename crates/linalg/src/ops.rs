//! Vector kernels on factor rows.
//!
//! These are the innermost loops of every trainer in the workspace; they take
//! and return plain slices so callers control allocation, per the
//! reuse-buffers guidance of the performance guide.
//!
//! [`dot`], [`norm_sq`] and [`dot_diff`] sum strictly left to right,
//! starting from [`sum_start`]. The trainer's bit pins (its factors,
//! objective trace and step counts) depend on that order: a kernel that
//! reassociates one of these sums moves them. What may change is how many
//! *independent* sums run side by side: [`dots4`] forms four dots in one
//! pass, and [`projected_step_sums`] an Armijo trial's three sums, each to
//! the bits of the kernel it stands for.

/// Inner product `⟨a, b⟩ = Σ_c a_c b_c` — the paper's `⟨f_u, f_i⟩`.
///
/// # Panics
/// Panics (debug) on length mismatch.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The value an `f64` [`Iterator::sum`] starts from: `0.0` on older
/// toolchains, `-0.0` on newer ones. A hand-written sum that must keep the
/// bits of [`dot`] starts here; the two differ when every term is `-0.0`.
#[inline]
pub fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `[⟨a, b₀⟩, ⟨a, b₁⟩, ⟨a, b₂⟩, ⟨a, b₃⟩]` in one pass over `a` — per row,
/// the same bits as [`dot`]. Each sum runs left to right from
/// [`sum_start`]; only the four independent add chains interleave, so a
/// caller pays one chain's latency for four dots.
///
/// # Panics
/// Panics (debug) on length mismatch.
#[inline]
pub fn dots4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let n = a.len();
    debug_assert!(b.iter().all(|r| r.len() == n));
    let [b0, b1, b2, b3] = b.map(|r| &r[..n]);
    let mut s = [sum_start(); 4];
    for c in 0..n {
        let x = a[c];
        s[0] += x * b0[c];
        s[1] += x * b1[c];
        s[2] += x * b2[c];
        s[3] += x * b3[c];
    }
    s
}

/// `y += alpha * x` (BLAS axpy).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x` (copy).
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Squared Euclidean norm `‖x‖²` — the per-factor regularizer of Eq. (4).
#[inline]
pub fn norm_sq(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    norm_sq(x).sqrt()
}

/// Writes the projected gradient step `out = (x - alpha * g)₊` without
/// touching `x` (line search evaluates several candidate steps).
#[inline]
pub fn projected_step(x: &[f64], g: &[f64], alpha: f64, out: &mut [f64]) {
    debug_assert_eq!(x.len(), g.len());
    debug_assert_eq!(x.len(), out.len());
    for ((o, &xi), &gi) in out.iter_mut().zip(x).zip(g) {
        let v = xi - alpha * gi;
        *o = if v > 0.0 { v } else { 0.0 };
    }
}

/// [`projected_step`] fused with the three sums an Armijo trial reads of
/// its candidate `y = (x − αg)₊`: writes `y` into `out` and returns
/// `[⟨g, y − x⟩, ⟨y, v⟩, ‖y‖²]`, to the bits of [`dot_diff`], [`dot`] and
/// [`norm_sq`] — one pass, the three add chains side by side.
#[inline]
pub fn projected_step_sums(
    x: &[f64],
    g: &[f64],
    alpha: f64,
    v: &[f64],
    out: &mut [f64],
) -> [f64; 3] {
    let n = x.len();
    debug_assert!(g.len() == n && v.len() == n && out.len() == n);
    let (g, v, out) = (&g[..n], &v[..n], &mut out[..n]);
    let mut s = [sum_start(); 3];
    for c in 0..n {
        let step = x[c] - alpha * g[c];
        let y = if step > 0.0 { step } else { 0.0 };
        out[c] = y;
        s[0] += g[c] * (y - x[c]);
        s[1] += y * v[c];
        s[2] += y * y;
    }
    s
}

/// `Σ_c g_c (y_c - x_c)` — the Armijo decrease predictor
/// `⟨∇Q(fᵏ), fᵏ⁺¹ - fᵏ⟩` of Section IV-D.
#[inline]
pub fn dot_diff(g: &[f64], y: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(g.len(), y.len());
    debug_assert_eq!(g.len(), x.len());
    g.iter()
        .zip(y.iter().zip(x))
        .map(|(&gi, (&yi, &xi))| gi * (yi - xi))
        .sum()
}

/// Largest absolute entry.
#[inline]
pub fn max_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dots4_keeps_the_bits_of_dot() {
        // cancellation makes the summation order visible in the bits
        let a = [1.0, 1e16, -1e16, 3.0, 1e-3, -0.0, 7.0];
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|j| a.iter().map(|&v| v * (j as f64 + 0.5) - 0.25).collect())
            .collect();
        let got = dots4(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
        for (g, r) in got.iter().zip(&rows) {
            assert_eq!(g.to_bits(), dot(&a, r).to_bits());
        }
        // every term -0.0: the sign of the empty sum shows through
        let z = [-0.0, -0.0];
        let p = [1.0, 1.0];
        assert_eq!(dots4(&z, [&p; 4])[0].to_bits(), dot(&z, &p).to_bits());
        assert_eq!(dots4(&[], [&[]; 4])[0].to_bits(), dot(&[], &[]).to_bits());
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn projected_step_matches_manual() {
        let x = vec![1.0, 0.5, 0.0];
        let g = vec![10.0, -1.0, -2.0];
        let mut out = vec![0.0; 3];
        projected_step(&x, &g, 0.1, &mut out);
        assert_eq!(out, vec![0.0, 0.6, 0.2]);
    }

    #[test]
    fn dot_diff_matches_expansion() {
        let g = vec![1.0, 2.0];
        let y = vec![3.0, 1.0];
        let x = vec![1.0, 4.0];
        assert_eq!(dot_diff(&g, &y, &x), 1.0 * 2.0 + 2.0 * -3.0);
    }

    #[test]
    fn projected_step_sums_keeps_the_bits_of_the_separate_kernels() {
        let x = [1.0, 1e16, 0.0, 3.0, 1e-3, 7.0, 0.5];
        let g = [10.0, 2e15, -2.0, -1e16, 0.25, 7.0, -0.0];
        let v = [0.3, -1e16, 2.0, 1.0, 1e16, -4.0, 9.0];
        for alpha in [1.0, 0.5, 1e-3] {
            let (mut fused, mut y) = ([0.0; 7], [0.0; 7]);
            let sums = projected_step_sums(&x, &g, alpha, &v, &mut fused);
            projected_step(&x, &g, alpha, &mut y);
            assert_eq!(fused, y);
            let want = [dot_diff(&g, &y, &x), dot(&y, &v), norm_sq(&y)];
            assert_eq!(sums.map(f64::to_bits), want.map(f64::to_bits));
        }
    }

    #[test]
    fn scale_and_copy() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
        let mut y = vec![0.0, 0.0];
        copy(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn max_abs_basic() {
        assert_eq!(max_abs(&[-5.0, 2.0, 4.5]), 5.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
