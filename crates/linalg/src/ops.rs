//! Vector kernels on factor rows.
//!
//! These are the innermost loops of every trainer in the workspace; they take
//! and return plain slices so callers control allocation, per the
//! reuse-buffers guidance of the performance guide.

/// Inner product `⟨a, b⟩ = Σ_c a_c b_c` — the paper's `⟨f_u, f_i⟩`.
///
/// # Panics
/// Panics (debug) on length mismatch.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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

/// Projects onto the non-negative orthant in place: `x_c ← max(0, x_c)`.
/// This is the `(·)₊` of the paper's projected gradient step.
#[inline]
pub fn project_nonneg(x: &mut [f64]) {
    for xi in x.iter_mut() {
        if *xi < 0.0 {
            *xi = 0.0;
        }
    }
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

/// Blocked inner product: partial sums over `warp`-sized chunks, then a
/// final tree fold — the shape of the paper's GPU shared-memory reduction
/// (§VI-A), kept for the kernel benches to time against [`dot`].
pub fn block_dot(a: &[f64], b: &[f64], warp: usize) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let warp = warp.max(1);
    let mut partials: Vec<f64> = a
        .chunks(warp)
        .zip(b.chunks(warp))
        .map(|(ca, cb)| dot(ca, cb))
        .collect();
    // tree reduction
    while partials.len() > 1 {
        let half = partials.len().div_ceil(2);
        for i in 0..partials.len() / 2 {
            partials[i] += partials[half + i];
        }
        partials.truncate(half);
    }
    partials.first().copied().unwrap_or(0.0)
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
    fn projection_clamps_negatives_only() {
        let mut x = vec![-1.0, 0.0, 2.5];
        project_nonneg(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.5]);
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

    #[test]
    fn block_dot_matches_dot_for_every_warp() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let b: Vec<f64> = (0..37).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        for warp in [1, 4, 32, 64] {
            assert!(
                (block_dot(&a, &b, warp) - dot(&a, &b)).abs() < 1e-9,
                "warp {warp}"
            );
        }
        assert_eq!(block_dot(&[], &[], 32), 0.0);
        // warp 0 is clamped to 1, not a division hazard
        assert_eq!(block_dot(&[2.0], &[3.0], 0), 6.0);
    }
}
