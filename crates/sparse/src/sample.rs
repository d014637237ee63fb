//! Uniform sub-sampling of positive examples.
//!
//! Figure 7 of the paper measures running time per iteration on *"increasing
//! fractions of the Netflix dataset (i.e., non-zero entries), chosen
//! uniformly from the whole Netflix dataset"*. [`sample_nnz_fraction`]
//! implements exactly that operation.

use crate::CsrMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Keeps a uniformly random `fraction` of the positive examples of `r`
/// (shape preserved). The number kept is `round(fraction · nnz)` exactly,
/// via a seeded Fisher–Yates selection, so repeated calls with increasing
/// fractions produce comparable workloads.
///
/// # Panics
/// Panics if `fraction` is outside `[0, 1]`.
pub fn sample_nnz_fraction(r: &CsrMatrix, fraction: f64, seed: u64) -> CsrMatrix {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1], got {fraction}"
    );
    let nnz = r.nnz();
    let target = (fraction * nnz as f64).round() as usize;
    let mut order: Vec<usize> = (0..nnz).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut keep = vec![false; nnz];
    for &k in order.iter().take(target) {
        keep[k] = true;
    }
    r.filter_nnz(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;

    fn grid(n: usize, m: usize) -> CsrMatrix {
        let mut t = Triplets::new(n, m);
        for u in 0..n {
            for i in 0..m {
                if (u + i) % 2 == 0 {
                    t.push(u, i).unwrap();
                }
            }
        }
        t.into_csr()
    }

    #[test]
    fn exact_count() {
        let r = grid(20, 20); // 200 positives
        for &f in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let s = sample_nnz_fraction(&r, f, 42);
            assert_eq!(s.nnz(), (f * 200.0).round() as usize, "fraction {f}");
        }
    }

    #[test]
    fn sample_is_subset() {
        let r = grid(15, 15);
        let s = sample_nnz_fraction(&r, 0.4, 9);
        for (u, i) in s.iter_nnz() {
            assert!(r.contains(u, i));
        }
    }

    #[test]
    fn deterministic() {
        let r = grid(10, 10);
        let a = sample_nnz_fraction(&r, 0.5, 1);
        let b = sample_nnz_fraction(&r, 0.5, 1);
        assert_eq!(a, b);
        let c = sample_nnz_fraction(&r, 0.5, 2);
        assert_ne!(a, c);
    }
}
