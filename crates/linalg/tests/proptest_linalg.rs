//! Property tests for the dense linear-algebra substrate.

use ocular_linalg::{ops, Cholesky, KernelLevel, Matrix, QuantDtype, QuantizedFactors};
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1usize..max_dim, 1usize..max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// SPD matrices built as `BᵀB + εI`.
fn arb_spd(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (2usize..max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-3.0f64..3.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data);
            let mut a = b.transpose().matmul(&b);
            for i in 0..n {
                a[(i, i)] += 0.5;
            }
            a
        })
    })
}

proptest! {
    #[test]
    fn transpose_involution(m in arb_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gram_is_symmetric_psd_diag(m in arb_matrix(8)) {
        let g = m.gram();
        for i in 0..g.rows() {
            prop_assert!(g[(i, i)] >= -1e-12, "diagonal of Gram must be non-negative");
            for j in 0..g.cols() {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gram_matches_matmul(m in arb_matrix(7)) {
        let g = m.gram();
        let explicit = m.transpose().matmul(&m);
        prop_assert!(g.max_abs_diff(&explicit) < 1e-8);
    }

    #[test]
    fn column_sums_match_ones_vector(m in arb_matrix(8)) {
        let sums = m.column_sums();
        for j in 0..m.cols() {
            let manual: f64 = (0..m.rows()).map(|i| m[(i, j)]).sum();
            prop_assert!((sums[j] - manual).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_reconstructs(a in arb_spd(7)) {
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        prop_assert!(recon.max_abs_diff(&a) < 1e-6 * (1.0 + a.frobenius_sq()));
    }

    #[test]
    fn cholesky_solves(a in arb_spd(7), seed in any::<u64>()) {
        let n = a.rows();
        // deterministic pseudo-rhs from the seed
        let b: Vec<f64> = (0..n).map(|i| {
            let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        }).collect();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
            prop_assert!((ax - b[i]).abs() < 1e-5, "residual too large at {}", i);
        }
    }

    #[test]
    fn projected_step_nonnegative(x in proptest::collection::vec(-5.0f64..5.0, 1..20),
                                  g in proptest::collection::vec(-5.0f64..5.0, 1..20),
                                  alpha in 0.0f64..3.0) {
        let n = x.len().min(g.len());
        let mut out = vec![0.0; n];
        ops::projected_step(&x[..n], &g[..n], alpha, &mut out);
        prop_assert!(out.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn dot_cauchy_schwarz(a in proptest::collection::vec(-5.0f64..5.0, 1..20)) {
        let d = ops::dot(&a, &a);
        prop_assert!(d >= 0.0);
        prop_assert!((d.sqrt() - ops::norm(&a)).abs() < 1e-9);
    }

    #[test]
    fn block_dot_matches_dot(a in proptest::collection::vec(-5.0f64..5.0, 0..64),
                             b in proptest::collection::vec(-5.0f64..5.0, 0..64),
                             warp in 0usize..70) {
        let n = a.len().min(b.len());
        let exact = ops::dot(&a[..n], &b[..n]);
        prop_assert!((ops::block_dot(&a[..n], &b[..n], warp) - exact).abs() < 1e-9);
    }

    /// f32 quantization is plain rounding: the per-element round-trip
    /// error is bounded by one f32 ulp of the value (relative 2⁻²³, with
    /// an absolute floor for subnormals).
    #[test]
    fn f32_quantize_dequantize_error_is_one_ulp(m in arb_matrix(10)) {
        let q = QuantizedFactors::quantize(&m, QuantDtype::F32);
        let mut row = vec![0.0; m.cols()];
        for r in 0..m.rows() {
            q.dequantize_row(r, &mut row);
            for (c, (&got, &want)) in row.iter().zip(m.row(r)).enumerate() {
                let bound = want.abs() * 1.2e-7 + 1e-37;
                prop_assert!(
                    (got - want).abs() <= bound,
                    "row {}, col {}: |{} - {}| > {}", r, c, got, want, bound
                );
            }
        }
    }

    /// int8 per-row affine quantization: the round-trip error is bounded
    /// by half a quantization step, `range / (2·254)`, plus f32 rounding
    /// of the row parameters.
    #[test]
    fn i8_quantize_dequantize_error_is_half_a_step(m in arb_matrix(10)) {
        let q = QuantizedFactors::quantize(&m, QuantDtype::I8);
        let mut row = vec![0.0; m.cols()];
        for r in 0..m.rows() {
            let (mn, mx) = m.row(r).iter().fold(
                (f64::INFINITY, f64::NEG_INFINITY),
                |(lo, hi), &v| (lo.min(v), hi.max(v)),
            );
            let range = mx - mn;
            // half a step, plus slack for the f32-stored scale/zero-point
            let bound = range / (2.0 * 254.0) + 1.2e-7 * (mn.abs().max(mx.abs()) + range) + 1e-30;
            q.dequantize_row(r, &mut row);
            for (c, (&got, &want)) in row.iter().zip(m.row(r)).enumerate() {
                prop_assert!(
                    (got - want).abs() <= bound,
                    "row {}, col {}: |{} - {}| > {}", r, c, got, want, bound
                );
            }
        }
    }

    /// Kernel consistency under quantization: for both dtypes, blocked
    /// scores stay within the analytic error envelope of the exact f64
    /// dot. Writing `u = û + εu`, `v = v̂ + εv` (hatted = quantized),
    /// `|⟨û, v̂⟩ − ⟨u, v⟩| ≤ Σ |u||εv| + |v||εu| + |εu||εv|`, with per-
    /// element ε bounded by half a quantization step (f32: one ulp).
    #[test]
    fn quantized_scores_stay_within_the_analytic_error_envelope(
        m in arb_matrix(9), row in 0usize..8) {
        let user = m.row(row % m.rows()).to_vec();
        let k = m.cols() as f64;
        let max_abs_user = ops::max_abs(&user);
        let step = |r: &[f64]| {
            let (mn, mx) = r.iter().fold(
                (f64::INFINITY, f64::NEG_INFINITY),
                |(lo, hi), &v| (lo.min(v), hi.max(v)),
            );
            (mx - mn) / 254.0
        };
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let q = QuantizedFactors::quantize(&m, dtype);
            let prepared = q.prepare(&user);
            let mut out = vec![0.0; m.rows()];
            q.score_block(&prepared, 0, &mut out);
            for i in 0..m.rows() {
                let item = m.row(i);
                let exact = ops::dot(&user, item);
                let max_abs_item = ops::max_abs(item);
                // per-element quantization error for each operand
                let (eu, ev) = match dtype {
                    QuantDtype::F32 => (1.2e-7 * max_abs_user, 1.2e-7 * max_abs_item),
                    // half a step plus f32 rounding of the row's scale
                    // and zero-point (each bounded by ~2 ulp of max|v|)
                    QuantDtype::I8 => (
                        0.5 * step(&user) + 5e-7 * max_abs_user,
                        0.5 * step(item) + 5e-7 * max_abs_item,
                    ),
                };
                let bound = k * (max_abs_user * ev + max_abs_item * eu + eu * ev) + 1e-9;
                prop_assert!(
                    (out[i] - exact).abs() <= bound,
                    "{} item {}: |{} - {}| > {}", dtype, i, out[i], exact, bound
                );
            }
        }
    }

    /// Every kernel level writes the bits the baseline writes, for both
    /// dtypes, at every tail length of the unrolled dots (K up to 130
    /// covers each remainder of the 8- and 32-lane loops after 0–4 full
    /// chunks), from any `first` offset, through partial first and last
    /// tiles. A box without a second level has nothing to compare.
    #[test]
    fn kernel_levels_write_bit_equal_scores(
        (k, rows) in (1usize..=130, 1usize..=150),
        values in proptest::collection::vec(0.0f64..4.0, 151 * 130),
        first_frac in 0.0f64..1.0,
        len_frac in 0.0f64..=1.0,
    ) {
        let levels: Vec<KernelLevel> = KernelLevel::available().collect();
        if levels.len() < 2 {
            eprintln!("kernel_levels_write_bit_equal_scores: skipped, only {} here", levels[0]);
            return Ok(());
        }
        let items = Matrix::from_vec(rows, k, values[..rows * k].to_vec());
        let user = &values[rows * k..(rows + 1) * k];
        let first = (first_frac * rows as f64) as usize;
        let len = (len_frac * (rows - first) as f64).round() as usize;
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let q = QuantizedFactors::quantize(&items, dtype);
            let prepared = q.prepare(user);
            let score = |level: KernelLevel| {
                let mut out = vec![f64::NAN; len];
                let q = q.clone().with_kernel_level(level);
                q.score_block(&prepared, first, &mut out);
                out.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
            };
            let baseline = score(KernelLevel::Baseline);
            for &level in &levels[1..] {
                prop_assert_eq!(
                    &score(level), &baseline,
                    "{} {} k={} rows {}..{}", dtype, level, k, first, first + len
                );
            }
        }
    }
    /// The sparse-query arm (factor-major copy attached) writes the bits
    /// the row-major kernel writes, at every level: any K and tail length,
    /// one to several tiles, ragged first and last tiles, user rows from
    /// all-zero through `K/2 + 1` off-base codes (both sides of the
    /// dispatch rule), constant rows (unit scale, every code 0), negative
    /// entries, and ties for the most frequent code.
    #[test]
    fn sparse_arm_writes_the_row_major_bits(
        (k, rows) in (1usize..=130, 1usize..=150),
        tiles in 0usize..3,
        values in proptest::collection::vec(-1.0f64..4.0, 130),
        seed in any::<u64>(),
        shape in 0usize..5,
        active_frac in 0.0f64..=1.0,
        first_frac in 0.0f64..1.0,
        len_frac in 0.0f64..=1.0,
    ) {
        // one case in three runs several tiles long
        let rows = if tiles == 0 { rows + 400 } else { rows };
        // sparse non-negative item rows, as trained factors are; the codes
        // are what matters, and the sum check sees every one of them
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut items = Matrix::zeros(rows, k);
        for r in 0..rows {
            for _ in 0..1 + next() % 4 {
                items.row_mut(r)[(next() % k as u64) as usize] += (next() % 1000) as f64 / 250.0;
            }
        }
        let active = (active_frac * (k / 2 + 1) as f64) as usize;
        let mut user = vec![0.0; k];
        match shape {
            // all-zero, and constant: both quantize to all-zero codes
            0 => {}
            1 => user.fill(values[0]),
            // two codes, each on half the columns: a tie for the base
            2 => user.iter_mut().step_by(2).for_each(|u| *u = 1.0),
            // `active` entries (negative ones included) off a zero row
            _ => user.iter_mut().zip(&values).take(active).for_each(|(u, &v)| *u = v),
        }
        let first = (first_frac * rows as f64) as usize;
        let len = (len_frac * (rows - first) as f64).round() as usize;
        let row_major = QuantizedFactors::quantize(&items, QuantDtype::I8);
        let sparse = row_major.clone().with_factor_major().unwrap();
        let prepared = row_major.prepare(&user);
        prop_assert_eq!(
            sparse.scans_sparse(&prepared, len),
            3 * prepared.active_codes() <= k && len >= 64
        );
        let score = |q: &QuantizedFactors, level: KernelLevel| {
            let mut out = vec![f64::NAN; len];
            let q = q.clone().with_kernel_level(level);
            q.score_block(&prepared, first, &mut out);
            out.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
        };
        let want = score(&row_major, KernelLevel::Baseline);
        for level in KernelLevel::available() {
            prop_assert_eq!(
                &score(&sparse, level), &want,
                "{} k={} |A|={} rows {}..{}", level, k, prepared.active_codes(), first, first + len
            );
        }
    }
}
