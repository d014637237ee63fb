//! Training configuration.

/// How the factor matrices are initialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Uniform random in `[0, init_scale)`. Simple, but with many
    /// co-clusters several dimensions race for the same strong block and
    /// weak blocks are never claimed (a poor local optimum).
    Random,
    /// Neighbourhood seeding in the spirit of BIGCLAM's locally-minimal-
    /// neighbourhood initialisation: each dimension `c` is seeded on a
    /// random user's purchase neighbourhood — the user and their items get
    /// affiliation 1 in dimension `c`, everything else starts near zero.
    /// Breaks the symmetry with actual co-purchase structure; the default.
    NeighborhoodSeeded,
}

/// Which likelihood the trainer optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Plain OCuLaR (Section IV): every positive example weighs 1.
    Absolute,
    /// R-OCuLaR (Section V): positive examples of user `u` are weighted by
    /// `w_u = |{i : r_ui = 0}| / |{i : r_ui = 1}|`, which falls out of
    /// treating positives as *relative* preferences à la BPR. Users with
    /// few positives receive large weights.
    Relative,
}

/// Hyper-parameters and solver knobs for [`crate::fit`].
///
/// The paper's two *model* hyper-parameters are `k` and `lambda`, selected
/// by cross-validated grid search (Section IV-B, Figures 6 & 9). The solver
/// knobs default to the paper's choices — in particular `inner_steps = 1`
/// ("performing only one gradient descent step significantly speeds up the
/// algorithm") and Armijo line search along the projection arc.
#[derive(Debug, Clone)]
pub struct OcularConfig {
    /// Number of co-clusters `K`.
    pub k: usize,
    /// `ℓ2` regularization strength `λ ≥ 0` (Eq. 4). The paper shows both
    /// `λ = 0` and very large `λ` hurt accuracy (Figure 6); regularization
    /// is also the key difference from BIGCLAM (Section II).
    pub lambda: f64,
    /// Maximum number of full (items + users) sweeps.
    pub max_iters: usize,
    /// Convergence tolerance: stop when the relative decrease of `Q` over
    /// one sweep falls below this ("convergence is declared if Q stops
    /// decreasing").
    pub tol: f64,
    /// Armijo sufficient-decrease constant `σ ∈ (0, 1)`.
    pub sigma: f64,
    /// Backtracking factor `β ∈ (0, 1)`; candidate steps are `β^t`.
    pub beta: f64,
    /// Maximum backtracking trials per factor update; if the Armijo test
    /// never passes the factor is left unchanged this sweep.
    pub max_backtracks: usize,
    /// Projected-gradient steps per subproblem. The paper uses 1; larger
    /// values approximate solving each subproblem exactly (the ablation of
    /// Section IV-B's discussion).
    pub inner_steps: usize,
    /// Whether to run the Armijo line search. `false` uses the fixed step
    /// `fixed_step` (ablation; may diverge for poorly scaled problems).
    pub line_search: bool,
    /// Step size used when `line_search` is off.
    pub fixed_step: f64,
    /// Factors are initialised uniformly in `[0, init_scale)`. The default
    /// (set when this is 0) is `sqrt(1/k)`, giving initial affinities around
    /// `k · init_scale²/4 ≈ 0.25`.
    pub init_scale: f64,
    /// RNG seed for factor initialisation.
    pub seed: u64,
    /// Factor initialisation strategy.
    pub init: InitStrategy,
    /// Absolute (OCuLaR) or relative (R-OCuLaR) weighting.
    pub weighting: Weighting,
    /// Enables the bias extension `P = 1 − e^{−⟨f_u,f_i⟩ − b_u − b_i}`
    /// (Section IV-A; the paper found it did not help and left it off).
    pub bias: bool,
}

impl Default for OcularConfig {
    fn default() -> Self {
        OcularConfig {
            k: 16,
            lambda: 1.0,
            max_iters: 100,
            tol: 1e-4,
            sigma: 0.1,
            beta: 0.5,
            max_backtracks: 20,
            inner_steps: 1,
            line_search: true,
            fixed_step: 0.05,
            init_scale: 0.0,
            seed: 0,
            init: InitStrategy::NeighborhoodSeeded,
            weighting: Weighting::Absolute,
            bias: false,
        }
    }
}

impl OcularConfig {
    /// The effective initialisation scale (`sqrt(1/k)` when unset).
    pub fn effective_init_scale(&self) -> f64 {
        if self.init_scale > 0.0 {
            self.init_scale
        } else {
            (1.0 / self.k.max(1) as f64).sqrt()
        }
    }

    /// Total factor dimensionality including bias columns.
    pub fn k_total(&self) -> usize {
        if self.bias {
            self.k + 2
        } else {
            self.k
        }
    }

    /// Validates parameter ranges, returning a description of the first
    /// violation. Every float must be finite: a NaN fails every comparison,
    /// so a bare `lambda < 0.0` would let it through.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(format!(
                "lambda must be finite and non-negative, got {}",
                self.lambda
            ));
        }
        for (name, value) in [
            ("tol", self.tol),
            ("fixed_step", self.fixed_step),
            ("init_scale", self.init_scale),
        ] {
            if !value.is_finite() {
                return Err(format!("{name} must be finite, got {value}"));
            }
        }
        if !(0.0..1.0).contains(&self.sigma) || self.sigma == 0.0 {
            return Err("sigma must lie in (0, 1)".into());
        }
        if !(0.0..1.0).contains(&self.beta) || self.beta == 0.0 {
            return Err("beta must lie in (0, 1)".into());
        }
        // zero trials would leave every row where it started and report
        // the first sweep's zero decrease as convergence
        if self.max_backtracks == 0 {
            return Err("max_backtracks must be positive".into());
        }
        if self.inner_steps == 0 {
            return Err("inner_steps must be positive".into());
        }
        if !self.line_search && self.fixed_step <= 0.0 {
            return Err("fixed_step must be positive when line search is off".into());
        }
        Ok(())
    }

    /// Convenience: the R-OCuLaR configuration with everything else equal.
    pub fn relative(mut self) -> Self {
        self.weighting = Weighting::Relative;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(OcularConfig::default().validate().is_ok());
    }

    #[test]
    fn default_init_scale_tracks_k() {
        let cfg = OcularConfig {
            k: 4,
            ..Default::default()
        };
        assert!((cfg.effective_init_scale() - 0.5).abs() < 1e-12);
        let explicit = OcularConfig {
            k: 4,
            init_scale: 0.1,
            ..Default::default()
        };
        assert_eq!(explicit.effective_init_scale(), 0.1);
    }

    #[test]
    fn k_total_includes_bias() {
        let cfg = OcularConfig {
            k: 5,
            bias: true,
            ..Default::default()
        };
        assert_eq!(cfg.k_total(), 7);
        let plain = OcularConfig {
            k: 5,
            ..Default::default()
        };
        assert_eq!(plain.k_total(), 5);
    }

    #[test]
    fn validation_catches_bad_ranges() {
        assert!(OcularConfig {
            k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OcularConfig {
            lambda: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OcularConfig {
            sigma: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OcularConfig {
            sigma: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OcularConfig {
            beta: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OcularConfig {
            max_backtracks: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err()
        .contains("max_backtracks"));
        assert!(OcularConfig {
            inner_steps: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OcularConfig {
            line_search: false,
            fixed_step: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_rejects_non_finite_floats() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let lambda = OcularConfig {
                lambda: bad,
                ..Default::default()
            };
            let err = lambda.validate().unwrap_err();
            assert!(err.contains("lambda"), "{err}");
            for cfg in [
                OcularConfig {
                    tol: bad,
                    ..Default::default()
                },
                OcularConfig {
                    sigma: bad,
                    ..Default::default()
                },
                OcularConfig {
                    beta: bad,
                    ..Default::default()
                },
                OcularConfig {
                    fixed_step: bad,
                    ..Default::default()
                },
                OcularConfig {
                    init_scale: bad,
                    ..Default::default()
                },
            ] {
                assert!(cfg.validate().is_err(), "{cfg:?}");
            }
        }
        // λ = 0 is legal (the paper's Figure 6 sweeps it)
        let zero = OcularConfig {
            lambda: 0.0,
            ..Default::default()
        };
        assert!(zero.validate().is_ok());
    }

    #[test]
    fn relative_builder() {
        let cfg = OcularConfig::default().relative();
        assert_eq!(cfg.weighting, Weighting::Relative);
    }
}
