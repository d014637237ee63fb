//! Pinned training trajectory: the exact bits `fit` and `fold_in_user`
//! produce on a small fixed problem. The factor hashes were recorded on the
//! commit *before* the line search learned to reject failing trials early;
//! the screened search claims to change no accepted step, so every factor
//! must still hash to these constants — a tolerance here would hide exactly
//! the bug the claim rules out. The objective-trace hashes were re-recorded
//! once, when each sweep's `Q` became the sum of the user half's row
//! objectives: the same value, added in user order.
//!
//! The hashes cover `exp_m1`/`ln` results, so they are pinned to the
//! platform libm the rest of the golden corpus is pinned to.
//!
//! Fold-in has its own solver (projected Newton, `ocular_core::foldin`), so
//! its pin moves with that file and the five training pins with the
//! trainer, never together.

use ocular::datasets::profiles::{b2b_like, Scale};
use ocular::prelude::*;

/// FNV-1a-64 over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    ocular::bytes::fnv1a64(&bytes)
}

fn base_cfg() -> OcularConfig {
    OcularConfig {
        k: 6,
        lambda: 1.0,
        max_iters: 6,
        tol: 0.0,
        seed: 7,
        ..Default::default()
    }
}

/// `(factors hash, objective-trace hash)` of one fit.
fn trajectory(cfg: &OcularConfig) -> (u64, u64) {
    let data = b2b_like(Scale::Factor(0.05), 7).matrix;
    let result = fit(&data, cfg);
    assert!(
        result.history.final_objective().is_finite(),
        "a non-finite trajectory pins nothing"
    );
    let factors = result
        .model
        .user_factors
        .as_slice()
        .iter()
        .chain(result.model.item_factors.as_slice())
        .copied();
    (fnv1a(factors), fnv1a(result.history.objective))
}

fn assert_pinned(name: &str, cfg: &OcularConfig, factors: u64, objective: u64) {
    let (f, o) = trajectory(cfg);
    assert_eq!(
        (f, o),
        (factors, objective),
        "{name}: got factors {f:#018x}, objective trace {o:#018x}"
    );
}

#[test]
fn default_config() {
    assert_pinned(
        "default",
        &base_cfg(),
        0xcf34_6ed7_9c94_a95d,
        0x6b18_e826_cf18_7a86,
    );
}

#[test]
fn relative_weighting() {
    let cfg = OcularConfig {
        weighting: Weighting::Relative,
        ..base_cfg()
    };
    assert_pinned(
        "relative",
        &cfg,
        0x9931_6657_efa8_8753,
        0x66b4_de3a_43cb_a71a,
    );
}

#[test]
fn bias_extension() {
    let cfg = OcularConfig {
        bias: true,
        ..base_cfg()
    };
    assert_pinned("bias", &cfg, 0xeead_74d5_0043_2bd1, 0x05f2_edb4_ce19_8af5);
}

#[test]
fn three_inner_steps() {
    let cfg = OcularConfig {
        inner_steps: 3,
        ..base_cfg()
    };
    assert_pinned(
        "inner_steps=3",
        &cfg,
        0x80af_3e89_bed5_31f9,
        0x4012_bc42_88a8_6a87,
    );
}

#[test]
fn fixed_step_ablation() {
    let cfg = OcularConfig {
        line_search: false,
        fixed_step: 0.002,
        ..base_cfg()
    };
    assert_pinned(
        "line_search=false",
        &cfg,
        0x5d1e_cca2_5b0c_64b9,
        0x9582_f120_6639_108b,
    );
}

#[test]
fn fold_in() {
    let cfg = base_cfg();
    let data = b2b_like(Scale::Factor(0.05), 7).matrix;
    let model = fit(&data, &cfg).model;
    let fold = fold_in_user(&model, &[3, 17, 42, 108, 250], &cfg, 1.0, 100);
    let got = (
        fnv1a(fold.factors.iter().copied()),
        fold.objective.to_bits(),
        fold.steps,
    );
    assert_eq!(
        got,
        (0x9eb8_c28c_7fed_2a04, 0x4038_f1a0_928a_c2a5, 3),
        "fold-in: got factors {:#018x}, objective {:#018x}, steps {}",
        got.0,
        got.1,
        got.2
    );
}
