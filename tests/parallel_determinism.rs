//! Guard for the trainer's determinism: per-row data parallelism must be
//! *exact* — the fitted model, and therefore every downstream metric, must
//! be bit-identical no matter how many threads run the half-sweeps and the
//! objective. This is the property that lets Figure 8-style speedups be
//! claimed without an accuracy asterisk.

use ocular::core::linesearch::SearchStats;
use ocular::datasets::planted::{generate, PlantedConfig};
use ocular::linalg::par::with_threads;
use ocular::prelude::*;

fn dataset() -> ocular::sparse::Dataset {
    generate(&PlantedConfig {
        n_users: 120,
        n_items: 80,
        k: 4,
        users_per_cluster: 36,
        items_per_cluster: 24,
        user_overlap: 0.4,
        item_overlap: 0.4,
        within_density: 0.5,
        noise_density: 0.005,
        seed: 11,
    })
    .matrix
}

#[test]
fn recall_identical_across_thread_counts() {
    let r = dataset();
    let split = Split::new(&r, &SplitConfig::default());
    let cfg = OcularConfig {
        k: 4,
        lambda: 0.3,
        max_iters: 40,
        seed: 6,
        ..Default::default()
    };

    let mut models = Vec::new();
    let mut reports = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let result = with_threads(Some(threads), || fit(&split.train, &cfg));
        let report = ocular::eval::protocol::evaluate(&result.model, &split.train, &split.test, 20);
        models.push((threads, result.model));
        reports.push((threads, report));
    }

    let (_, ref_model) = &models[0];
    let (_, ref_report) = &reports[0];
    for ((threads, model), (_, report)) in models.iter().zip(&reports).skip(1) {
        assert_eq!(
            model, ref_model,
            "{threads}-thread model must be bit-identical to the 1-thread model"
        );
        assert_eq!(
            report, ref_report,
            "{threads}-thread recall@20 must match the 1-thread run exactly"
        );
    }
    // sanity: the guarded model is actually good, not degenerately equal
    assert!(
        ref_report.recall > 0.4,
        "planted recall should be comfortably recovered: {ref_report}"
    );
}

/// The step-search telemetry is plain integer sums over rows, so it must
/// not depend on how rows were scheduled: every thread count reports what
/// fit() on one thread reports, sweep by sweep.
#[test]
fn search_counts_identical_across_thread_counts() {
    let r = dataset();
    let cfg = OcularConfig {
        k: 4,
        lambda: 0.3,
        max_iters: 12,
        tol: 0.0,
        seed: 6,
        ..Default::default()
    };
    let seq = with_threads(Some(1), || fit(&r, &cfg)).history.search;
    assert_eq!(seq.len(), 12, "one record per sweep");
    for threads in [1usize, 2, 4, 8] {
        let par = with_threads(Some(threads), || fit(&r, &cfg)).history.search;
        assert_eq!(
            par, seq,
            "{threads}-thread search counts must equal one-thread fit()'s"
        );
    }
    // the counts describe a search that actually backtracked and actually
    // skipped work, and they add up
    let mut total = SearchStats::default();
    seq.iter().for_each(|&s| total += s);
    let SearchStats {
        accepted,
        trials,
        screened,
        cut_short,
        visited,
        visited_unscreened,
    } = total;
    assert!(accepted > 0 && trials > accepted, "{total:?}");
    assert!(screened > 0 && cut_short > 0, "{total:?}");
    assert!(screened + cut_short + accepted <= trials, "{total:?}");
    assert!(visited < visited_unscreened, "{total:?}");
}
