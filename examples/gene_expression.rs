//! The conclusion's "other disciplines" claim: OCuLaR as a general
//! overlapping co-clustering engine, here for gene-expression biclustering
//! (the paper cites Prelić et al.'s biclustering benchmark as a target
//! domain).
//!
//! Genes (rows) are "users", experimental conditions (columns) are
//! "items"; a positive example means "gene g is over-expressed under
//! condition c". Planted, overlapping expression modules play the role of
//! ground truth, and the model's co-clusters are scored against them.
//!
//! Run with: `cargo run --release -p ocular --example gene_expression`

use ocular::datasets::planted::{generate, PlantedConfig};
use ocular::datasets::recovery::{best_match_f1, RecoveredCluster};
use ocular::prelude::*;

fn main() {
    // 600 genes × 120 conditions, 6 overlapping expression modules (genes
    // participate in several pathways; conditions activate several modules)
    let data = generate(&PlantedConfig {
        n_users: 600,
        n_items: 120,
        k: 6,
        users_per_cluster: 140,
        items_per_cluster: 30,
        user_overlap: 0.7,
        item_overlap: 0.7,
        within_density: 0.55,
        noise_density: 0.01, // measurement noise
        seed: 21,
    });
    println!(
        "expression matrix: {} genes × {} conditions, {} over-expression calls\n",
        data.matrix.n_rows(),
        data.matrix.n_cols(),
        data.matrix.nnz()
    );

    let cfg = OcularConfig {
        k: 6,
        lambda: 0.5,
        max_iters: 80,
        seed: 2,
        ..Default::default()
    };
    let result = fit(&data.matrix, &cfg);
    println!(
        "fitted in {} sweeps; diagnostics: {}",
        result.history.iterations(),
        ocular::core::diagnose(&result.model, &data.matrix)
    );

    // relative membership threshold: with 100+ genes per module the
    // per-gene strengths are individually small, so the absolute √ln2
    // threshold would under-count the gene side: membership is judged
    // against each side's strongest member instead
    let clusters = ocular::core::coclusters::extract_coclusters_relative(&result.model, 0.3);
    println!("\nrecovered {} expression modules:", clusters.len());
    for c in &clusters {
        println!(
            "  module {}: {} genes × {} conditions (top genes: {:?})",
            c.index,
            c.users.len(),
            c.items.len(),
            &c.users[..c.users.len().min(5)]
        );
    }

    // score against planted truth
    let recovered: Vec<RecoveredCluster> = clusters
        .iter()
        .map(|c| RecoveredCluster::new(c.users.clone(), c.items.clone()))
        .collect();
    let f1 = best_match_f1(&data.truth, &recovered);
    println!("\nbest-match F1 vs planted modules: {f1:.3}");

    // overlap statistics — the property non-overlapping biclustering misses
    let multi = (0..data.matrix.n_rows())
        .filter(|&g| {
            recovered
                .iter()
                .filter(|m| m.users.binary_search(&g).is_ok())
                .count()
                > 1
        })
        .count();
    println!(
        "{} of {} genes participate in more than one recovered module",
        multi,
        data.matrix.n_rows()
    );
}
