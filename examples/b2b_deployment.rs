//! The Section VIII deployment scenario: a B2B recommender whose output is
//! consumed by *sales teams*, not end customers. Reproduces the Figure 10
//! artefact — a named-client rationale with a price estimate derived from
//! the co-cluster's purchase history.
//!
//! Run with: `cargo run --release --example b2b_deployment`

use ocular::datasets::profiles::{b2b_like, Scale};
use ocular::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic demo names for clients and products.
fn client_name(u: usize) -> String {
    const SECTORS: [&str; 6] = ["Airlines", "Telco", "Banking", "Retail", "Energy", "Pharma"];
    format!("{} Corp {}", SECTORS[u % SECTORS.len()], u)
}

fn product_name(i: usize) -> String {
    const LINES: [&str; 5] = [
        "Custom Cloud",
        "Analytics Suite",
        "Mainframe Care",
        "Security Ops",
        "Storage Tier",
    ];
    format!("{} v{}", LINES[i % LINES.len()], 1 + i / LINES.len())
}

/// Price estimate for a deal: historical purchases of the same product by
/// the co-cluster's clients (simulated order values), as in Figure 10's
/// "price estimate of the potential business deal".
fn price_estimate(cluster: &CoCluster, item: usize, seed: u64) -> (f64, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ item as u64);
    let deals: Vec<f64> = cluster
        .users
        .iter()
        .map(|_| 25_000.0 + rng.gen::<f64>() * 175_000.0)
        .collect();
    let mean = deals.iter().sum::<f64>() / deals.len().max(1) as f64;
    (mean, deals.len())
}

fn main() {
    // the proprietary B2B-DB stand-in: many clients, few products,
    // pronounced industry-vertical co-purchase blocks
    // (`ocular::datasets::profiles::b2b_like`)
    let data = b2b_like(Scale::Factor(0.25), 11);
    println!(
        "B2B purchase graph: {} clients × {} products, {} purchases\n",
        data.matrix.n_rows(),
        data.matrix.n_cols(),
        data.matrix.nnz()
    );

    let cfg = OcularConfig {
        k: data.truth.k(),
        lambda: 0.5,
        max_iters: 60,
        seed: 1,
        ..Default::default()
    };
    let result = fit(&data.matrix, &cfg);
    let clusters = extract_coclusters(&result.model, default_threshold());
    println!(
        "model: {} co-clusters extracted after {} sweeps\n",
        clusters.len(),
        result.history.iterations()
    );

    // pick the client with the strongest recommendation to showcase
    let (client, rec) = (0..data.matrix.n_rows())
        .filter_map(|u| {
            recommend_top_m(&result.model, &data.matrix, u, 1)
                .pop()
                .map(|r| (u, r))
        })
        .max_by(|a, b| {
            a.1.probability
                .partial_cmp(&b.1.probability)
                .expect("finite")
        })
        .expect("non-empty matrix");

    println!("=== opportunity sheet for the account team ===============================\n");
    let why = explain(&result.model, &data.matrix, &clusters, client, rec.item, 3);
    println!(
        "{}",
        why.render_with(&|u| client_name(u), &|i| product_name(i))
    );

    // Figure 10 also shows a price estimate based on the co-cluster's
    // historical purchases of the same product
    if let Some(top) = why.contributions.first() {
        if let Some(cluster) = clusters.iter().find(|c| c.index == top.cluster) {
            let (price, n) = price_estimate(cluster, rec.item, 99);
            println!(
                "estimated deal value: ${price:.0} (mean of {n} historical orders of {} within co-cluster {})",
                product_name(rec.item),
                top.cluster
            );
        }
    }
    println!("\n==========================================================================");
    println!("(sellers receive the rationale + named similar clients; B2C systems");
    println!(" must anonymise this, B2B deployments need not — Section IV-C)");
}
