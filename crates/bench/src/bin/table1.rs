//! **Table I** — comparison of OCuLaR and R-OCuLaR with the baseline
//! one-class recommendation algorithms.
//!
//! Paper protocol (Section VII-B2): MAP@50 and recall@50 on Movielens,
//! CiteULike and B2B-DB, 75/25 train/test splits averaged over 10 problem
//! instances, and *"for each technique we test a number of hyper-parameters
//! and report only the best results"* — reproduced here by a small
//! per-method grid evaluated on the first instance, after which the chosen
//! configuration is applied to every instance.
//!
//! Paper result: *"Across all datasets the OCuLaR variants are either the
//! best or the second-best performing algorithm (together with wALS)"*,
//! and both beat the interpretable user-/item-based competitors.
//!
//! Usage: `cargo run -p ocular-bench --release --bin table1 --
//!   [--scale small|medium|paper] [--instances N] [--seed S] [--m M]
//!   [--no-tune] [--csv]`

use ocular_baselines::{
    BaselineConfigs, Bpr, BprConfig, ItemKnn, KnnConfig, Popularity, Recommender, UserKnn, Wals,
    WalsConfig,
};
use ocular_bench::harness::OcularRecommender;
use ocular_bench::{Args, TextTable};
use ocular_core::OcularConfig;
use ocular_datasets::profiles;
use ocular_eval::protocol::{average_reports, evaluate};
use ocular_sparse::{Dataset, Split, SplitConfig};

/// One method = a name plus a list of candidate configurations; each
/// candidate is a fit closure.
type FitFn = Box<dyn Fn(&Dataset, u64) -> Box<dyn Recommender>>;

struct Method {
    name: &'static str,
    candidates: Vec<FitFn>,
}

/// The model zoo with per-method hyper-parameter candidates. `k_hint` is
/// the planted co-cluster count of the profile (the paper grid-searches K
/// around the data's natural scale).
fn methods(k_hint: usize, tune: bool) -> Vec<Method> {
    let ks: Vec<usize> = if tune {
        vec![k_hint, k_hint * 3 / 2]
    } else {
        vec![k_hint]
    };
    let lambdas: Vec<f64> = if tune { vec![0.5, 2.0, 8.0] } else { vec![0.5] };
    let knn_ks: Vec<usize> = if tune { vec![20, 50, 150] } else { vec![50] };

    let ocular_cfgs = |weighting: ocular_core::Weighting| -> Vec<FitFn> {
        let mut v: Vec<FitFn> = Vec::new();
        for &k in &ks {
            for &lambda in &lambdas {
                v.push(Box::new(move |r, seed| {
                    let cfg = OcularConfig {
                        k,
                        lambda,
                        max_iters: 80,
                        seed,
                        weighting,
                        ..Default::default()
                    };
                    let rec = match weighting {
                        ocular_core::Weighting::Absolute => {
                            OcularRecommender::fit_absolute(r, &cfg)
                        }
                        ocular_core::Weighting::Relative => {
                            OcularRecommender::fit_relative(r, &cfg)
                        }
                    };
                    Box::new(rec) as Box<dyn Recommender>
                }));
            }
        }
        v
    };

    // each candidate varies one knob (k) on top of the zoo's seeded
    // per-model defaults, so the default hyper-parameters live in exactly
    // one place (`BaselineConfigs::seeded`)
    let mf_cfgs = |wals: bool| -> Vec<FitFn> {
        ks.iter()
            .map(|&k| -> FitFn {
                if wals {
                    Box::new(move |r, seed| {
                        let cfg = WalsConfig {
                            k,
                            ..BaselineConfigs::seeded(seed).wals
                        };
                        Box::new(Wals::fit(r, &cfg))
                    })
                } else {
                    Box::new(move |r, seed| {
                        let cfg = BprConfig {
                            k,
                            ..BaselineConfigs::seeded(seed).bpr
                        };
                        Box::new(Bpr::fit(r, &cfg))
                    })
                }
            })
            .collect()
    };

    vec![
        Method {
            name: "OCuLaR",
            candidates: ocular_cfgs(ocular_core::Weighting::Absolute),
        },
        Method {
            name: "R-OCuLaR",
            candidates: ocular_cfgs(ocular_core::Weighting::Relative),
        },
        Method {
            name: Wals::NAME,
            candidates: mf_cfgs(true),
        },
        Method {
            name: Bpr::NAME,
            candidates: mf_cfgs(false),
        },
        Method {
            name: UserKnn::NAME,
            candidates: knn_ks
                .iter()
                .map(|&k| -> FitFn {
                    Box::new(move |r, _| Box::new(UserKnn::fit(r, &KnnConfig { k })))
                })
                .collect(),
        },
        Method {
            name: ItemKnn::NAME,
            candidates: knn_ks
                .iter()
                .map(|&k| -> FitFn {
                    Box::new(move |r, _| Box::new(ItemKnn::fit(r, &KnnConfig { k })))
                })
                .collect(),
        },
        Method {
            name: Popularity::NAME,
            candidates: vec![Box::new(|r, _| Box::new(Popularity::fit(r)))],
        },
    ]
}

fn main() {
    let args = Args::parse();
    let m = args.get("m", 50usize);
    let instances = args.instances();
    let seed = args.seed();
    let scale = args.scale();
    let tune = !args.flag("no-tune");
    let datasets = vec![
        ("Movielens", profiles::movielens_like(scale, seed)),
        ("CiteULike", profiles::citeulike_like(scale, seed)),
        ("B2B-DB", profiles::b2b_like(scale, seed)),
    ];

    println!(
        "Table I — MAP@{m} and recall@{m}, {instances} instance(s), scale {scale:?}, tuning {}",
        if tune { "on" } else { "off" }
    );
    println!(
        "(synthetic stand-ins shaped like the paper's datasets — compare ordering, not absolutes)\n"
    );

    let method_names: Vec<&'static str> = methods(1, false).iter().map(|m| m.name).collect();
    let mut table = TextTable::new(
        ["dataset", "metric"]
            .into_iter()
            .map(String::from)
            .chain(method_names.iter().map(|s| s.to_string())),
    );

    for (name, data) in &datasets {
        let k_hint = data.truth.k();
        let zoo = methods(k_hint, tune);
        // hyper-parameter selection on instance 0 (the paper's
        // best-of-grid protocol)
        let select_split = Split::new(
            &data.matrix,
            &SplitConfig {
                seed,
                ..Default::default()
            },
        );
        let chosen: Vec<usize> = zoo
            .iter()
            .map(|method| {
                if method.candidates.len() == 1 {
                    return 0;
                }
                let mut best = (0usize, f64::NEG_INFINITY);
                for (ci, fit) in method.candidates.iter().enumerate() {
                    let model = fit(&select_split.train, seed);
                    let r = evaluate(model.as_ref(), &select_split.train, &select_split.test, m);
                    if r.recall > best.1 {
                        best = (ci, r.recall);
                    }
                }
                eprintln!(
                    "[table1] {name}/{}: candidate {} of {} selected",
                    method.name,
                    best.0,
                    method.candidates.len()
                );
                best.0
            })
            .collect();

        // evaluate the chosen configurations over all instances
        let mut reports: Vec<Vec<ocular_eval::EvalReport>> = vec![Vec::new(); zoo.len()];
        for inst in 0..instances {
            let split = Split::new(
                &data.matrix,
                &SplitConfig {
                    seed: seed + inst as u64,
                    ..Default::default()
                },
            );
            for (slot, method) in zoo.iter().enumerate() {
                let model = method.candidates[chosen[slot]](&split.train, seed + inst as u64);
                reports[slot].push(evaluate(model.as_ref(), &split.train, &split.test, m));
            }
        }
        let averaged: Vec<ocular_eval::EvalReport> =
            reports.iter().map(|r| average_reports(r)).collect();
        table.row(
            [name.to_string(), format!("MAP@{m}")]
                .into_iter()
                .chain(averaged.iter().map(|r| format!("{:.4}", r.map))),
        );
        table.row(
            [name.to_string(), format!("recall@{m}")]
                .into_iter()
                .chain(averaged.iter().map(|r| format!("{:.4}", r.recall))),
        );
        eprintln!(
            "[table1] {name} done ({} users evaluated)",
            averaged[0].evaluated_users
        );
    }

    println!("{}", table.render());
    if args.flag("csv") {
        println!("{}", table.to_csv());
    }

    println!("paper reference (real datasets; columns OCuLaR R-OCuLaR wALS BPR user item):");
    println!("  Movielens  MAP@50     .1809 .1805 .1513 .1434 .1639 .1329");
    println!("  Movielens  recall@50  .4021 .4086 .3982 .3587 .3757 .3238");
    println!("  CiteULike  MAP@50     .0906 .0916 .1003 .0157 .0882 .1287");
    println!("  CiteULike  recall@50  .3042 .3177 .3331 .0801 .2699 .2921");
    println!("  B2B-DB     MAP@50     .1801 .1651 .1749 .1325 .1797 .1568");
    println!("  B2B-DB     recall@50  .5240 .4780 .5283 .4407 .4995 .4840");
}
