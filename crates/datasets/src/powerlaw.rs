//! Heavy-tailed degree machinery.
//!
//! Real interaction data (MovieLens, Netflix, purchase logs) has power-law
//! item popularity and broad user-activity distributions. The planted
//! generator alone produces blocky, near-uniform degrees; this module layers
//! popularity weights on top so the synthetic stand-ins match the shape of
//! the paper's datasets: structure edges are sampled *within* co-clusters
//! proportionally to popularity, and noise edges globally.

use crate::planted::{PlantedConfig, PlantedDataset};
use ocular_sparse::{Dataset, Triplets};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of the power-law generator.
#[derive(Debug, Clone)]
pub struct PowerLawConfig {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of planted co-clusters.
    pub k: usize,
    /// Target number of positive examples (approximate; duplicates collapse).
    pub target_nnz: usize,
    /// Fraction of positives generated by co-cluster structure (the rest is
    /// popularity noise). 1.0 = pure block structure, 0.0 = pure popularity.
    pub structure_fraction: f64,
    /// Zipf exponent for item popularity (≈0.8–1.2 for media datasets).
    pub item_exponent: f64,
    /// Zipf exponent for user activity (usually smaller, ≈0.5–0.8).
    pub user_exponent: f64,
    /// Expected extra cluster memberships per user.
    pub user_overlap: f64,
    /// Expected extra cluster memberships per item.
    pub item_overlap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            n_users: 1000,
            n_items: 500,
            k: 20,
            target_nnz: 30_000,
            structure_fraction: 0.8,
            item_exponent: 1.0,
            user_exponent: 0.6,
            user_overlap: 0.8,
            item_overlap: 0.8,
            seed: 0,
        }
    }
}

/// Zipf-like weights: `w_r ∝ (r+1)^{-s}` over a random permutation of
/// entities (so popularity is not correlated with index order).
fn zipf_weights(n: usize, s: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut w = vec![0.0; n];
    for (rank, &e) in perm.iter().enumerate() {
        w[e] = 1.0 / ((rank + 1) as f64).powf(s);
    }
    let total: f64 = w.iter().sum();
    for v in w.iter_mut() {
        *v /= total;
    }
    w
}

/// Alias-free weighted sampling via cumulative sums (binary search).
struct WeightedSampler {
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    fn new(weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        WeightedSampler { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty weights");
        let x = rng.gen::<f64>() * total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(ix) => ix,
            Err(ix) => ix.min(self.cumulative.len() - 1),
        }
    }
}

/// Generates a heavy-tailed dataset with planted overlapping co-clusters.
pub fn generate(cfg: &PowerLawConfig) -> PlantedDataset {
    assert!(
        cfg.k > 0 && cfg.n_users > 0 && cfg.n_items > 0,
        "degenerate shape"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.structure_fraction),
        "structure_fraction in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let user_w = zipf_weights(cfg.n_users, cfg.user_exponent, &mut rng);
    let item_w = zipf_weights(cfg.n_items, cfg.item_exponent, &mut rng);

    // membership assignment mirrors the planted generator, but cluster sizes
    // scale with the matrix dimensions
    let users_per_cluster = (cfg.n_users as f64 * (1.0 + cfg.user_overlap) / cfg.k as f64)
        .ceil()
        .max(1.0) as usize;
    let items_per_cluster = (cfg.n_items as f64 * (1.0 + cfg.item_overlap) / cfg.k as f64)
        .ceil()
        .max(1.0) as usize;
    let helper = crate::planted::generate(&PlantedConfig {
        n_users: cfg.n_users,
        n_items: cfg.n_items,
        k: cfg.k,
        users_per_cluster: users_per_cluster.min(cfg.n_users),
        items_per_cluster: items_per_cluster.min(cfg.n_items),
        user_overlap: cfg.user_overlap,
        item_overlap: cfg.item_overlap,
        within_density: 0.0, // we sample edges ourselves below
        noise_density: 0.0,
        seed: cfg.seed.wrapping_add(1),
    });
    let truth = helper.truth;

    // per-cluster weighted samplers over member users/items
    let cluster_samplers: Vec<(WeightedSampler, WeightedSampler, &[usize], &[usize])> = truth
        .user_sets
        .iter()
        .zip(&truth.item_sets)
        .map(|(us, is)| {
            let uw: Vec<f64> = us.iter().map(|&u| user_w[u]).collect();
            let iw: Vec<f64> = is.iter().map(|&i| item_w[i]).collect();
            (
                WeightedSampler::new(&uw),
                WeightedSampler::new(&iw),
                us.as_slice(),
                is.as_slice(),
            )
        })
        .collect();
    // cluster choice weight = total member activity
    let cluster_weights: Vec<f64> = truth
        .user_sets
        .iter()
        .map(|us| us.iter().map(|&u| user_w[u]).sum())
        .collect();
    let cluster_sampler = WeightedSampler::new(&cluster_weights);
    let global_user = WeightedSampler::new(&user_w);
    let global_item = WeightedSampler::new(&item_w);

    let n_structure = (cfg.target_nnz as f64 * cfg.structure_fraction) as usize;
    let n_noise = cfg.target_nnz - n_structure;
    let mut t = Triplets::with_capacity(cfg.n_users, cfg.n_items, cfg.target_nnz);
    for _ in 0..n_structure {
        let c = cluster_sampler.sample(&mut rng);
        let (us, is, users, items) = &cluster_samplers[c];
        let u = users[us.sample(&mut rng)];
        let i = items[is.sample(&mut rng)];
        t.push(u, i).expect("in bounds");
    }
    for _ in 0..n_noise {
        let u = global_user.sample(&mut rng);
        let i = global_item.sample(&mut rng);
        t.push(u, i).expect("in bounds");
    }

    PlantedDataset {
        matrix: Dataset::from_matrix(t.into_csr()),
        truth,
        config: PlantedConfig {
            n_users: cfg.n_users,
            n_items: cfg.n_items,
            k: cfg.k,
            users_per_cluster,
            items_per_cluster,
            user_overlap: cfg.user_overlap,
            item_overlap: cfg.item_overlap,
            within_density: f64::NAN, // edges were popularity-sampled
            noise_density: f64::NAN,
            seed: cfg.seed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_sparse::stats::MatrixStats;

    #[test]
    fn target_nnz_approximately_met() {
        let cfg = PowerLawConfig {
            target_nnz: 20_000,
            ..Default::default()
        };
        let d = generate(&cfg);
        // duplicates collapse, so observed nnz is below target but close
        assert!(d.matrix.nnz() > 10_000, "nnz {}", d.matrix.nnz());
        assert!(d.matrix.nnz() <= 20_000);
    }

    #[test]
    fn heavy_tail_on_items() {
        let cfg = PowerLawConfig::default();
        let d = generate(&cfg);
        let s = MatrixStats::compute(&d.matrix);
        assert!(
            s.item_degrees.gini > 0.3,
            "item degree gini {} should reflect a heavy tail",
            s.item_degrees.gini
        );
        assert!(s.item_degrees.max > 5 * s.item_degrees.median.max(1));
    }

    #[test]
    fn deterministic() {
        let cfg = PowerLawConfig::default();
        assert_eq!(generate(&cfg).matrix, generate(&cfg).matrix);
        let other = generate(&PowerLawConfig { seed: 99, ..cfg });
        assert_ne!(generate(&cfg).matrix, other.matrix);
    }

    #[test]
    fn structure_fraction_zero_has_no_block_bias() {
        let cfg = PowerLawConfig {
            structure_fraction: 0.0,
            target_nnz: 5_000,
            ..Default::default()
        };
        let d = generate(&cfg);
        assert!(d.matrix.nnz() > 1_000);
    }

    #[test]
    fn zipf_weights_sum_to_one_and_decay() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = zipf_weights(100, 1.0, &mut rng);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(sorted[0] / sorted[99] > 50.0, "head/tail ratio too flat");
    }

    #[test]
    fn weighted_sampler_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = WeightedSampler::new(&[0.9, 0.1]);
        let hits = (0..2000).filter(|_| s.sample(&mut rng) == 0).count();
        assert!(hits > 1600 && hits < 1990, "hits {hits}");
    }
}
