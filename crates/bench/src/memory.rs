//! Device-memory footprint model (Section VI-A, "Memory").
//!
//! *"The memory footprint of the GPU-based OCuLaR implementation scales as
//! `O(max(|{(u,i): r_ui=1}|, n_u·K, n_i·K))` … around 2.7 GB of GPU memory
//! is required to train on the Netflix dataset (assuming K = 200)"* —
//! comfortably inside a 12 GB device, in contrast to the ALS-on-GPU attempt
//! of Tan et al. that exceeded 12 GB at the equivalent of K = 100.
//!
//! `figure8` prints this model for its own run and for the paper's worked
//! example.

/// Byte-level accounting of the device-resident training state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Number of positive examples.
    pub nnz: usize,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of co-clusters `K`.
    pub k: usize,
    /// Bytes per factor scalar (the paper's GPU kernels use `f32`; this
    /// reproduction's trainer uses `f64`).
    pub bytes_per_scalar: usize,
}

impl MemoryModel {
    /// The paper's GPU precision (f32).
    pub fn gpu_f32(nnz: usize, n_users: usize, n_items: usize, k: usize) -> Self {
        MemoryModel {
            nnz,
            n_users,
            n_items,
            k,
            bytes_per_scalar: 4,
        }
    }

    /// The host trainer's precision (f64).
    pub fn host_f64(nnz: usize, n_users: usize, n_items: usize, k: usize) -> Self {
        MemoryModel {
            nnz,
            n_users,
            n_items,
            k,
            bytes_per_scalar: 8,
        }
    }

    /// Sparse training data in CSR + COO form: row pointers, column
    /// indices, and the per-rating (u, i) work list the kernel launches
    /// over (u32 each).
    pub fn training_data_bytes(&self) -> u64 {
        let csr = (self.n_users as u64 + 1) * 8 + self.nnz as u64 * 4;
        let work_list = self.nnz as u64 * 8; // (u32, u32) per positive
        csr + work_list
    }

    /// Factor matrices `F_u`, `F_i`.
    pub fn factor_bytes(&self) -> u64 {
        (self.n_users as u64 + self.n_items as u64) * self.k as u64 * self.bytes_per_scalar as u64
    }

    /// Gradient buffers (one per side, reused across half-sweeps) plus the
    /// `Σ f` constant vector.
    pub fn gradient_bytes(&self) -> u64 {
        self.factor_bytes() + self.k as u64 * self.bytes_per_scalar as u64
    }

    /// Total device-resident bytes.
    pub fn total_bytes(&self) -> u64 {
        self.training_data_bytes() + self.factor_bytes() + self.gradient_bytes()
    }

    /// Whether the model fits a device with `device_gb` gigabytes.
    pub fn fits_in_gb(&self, device_gb: f64) -> bool {
        (self.total_bytes() as f64) < device_gb * 1e9
    }
}

/// The paper's worked example: Netflix (≥3-star positives) at `K = 200`.
/// 100,480,507 ratings of which ≈ 56.5% are ≥ 3 stars → ≈ 56.8 M positives.
pub fn paper_netflix_example() -> MemoryModel {
    MemoryModel::gpu_f32(56_800_000, 480_189, 17_770, 200)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netflix_k200_is_gigabyte_scale_and_fits_12gb() {
        let m = paper_netflix_example();
        let gb = m.total_bytes() as f64 / 1e9;
        // the paper reports ≈ 2.7 GB; our accounting (which itemises the
        // work list and gradient buffers explicitly) must land in the same
        // ballpark and far under the 12 GB device limit
        assert!(
            (0.5..6.0).contains(&gb),
            "Netflix/K=200 footprint should be a few GB, got {gb:.2} GB"
        );
        assert!(m.fits_in_gb(12.0), "must fit an inexpensive 12 GB GPU");
    }

    #[test]
    fn users_term_dominates_netflix() {
        let m = paper_netflix_example();
        // the paper's max(nnz, n_u·K, n_i·K): n_u·K = 96 M > nnz = 56.8 M >
        // n_i·K = 3.6 M
        assert!(m.n_users * m.k > m.nnz);
        assert!(m.nnz > m.n_items * m.k);
    }

    #[test]
    fn footprint_scales_linearly_in_k() {
        let a = MemoryModel::gpu_f32(1_000_000, 10_000, 1_000, 50);
        let b = MemoryModel::gpu_f32(1_000_000, 10_000, 1_000, 100);
        let fa = a.factor_bytes();
        let fb = b.factor_bytes();
        assert_eq!(fb, 2 * fa);
        // training data unaffected by K
        assert_eq!(a.training_data_bytes(), b.training_data_bytes());
    }

    #[test]
    fn f64_doubles_factor_memory() {
        let gpu = MemoryModel::gpu_f32(1000, 100, 50, 10);
        let host = MemoryModel::host_f64(1000, 100, 50, 10);
        assert_eq!(host.factor_bytes(), 2 * gpu.factor_bytes());
    }

    #[test]
    fn contrast_with_als_attempt() {
        // Tan et al.'s ALS-on-GPU exceeded 12 GB at the equivalent of
        // K = 100 on the same dataset; the OCuLaR layout at *twice* that K
        // stays small — the comparison the paper draws
        let ocular = paper_netflix_example();
        assert!(ocular.fits_in_gb(12.0));
        assert!(ocular.total_bytes() < 12_000_000_000 / 3);
    }
}
