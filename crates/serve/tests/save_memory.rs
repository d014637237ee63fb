//! A save streams the snapshot to disk: publishing a ≥ 48 MB file raises
//! the process's peak resident memory by the writer's staging chunk, not by
//! the file. One test in its own binary, because the high-water mark
//! belongs to the whole process and a test running beside it would move it.

#![cfg(target_os = "linux")]

use ocular_core::FactorModel;
use ocular_linalg::Matrix;
use ocular_serve::{AnySnapshot, IndexConfig, Snapshot};

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| {
            line.strip_prefix(field)?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

#[test]
fn saving_a_large_snapshot_does_not_hold_the_file_in_memory() {
    // 100k items × 64 f64 item factors, four active per row: 51.2 MB
    let (items, k) = (100_000, 64);
    let item_factors = (0..items * k)
        .map(|v| match (v * 7_919) % 16 {
            0 => ((v * 104_729) % 1_000) as f64 / 1_000.0,
            _ => 0.0,
        })
        .collect();
    let model = FactorModel::new(
        Matrix::from_vec(8, k, vec![0.5; 8 * k]),
        Matrix::from_vec(items, k, item_factors),
        false,
    );
    let snap = AnySnapshot::Ocular(Snapshot::build(model, &IndexConfig::default()));
    let path = std::env::temp_dir().join(format!("ocular-save-memory-{}.snap", std::process::id()));
    // restart the high-water mark at the current RSS where the kernel
    // allows it, so a transient of the build above cannot hide the save
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = status_kb("VmHWM:");
    snap.save_path_full(&path, None, None).expect("save");
    let rise = status_kb("VmHWM:") - before;
    let size = std::fs::metadata(&path).expect("saved file").len();
    std::fs::remove_file(&path).expect("remove the saved file");
    assert!(size >= 48 << 20, "the snapshot is only {size} bytes");
    assert!(
        rise < 8 << 10,
        "peak RSS rose by {rise} kB while saving a {size}-byte snapshot"
    );
}
