//! A served int8 catalog has resident only what its requests read: a
//! mapped ≥ 48 MB snapshot answers warm requests with the quantized codes,
//! the user rows and the index in memory, not the 51 MB f64 item master.
//! The first cold request's fold-in sums that master, and only then is it
//! faulted in. One test in its own binary, because the resident set belongs
//! to the whole process and a test running beside it would move it.

#![cfg(target_os = "linux")]

use ocular_core::FactorModel;
use ocular_linalg::Matrix;
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, IndexConfig, QuantDtype, Request, ServeConfig,
    Snapshot,
};
use ocular_sparse::{CsrMatrix, Dataset};

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
fn a_mapped_int8_catalog_serves_warm_requests_without_its_f64_master() {
    // 100k items × 64 f64 item factors, four active per row: 51.2 MB
    let (users, items, k) = (256, 100_000, 64);
    let sparse = |rows: usize| {
        let values = (0..rows * k).map(|v| match (v * 7_919) % 16 {
            0 => ((v * 104_729) % 1_000) as f64 / 1_000.0,
            _ => 0.0,
        });
        Matrix::from_vec(rows, k, values.collect())
    };
    let model = FactorModel::new(sparse(users), sparse(items), false);
    let snap = AnySnapshot::Ocular(
        Snapshot::build(model, &IndexConfig::default()).with_quantization(QuantDtype::I8),
    );
    let path =
        std::env::temp_dir().join(format!("ocular-serve-memory-{}.snap", std::process::id()));
    snap.save_path_full(&path, None, None).expect("save");
    drop(snap);
    let size = std::fs::metadata(&path).expect("saved file").len();
    assert!(size >= 48 << 20, "the snapshot is only {size} bytes");
    // restart the high-water mark where the kernel allows it, so the peak
    // below is serving's, not the build's
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let (before, peak_before) = (status_kb("RssFile:"), status_kb("VmHWM:"));

    let loaded = AnySnapshot::load_path_full(&path).expect("map and load");
    let engine = EngineBuilder::from_loaded(loaded)
        .dataset(Dataset::from_matrix(CsrMatrix::empty(users, items)))
        .config(ServeConfig {
            candidates: CandidatePolicy::FullCatalog,
            ..Default::default()
        })
        .quantization(QuantDtype::I8)
        .build()
        .expect("int8 engine");
    std::fs::remove_file(&path).expect("unlink the mapped snapshot");
    for i in 0..200 {
        let served = engine.serve_one(&Request::Warm {
            user: (i * 37) % users,
            m: 10,
        });
        assert_eq!(served.expect("warm request").items.len(), 10);
    }
    let warm = status_kb("RssFile:").saturating_sub(before);
    assert!(
        warm < 20 << 10,
        "serving warm requests from a {size}-byte int8 snapshot left {warm} kB of it resident"
    );
    // the file pages plus the engine's heap: the factor-major codes (6.8 MB)
    let peak = status_kb("VmHWM:").saturating_sub(peak_before);
    assert!(peak < 32 << 10, "peak RSS rose by {peak} kB while serving");

    let cold = engine.serve_one(&Request::Cold {
        basket: vec![1, 2, 3],
        m: 10,
    });
    assert_eq!(cold.expect("cold request").items.len(), 10);
    let master = status_kb("RssFile:").saturating_sub(before + warm);
    assert!(
        master > 40 << 10,
        "the first fold-in faulted in only {master} kB: it did not sum the f64 master"
    );
}
