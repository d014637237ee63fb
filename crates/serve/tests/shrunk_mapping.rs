//! A snapshot file shrunk between mapping it and loading it is a typed
//! `Corrupt` naming both lengths, never a `SIGBUS`: the load verifies its
//! checksum through `read(2)` before it reads any mapped byte. Its own
//! binary, because reading a mapped page past the end of its file kills the
//! whole process, not one test.

#![cfg(unix)]

use ocular_api::OcularError;
use ocular_bytes::ModelBytes;
use ocular_core::FactorModel;
use ocular_linalg::Matrix;
use ocular_serve::{AnySnapshot, IndexConfig, Snapshot};

#[test]
fn a_file_shrunk_under_its_mapping_is_corrupt_naming_both_lengths() {
    // 20k items × 16 factors: a 2.6 MB file, hundreds of pages
    let (items, k) = (20_000, 16);
    let factors = |rows: usize| {
        let values = (0..rows * k).map(|v| ((v * 7_919) % 13) as f64 / 13.0);
        Matrix::from_vec(rows, k, values.collect())
    };
    let snap = AnySnapshot::Ocular(Snapshot::build(
        FactorModel::new(factors(64), factors(items), false),
        &IndexConfig::default(),
    ));
    let path = std::env::temp_dir().join(format!("ocular-shrunk-{}.snap", std::process::id()));
    snap.save_path_full(&path, None, None).expect("save");
    let len = std::fs::metadata(&path).expect("saved file").len();
    assert!(len > 2 << 20, "the snapshot is only {len} bytes");
    for keep in [len / 2, 0, 7, 4096, len - 4096, len - 8, len - 1] {
        snap.save_path_full(&path, None, None).expect("save");
        let region = ModelBytes::map_file(&path).expect("map");
        assert!(region.is_mapped(), "a unix target maps the file");
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(keep))
            .expect("truncate");
        match AnySnapshot::load_v3(region) {
            Err(OcularError::Corrupt(msg)) => assert!(
                msg.contains(&format!("is {keep} bytes")) && msg.contains(&format!("was {len}")),
                "kept {keep} of {len} bytes: {msg}"
            ),
            Err(other) => panic!("kept {keep} of {len} bytes: {other}"),
            Ok(_) => panic!("kept {keep} of {len} bytes and it loaded"),
        }
    }
    std::fs::remove_file(&path).expect("remove the snapshot");
}
