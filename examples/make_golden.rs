//! Carries the golden-snapshot corpus under `tests/data/golden/` into the
//! one writable format: each committed `v2-<kind>.snap` text snapshot is
//! loaded and re-published as `v3-<kind>.snap`, and the OCuLaR one again
//! with an `f32` and an `int8` quantized copy (`v3-ocular-{f32,int8}.snap`).
//!
//! The v1/v2 text files are **frozen** — the format has no writer, and
//! this example never touches them. The v3 files are a compatibility
//! contract: `tests/golden_snapshots.rs` asserts that the text goldens
//! convert to exactly these bytes and that these bytes load and
//! re-serialise to themselves, forever. Run this only when *adding* a kind
//! (commit its v3 file), never to "refresh" existing ones.
//!
//! Run with: `cargo run --release --example make_golden`

use ocular::serve::{AnySnapshot, QuantDtype, SnapshotFormat};

fn main() {
    let dir = std::path::Path::new("tests/data/golden");
    for kind in [
        "ocular",
        "wals",
        "bpr",
        "user-knn",
        "item-knn",
        "popularity",
    ] {
        let loaded = AnySnapshot::load_path_full(&dir.join(format!("v2-{kind}.snap")))
            .unwrap_or_else(|e| panic!("load v2-{kind}.snap: {e}"));
        let publish = |name: String, snap: &AnySnapshot| {
            let path = dir.join(name);
            snap.save_path(&path, loaded.ids.as_ref(), SnapshotFormat::Binary)
                .expect("write golden");
            println!("wrote {}", path.display());
        };
        publish(format!("v3-{kind}.snap"), &loaded.snapshot);
        if let AnySnapshot::Ocular(s) = &loaded.snapshot {
            for dtype in [QuantDtype::F32, QuantDtype::I8] {
                let q = AnySnapshot::Ocular(s.clone().with_quantization(dtype));
                publish(format!("v3-ocular-{}.snap", dtype.name()), &q);
            }
        }
    }
}
