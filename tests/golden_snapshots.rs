//! Golden-snapshot compatibility contract: the committed corpus under
//! `tests/data/golden/` must keep loading, bit for bit, forever —
//!
//! * the frozen **text** era (one v1 OCuLaR snapshot + v2 snapshots for
//!   all six model kinds, external id maps embedded; the format has no
//!   writer) converts to exactly the committed **v3** file of its kind,
//!   so every `f64` the text reader parses lands bit-exactly;
//! * every v3 file (the six kinds + the `f32`/`int8` quantized OCuLaR
//!   ones) loads and re-serialises to its own bytes;
//! * damaged text — every strict line-prefix, any single substituted
//!   byte — is a typed error (or some other well-formed file), never a
//!   panic.
//!
//! `cargo run --release --example make_golden` derives the v3 files from
//! the text ones; run it only when adding a kind.

use ocular::bytes::ModelBytes;
use ocular::serve::{AnySnapshot, LoadedSnapshot};
use std::path::PathBuf;

const KINDS: [&str; 6] = [
    "ocular",
    "wals",
    "bpr",
    "user-knn",
    "item-knn",
    "popularity",
];

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn load_text(bytes: &[u8]) -> Result<LoadedSnapshot, ocular::api::OcularError> {
    AnySnapshot::load_text(&mut &bytes[..])
}

fn v3_bytes(loaded: &LoadedSnapshot) -> Vec<u8> {
    loaded
        .snapshot
        .to_v3_bytes(loaded.ids.as_ref(), loaded.meta.as_ref())
        .unwrap()
}

#[test]
fn v2_goldens_load_and_reserialize_bit_identically_for_every_kind() {
    for kind in KINDS {
        let loaded = load_text(&golden(&format!("v2-{kind}.snap")))
            .unwrap_or_else(|e| panic!("kind {kind}: golden must load: {e}"));
        assert_eq!(loaded.snapshot.kind(), kind);
        let ids = loaded.ids.as_ref().expect("golden embeds id maps");
        // the corpus generator attached user u ↔ 1000+7u, item i ↔ 500+3i
        assert_eq!(ids.users()[1], 1_007, "kind {kind}");
        assert_eq!(ids.items()[2], 506, "kind {kind}");
        // the parsed model serialises to the exact committed v3 bytes —
        // every float of the text file landed on its bits
        assert_eq!(
            v3_bytes(&loaded),
            golden(&format!("v3-{kind}.snap")),
            "kind {kind}: text golden must convert to the v3 golden bit-identically"
        );
    }
}

#[test]
fn v1_golden_loads_through_both_loaders() {
    let bytes = golden("v1-ocular.snap");
    assert!(bytes.starts_with(b"ocular-snapshot v1\n"));
    let v1 = load_text(&bytes).expect("v1 must load");
    assert_eq!(v1.snapshot.kind(), "ocular");
    assert_eq!(v1.ids, None, "the v1 era predates id-map sections");
    // the path loader sniffs it as text
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden/v1-ocular.snap");
    let by_path = AnySnapshot::load_path_full(&path).expect("v1 must load by path");
    // v1 is the v2 body under the older header: same model, same index
    let v2 = load_text(&golden("v2-ocular.snap")).unwrap();
    for other in [&by_path, &v2] {
        match (&v1.snapshot, &other.snapshot) {
            (AnySnapshot::Ocular(a), AnySnapshot::Ocular(b)) => assert_eq!(a, b),
            _ => panic!("v1 must load as the ocular kind"),
        }
    }
}

#[test]
fn quantized_v3_goldens_load_and_reserialize_bit_identically() {
    // the quantized era of the v3 container: the committed f32 and int8
    // goldens must load with their quantized sections intact and
    // re-serialise to the exact committed bytes, forever
    for tag in ["f32", "int8"] {
        let bytes = golden(&format!("v3-ocular-{tag}.snap"));
        let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(bytes.clone()))
            .unwrap_or_else(|e| panic!("{tag}: golden must load: {e}"));
        let ids = loaded.ids.as_ref().expect("golden embeds id maps");
        assert_eq!(ids.users()[1], 1_007, "{tag}");
        assert_eq!(ids.items()[2], 506, "{tag}");
        match &loaded.snapshot {
            AnySnapshot::Ocular(s) => assert_eq!(
                s.quant.as_ref().map(|q| q.dtype().name()),
                Some(tag),
                "golden must carry its quantized section"
            ),
            AnySnapshot::Other(_) => panic!("{tag}: must load as the ocular kind"),
        }
        assert_eq!(
            v3_bytes(&loaded),
            bytes,
            "{tag}: quantized golden must re-serialise bit-identically"
        );
    }
}

#[test]
fn goldens_survive_a_binary_v3_cycle_bit_identically() {
    // every v3 golden is a fixed point of load → serialise
    for kind in KINDS {
        let bytes = golden(&format!("v3-{kind}.snap"));
        let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(bytes.clone()))
            .unwrap_or_else(|e| panic!("kind {kind}: golden must load: {e}"));
        assert_eq!(loaded.snapshot.kind(), kind);
        assert_eq!(
            v3_bytes(&loaded),
            bytes,
            "kind {kind}: a v3 cycle must preserve the golden bit-for-bit"
        );
    }
}

#[test]
fn damaged_text_goldens_are_typed_errors_never_panics() {
    let mut names: Vec<String> = KINDS.iter().map(|k| format!("v2-{k}.snap")).collect();
    names.push("v1-ocular.snap".into());
    assert!(load_text(b"junk").is_err());
    for name in names {
        let bytes = golden(&name);
        // every strict line-prefix is a truncated file
        let mut keep = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            assert!(
                load_text(&bytes[..keep]).is_err(),
                "{name}: the first {keep} bytes must not load"
            );
            keep += line.len();
        }
        // a substituted byte anywhere is a typed error or some other
        // well-formed file; it must never panic or abort
        for pos in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[pos] = [b'9', b' ', b'\n', b'x', b'-'][pos % 5];
            let _ = load_text(&damaged);
        }
    }
}
