//! Golden-snapshot compatibility contract: the committed `v3-*.snap` files
//! under `tests/data/golden/` are the contract, and must keep loading, bit
//! for bit, forever —
//!
//! * every v3 file (the six model kinds + the `f32`/`int8` quantized
//!   OCuLaR ones, external id maps embedded) loads and re-serialises to
//!   its own bytes;
//! * damaged files — every strict prefix, any single substituted byte —
//!   are a typed [`OcularError::Corrupt`], never a panic; with the
//!   checksum recomputed over the damage, so the payload parsers see it,
//!   a typed error or some other well-formed file, never a panic.

use ocular::api::OcularError;
use ocular::bytes::{fnv1a64, ModelBytes};
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

fn load(bytes: &[u8]) -> Result<LoadedSnapshot, OcularError> {
    AnySnapshot::load_v3(ModelBytes::from_vec(bytes.to_vec()))
}

fn v3_bytes(loaded: &LoadedSnapshot) -> Vec<u8> {
    loaded
        .snapshot
        .to_v3_bytes(loaded.ids.as_ref(), loaded.meta.as_ref())
        .unwrap()
}

#[test]
fn quantized_v3_goldens_load_and_reserialize_bit_identically() {
    // the quantized era of the v3 container: the committed f32 and int8
    // goldens must load with their quantized sections intact and
    // re-serialise to the exact committed bytes, forever
    for tag in ["f32", "int8"] {
        let bytes = golden(&format!("v3-ocular-{tag}.snap"));
        let loaded = load(&bytes).unwrap_or_else(|e| panic!("{tag}: golden must load: {e}"));
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
        let loaded = load(&bytes).unwrap_or_else(|e| panic!("kind {kind}: golden must load: {e}"));
        assert_eq!(loaded.snapshot.kind(), kind);
        let ids = loaded.ids.as_ref().expect("golden embeds id maps");
        // the corpus generator attached user u ↔ 1000+7u, item i ↔ 500+3i
        assert_eq!(ids.users()[1], 1_007, "kind {kind}");
        assert_eq!(ids.items()[2], 506, "kind {kind}");
        assert_eq!(
            v3_bytes(&loaded),
            bytes,
            "kind {kind}: a v3 cycle must preserve the golden bit-for-bit"
        );
    }
}

#[test]
fn damaged_v3_goldens_are_typed_errors_never_panics() {
    let mut names: Vec<String> = KINDS.iter().map(|k| format!("v3-{k}.snap")).collect();
    names.extend(["v3-ocular-f32.snap".into(), "v3-ocular-int8.snap".into()]);
    for name in names {
        let bytes = golden(&name);
        let corrupt = |damaged: &[u8]| matches!(load(damaged), Err(OcularError::Corrupt(_)));
        // every strict prefix is a truncated file
        for keep in 0..bytes.len() {
            assert!(
                corrupt(&bytes[..keep]),
                "{name}: the first {keep} bytes must be corrupt"
            );
        }
        let len = bytes.len();
        for pos in 0..len {
            // a substituted byte anywhere fails the checksum
            let mut damaged = bytes.clone();
            damaged[pos] ^= [0x01, 0x80, 0xff][pos % 3];
            assert!(corrupt(&damaged), "{name}: byte {pos} substituted");
            // and under a checksum recomputed to match, the payload
            // readers see it: a typed error or some other well-formed
            // file, never a panic or an abort
            let checksum = fnv1a64(&damaged[..len - 8]);
            damaged[len - 8..].copy_from_slice(&checksum.to_le_bytes());
            let _ = load(&damaged);
        }
    }
}
