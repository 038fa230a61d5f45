//! Property tests for the MAF2 binary artifact container (DESIGN.md §13).
//!
//! Three contracts are pinned here, across materialization seeds and
//! tensor-parallel degrees:
//!
//! 1. **Round-trip preserves identity** — JSON → MAF2 → JSON (and the
//!    reverse) reproduces the exact [`MaterializedState`], including its
//!    sealed `content_checksum()`.
//! 2. **Canonical encoding** — re-encoding a decoded artifact is
//!    byte-identical to the original encoding for every seed; MAF2 bytes
//!    are a pure function of the artifact's content.
//! 3. **Lazy == eager** — materializing one shard on first touch yields
//!    the same state as eagerly decoding the whole bundle, while reading
//!    strictly less than `1/tp` of the file (plus the O(header + index)
//!    open cost).
//! 4. **Address-free body** — captures of one target under different
//!    process seeds differ only in their small per-shard base tables, so
//!    `n` re-materializations deduplicate to about `n`× in a chunk store,
//!    and a file of the address-carrying format version 2 is rejected
//!    with a typed error instead of being decoded.

use medusa::{
    encode_maf2_bundle, is_maf2, materialize_offline, ArtifactValidator, ChunkStore, ColdStart,
    Maf2Reader, MaterializedState, Strategy, TpArtifacts, ValidationCheck, ARTIFACT_VERSION,
};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// The offline phase dominates test time, so artifacts are materialized
/// once per `(seed, tp)` and shared across property cases.
fn single(seed: u64) -> MaterializedState {
    static POOL: OnceLock<Mutex<HashMap<u64, MaterializedState>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pool = pool.lock().expect("artifact pool");
    pool.entry(seed)
        .or_insert_with(|| {
            materialize_offline(&spec(), GpuSpec::a100_40gb(), CostModel::default(), seed)
                .expect("offline phase")
                .0
        })
        .clone()
}

fn bundle(tp: u32, seed: u64) -> TpArtifacts {
    static POOL: OnceLock<Mutex<HashMap<(u32, u64), TpArtifacts>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pool = pool.lock().expect("bundle pool");
    pool.entry((tp, seed))
        .or_insert_with(|| {
            ColdStart::new(&spec())
                .tp(tp)
                .materialize(seed)
                .expect("offline tp phase")
                .0
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// JSON → MAF2 → JSON round-trips are lossless: the restored state is
    /// structurally identical and its sealed `content_checksum()` — the
    /// fold the registry and cache key on — survives both hops.
    #[test]
    fn json_maf2_roundtrip_preserves_content_checksum(seed in 1u64..5, hops in 1usize..4) {
        let original = single(seed);
        let mut state = original.clone();
        for _ in 0..hops {
            let json = state.to_json().expect("to_json");
            let via_json = MaterializedState::from_json(&json).expect("from_json");
            let maf2 = via_json.to_maf2().expect("to_maf2");
            prop_assert!(is_maf2(&maf2));
            state = MaterializedState::from_maf2(&maf2).expect("from_maf2");
        }
        prop_assert_eq!(
            state.content_checksum(), original.content_checksum(),
            "content checksum drifted across {} encode hops", hops
        );
        prop_assert_eq!(&state, &original);
    }

    /// MAF2 is canonical: encoding the same artifact twice — and encoding
    /// its decoded copy — produces byte-identical files for every seed.
    #[test]
    fn reencode_is_byte_identical_per_seed(seed in 1u64..5) {
        let artifact = single(seed);
        let first = artifact.to_maf2().expect("encode");
        let second = artifact.to_maf2().expect("encode again");
        prop_assert_eq!(&first, &second, "same state, different bytes");
        let decoded = MaterializedState::from_maf2(&first).expect("decode");
        let third = decoded.to_maf2().expect("re-encode decoded");
        prop_assert_eq!(&first, &third, "decode/encode is not the identity");
    }

    /// Lazily materializing one shard of a bundle equals the eager parse
    /// of that shard, and touches < 1/tp of the file beyond the
    /// O(header + index) open.
    #[test]
    fn lazy_shard_restore_matches_eager_parse(tp in 2u32..5, seed in 1u64..3, pick in 0u32..64) {
        let arts = bundle(tp, seed);
        let bytes = arts.to_maf2().expect("encode bundle");
        let eager = TpArtifacts::from_maf2(&bytes).expect("eager decode");

        let reader = Maf2Reader::open(&bytes).expect("open");
        let open_bytes = reader.bytes_read();
        let rank = pick % tp;
        let lazy = reader.shard(rank).expect("lazy shard");
        prop_assert_eq!(lazy, eager.rank(rank));
        prop_assert_eq!(lazy, arts.rank(rank));
        let shard_bytes = reader.bytes_read() - open_bytes;
        prop_assert!(
            shard_bytes < bytes.len() as u64 / tp as u64 + 1,
            "rank {} read {} of {} bytes (tp {})", rank, shard_bytes, bytes.len(), tp
        );
        // A second touch is served from the cache: zero additional reads.
        let before = reader.bytes_read();
        let again = reader.shard(rank).expect("cached shard");
        prop_assert_eq!(again, lazy);
        prop_assert_eq!(reader.bytes_read(), before);
    }

    /// `encode_maf2_bundle` over explicit shard refs agrees with the
    /// [`TpArtifacts`] wrapper — one canonical bundle encoding.
    #[test]
    fn bundle_encoding_is_order_insensitive(tp in 2u32..4, seed in 1u64..3, rev in any::<bool>()) {
        let arts = bundle(tp, seed);
        let mut refs: Vec<&MaterializedState> = arts.iter().collect();
        if rev {
            refs.reverse();
        }
        let via_refs = encode_maf2_bundle(&refs).expect("encode refs");
        let via_wrapper = arts.to_maf2().expect("encode wrapper");
        prop_assert_eq!(via_refs, via_wrapper);
    }
}

/// ROADMAP item 1's oracle: `n` re-materializations of Qwen1.5-0.5B tp=1
/// under different seeds pack into one store at a dedup ratio of at
/// least `0.9·n`.
#[test]
fn rematerializations_dedup_in_one_chunk_store() {
    for n in 2..=4u64 {
        let mut store = ChunkStore::new();
        for seed in 1..=n {
            store
                .pack(&single(seed).to_maf2().expect("encode"))
                .expect("pack");
        }
        let ratio = store.dedup_stats().ratio();
        assert!(
            ratio >= 0.9 * n as f64,
            "{n} seeds dedup only {ratio:.3}x, want >= {:.1}x",
            0.9 * n as f64
        );
    }
}

/// FNV-1a 64, the MAF2 digest.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in chunks.iter().flat_map(|c| c.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `bytes` relabelled as format `version`, with the index digest resealed
/// so that the version is the only inconsistency.
fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    let le32 = |o: usize| u32::from_le_bytes(out[o..o + 4].try_into().unwrap()) as usize;
    let key_end = 64 + le32(24) + le32(28);
    let index_off = u64::from_le_bytes(out[40..48].try_into().unwrap()) as usize;
    let index_end = index_off + le32(20) * 32;
    let digest = fnv1a(&[&out[..56], &out[64..key_end], &out[index_off..index_end]]);
    out[56..64].copy_from_slice(&digest.to_le_bytes());
    out
}

/// A version-2 file carries a per-pointer offline address that this
/// decoder no longer reads: every entry point rejects it with a typed
/// error, and a cold start from it degrades to vanilla.
#[test]
fn version_2_files_are_rejected_not_misdecoded() {
    assert_eq!(ARTIFACT_VERSION, 3);
    let v2 = with_version(&single(1).to_maf2().expect("encode"), 2);

    let reader = Maf2Reader::open(&v2).expect("a version skew still opens");
    assert_eq!(reader.version(), 2);
    let err = reader.shard(0).expect_err("v2 shard must not decode");
    assert_eq!(err.kind(), "artifact_corrupt", "{err}");
    assert!(err.to_string().contains("version"), "{err}");
    assert_eq!(
        MaterializedState::from_maf2(&v2).unwrap_err().kind(),
        "artifact_corrupt"
    );

    let report = ArtifactValidator::for_target(&spec(), &GpuSpec::a100_40gb()).validate_bytes(&v2);
    let (check, err) = report.first_failure().expect("validation fails");
    assert_eq!(*check, ValidationCheck::FormatVersion, "{err}");

    let outcome = ColdStart::new(&spec())
        .strategy(Strategy::Medusa)
        .artifact_bytes(&v2)
        .seed(7)
        .run()
        .expect("degrades instead of erroring");
    assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
    assert_eq!(
        outcome.fallback().expect("fallback").reason,
        "artifact_corrupt"
    );
}
