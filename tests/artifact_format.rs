//! Property tests for the MAF2 binary artifact container (DESIGN.md §13).
//!
//! These contracts are pinned here, across materialization seeds and
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
//! 5. **The byte path is pinned** — a restore from MAF2 bytes runs the
//!    same simulated cold start as one from the same artifacts in memory,
//!    and its fallbacks under every binary fault shape (strategy, reason,
//!    detail, telemetry export) match the values recorded when the test
//!    was written.

use medusa::{
    encode_maf2_bundle, is_maf2, materialize_offline, ArtifactValidator, ChunkStore, ColdStart,
    FaultKind, FaultPlan, Maf2Reader, MaterializedState, SectionKind, Strategy, TpArtifacts,
    ValidationCheck, ARTIFACT_VERSION,
};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_telemetry::export::{chrome, prometheus};
use medusa_telemetry::Registry;
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

/// The three `perfbench` restore targets: `(model, tp)`.
const BYTE_PATH_TARGETS: [(&str, u32); 3] =
    [("Qwen1.5-0.5B", 1), ("Llama2-7B", 1), ("Qwen1.5-0.5B", 2)];

/// A Medusa restore from MAF2 bytes and one from the same artifacts in
/// memory run the same simulated cold start, for every restore target.
#[test]
fn byte_path_matches_in_memory_artifacts_for_every_target() {
    for (name, tp) in BYTE_PATH_TARGETS {
        let spec = ModelSpec::by_name(name).expect("catalog model");
        let (arts, _) = ColdStart::new(&spec)
            .tp(tp)
            .materialize(23)
            .expect("offline phase");
        let bytes = arts.to_maf2().expect("encode");
        let run = |from_bytes: bool| {
            let b = ColdStart::new(&spec)
                .strategy(Strategy::Medusa)
                .warm(true)
                .seed(31);
            let b = if from_bytes {
                b.tp(tp).artifact_bytes(&bytes)
            } else {
                b.artifacts(&arts)
            };
            b.run().expect("cold start")
        };
        let (from_bytes, in_memory) = (run(true), run(false));
        assert_eq!(
            from_bytes.summary_json(),
            in_memory.summary_json(),
            "{name} tp={tp}"
        );
        assert_eq!(from_bytes.loading(), in_memory.loading(), "{name} tp={tp}");
        assert_eq!(from_bytes.total(), in_memory.total(), "{name} tp={tp}");
        assert!(from_bytes.fallback().is_none(), "{name} tp={tp}");
    }
}

/// Which branch of [`FaultPlan::apply_to_maf2`] produced `bad` from
/// `good`, read off the bytes.
fn maf2_fault_shape(good: &[u8], bad: &[u8]) -> &'static str {
    if bad.len() < good.len() {
        return if bad.len() < 64 {
            "truncate_header"
        } else if bad.len() + 32 >= good.len() {
            "truncate_tail"
        } else {
            "truncate_payload"
        };
    }
    let index_off = u64::from_le_bytes(good[40..48].try_into().unwrap()) as usize;
    let diffs: Vec<usize> = (0..good.len()).filter(|&i| good[i] != bad[i]).collect();
    match diffs.as_slice() {
        [i] if *i < index_off => "payload_flip",
        [i] if (*i - index_off) % 32 == 24 => "digest_flip",
        _ => "offset_out_of_bounds",
    }
}

/// `bytes` with byte `at` of `rank`'s `kind` section flipped; with
/// `reseal`, the section digest, the header's digest fold and the index
/// digest are recomputed so that only the shard's sealed content checksum
/// can tell.
fn tamper_rank_section(
    bytes: &[u8],
    rank: u32,
    kind: SectionKind,
    at: usize,
    reseal: bool,
) -> Vec<u8> {
    let extents = Maf2Reader::open(bytes).expect("open").section_extents();
    let (i, e) = extents
        .iter()
        .enumerate()
        .find(|(_, e)| e.kind == kind && e.shard == rank)
        .expect("section present");
    let mut out = bytes.to_vec();
    let (off, len) = (e.offset as usize, e.len as usize);
    out[off + at] ^= 0x04;
    if reseal {
        let index_off = u64::from_le_bytes(out[40..48].try_into().unwrap()) as usize;
        let digest = fnv1a(&[&out[off..off + len]]);
        let at = index_off + i * 32 + 24;
        out[at..at + 8].copy_from_slice(&digest.to_le_bytes());
        let digests: Vec<u8> = (0..extents.len())
            .flat_map(|k| out[index_off + k * 32 + 24..index_off + k * 32 + 32].to_vec())
            .collect();
        let fold = fnv1a(&[&digests]);
        out[48..56].copy_from_slice(&fold.to_le_bytes());
        out = with_version(&out, ARTIFACT_VERSION);
    }
    out
}

/// The byte-path fault matrix, pinned: for every branch of
/// [`FaultPlan::apply_to_maf2`], a version skew and a missing library at
/// tp 1 and 2, plus tp=2 bundles where only a section of rank 1 is
/// tampered (its Graphs, caught by the section digest, or its first replay
/// op's size, resealed and caught by the sealed content checksum), the
/// cold start's strategy, fallback reason and
/// detail, and a digest of its telemetry export.
#[test]
fn byte_path_fault_matrix_is_pinned() {
    let spec = spec();
    let mut got = Vec::new();
    for tp in [1u32, 2] {
        let (arts, _) = ColdStart::new(&spec)
            .tp(tp)
            .materialize(29)
            .expect("offline phase");
        let good = arts.to_maf2().expect("encode");
        let mut cases: Vec<(String, Vec<u8>, Option<FaultPlan>)> = Vec::new();
        for (kind, shapes) in [
            (
                FaultKind::CorruptArtifact,
                &["payload_flip", "digest_flip", "offset_out_of_bounds"][..],
            ),
            (
                FaultKind::TruncatedWeights,
                &["truncate_header", "truncate_tail", "truncate_payload"][..],
            ),
        ] {
            for &shape in shapes {
                let seed = (0u64..)
                    .find(|&s| {
                        maf2_fault_shape(&good, &FaultPlan::single(kind, s).apply_to_maf2(&good))
                            == shape
                    })
                    .expect("every branch is reachable");
                cases.push((
                    format!("tp{tp}/{shape}/seed{seed}"),
                    good.clone(),
                    Some(FaultPlan::single(kind, seed)),
                ));
            }
        }
        cases.push((
            format!("tp{tp}/version_skew"),
            good.clone(),
            Some(FaultPlan::single(FaultKind::VersionSkew, 5)),
        ));
        let ghost: Vec<MaterializedState> = arts
            .iter()
            .map(|a| FaultPlan::single(FaultKind::MissingLibrary, 5).apply_to_artifact(a))
            .collect();
        let ghost_refs: Vec<&MaterializedState> = ghost.iter().collect();
        cases.push((
            format!("tp{tp}/missing_library"),
            encode_maf2_bundle(&ghost_refs).expect("encode"),
            None,
        ));
        if tp == 2 {
            let graphs_len = Maf2Reader::open(&good)
                .expect("open")
                .section_extents()
                .iter()
                .find(|e| e.kind == SectionKind::Graphs && e.shard == 1)
                .expect("rank 1 graphs")
                .len as usize;
            cases.push((
                "tp2/rank1_graphs_flip".to_string(),
                tamper_rank_section(&good, 1, SectionKind::Graphs, graphs_len / 2, false),
                None,
            ));
            cases.push((
                "tp2/rank1_replay_flip_resealed".to_string(),
                tamper_rank_section(&good, 1, SectionKind::Replay, 8, true),
                None,
            ));
        }
        for (case, bytes, plan) in cases {
            let tele = Registry::new();
            let b = ColdStart::new(&spec)
                .strategy(Strategy::Medusa)
                .tp(tp)
                .warm(true)
                .seed(37)
                .artifact_bytes(&bytes)
                .telemetry(&tele);
            let b = match plan {
                Some(p) => b.faults(p),
                None => b,
            };
            let out = b.run().unwrap_or_else(|e| panic!("{case}: {e}"));
            let (reason, detail) = out
                .fallback()
                .map_or(("none", String::new()), |f| (f.reason, f.detail.clone()));
            let snap = tele.snapshot();
            let tele_digest = fnv1a(&[
                prometheus::render(&snap).as_bytes(),
                chrome::render(&snap).as_bytes(),
            ]);
            got.push(format!(
                "{case} | {} | {reason} | {detail} | {tele_digest:016x}",
                out.strategy_used()
            ));
        }
    }
    let want: &[&str] = &[
        "tp1/payload_flip/seed1 | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x48c733674eea3622, recomputed 0x99844cfdcb013742 | 9d3a1545baa67edd",
        "tp1/digest_flip/seed0 | vLLM | checksum_mismatch | artifact checksum mismatch: sealed 0x781deac215624f8b, recomputed 0x46b8f292c39b1bbe | 221bd89b02a8371b",
        "tp1/offset_out_of_bounds/seed2 | vLLM | artifact_corrupt | artifact corrupt: index entry 3 (Labels shard 0) [2041303, +3728) is out of bounds | 65ac75eca150d4bd",
        "tp1/truncate_header/seed0 | vLLM | artifact_corrupt | artifact corrupt: truncated: 10 bytes < 64-byte header | 65ac75eca150d4bd",
        "tp1/truncate_tail/seed2 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 2040464 bytes, have 2040441 | 65ac75eca150d4bd",
        "tp1/truncate_payload/seed1 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 2040464 bytes, have 189209 | 65ac75eca150d4bd",
        "tp1/version_skew | vLLM | artifact_corrupt | artifact validation (format_version): artifact corrupt: format version 6 != supported 3 | d65ab5ccdc7cb1e7",
        "tp1/missing_library | vLLM | kernel_unresolved | artifact validation (kernel_table): kernel `rotary_embedding_neox_f16` of `libghost-5.so.0` could not be resolved online | aeb58af1b1fd95ab",
        "tp2/payload_flip/seed1 | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x6c74b1bc3cd905fe, recomputed 0x46095021abeb9d9e | 8d668076f958a76a",
        "tp2/digest_flip/seed0 | vLLM | checksum_mismatch | artifact checksum mismatch: sealed 0xc941db4281c1dd17, recomputed 0x54f27d1aeb08c6b6 | 04af42c641b321f8",
        "tp2/offset_out_of_bounds/seed2 | vLLM | artifact_corrupt | artifact corrupt: index entry 11 (Labels shard 1) [4565625, +3728) is out of bounds | c5ee0651f8c3b216",
        "tp2/truncate_header/seed0 | vLLM | artifact_corrupt | artifact corrupt: truncated: 10 bytes < 64-byte header | c5ee0651f8c3b216",
        "tp2/truncate_tail/seed2 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 4564786 bytes, have 4564763 | c5ee0651f8c3b216",
        "tp2/truncate_payload/seed1 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 4564786 bytes, have 423213 | c5ee0651f8c3b216",
        "tp2/version_skew | vLLM | artifact_corrupt | artifact validation (format_version): artifact corrupt: format version 6 != supported 3 | 4069229ee52005ea",
        "tp2/missing_library | vLLM | kernel_unresolved | artifact validation (kernel_table): kernel `fused_add_rms_norm_f16` of `libghost-5.so.0` could not be resolved online | 7aeb36a0997b68ec",
        "tp2/rank1_graphs_flip | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x6c74b1bc3cd905fe, recomputed 0x952691d6e2861db2 | 8d668076f958a76a",
        "tp2/rank1_replay_flip_resealed | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0xa1334784f8141659, recomputed 0x4dedf3ec080ddbed | 8d668076f958a76a",
    ];
    if got != want {
        for line in &got {
            eprintln!("        {line:?},");
        }
        panic!("byte-path fault matrix moved");
    }
}
