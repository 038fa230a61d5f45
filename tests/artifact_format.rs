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
//!    and a file of an older format version (2, address-carrying, 3,
//!    unsealed shards, or 4, every graph stored in full) is rejected with
//!    a typed error instead of being decoded.
//! 5. **The byte path is pinned** — a restore from MAF2 bytes runs the
//!    same simulated cold start as one from the same artifacts in memory,
//!    and its fallbacks under every binary fault shape (strategy, reason,
//!    detail, telemetry export) match the values recorded when the test
//!    was written.
//! 6. **Decoded states are pinned** — each restore target decodes to the
//!    state, content checksum and JSON recorded when the test was written,
//!    whatever the format version.
//! 7. **Restored graphs are pinned** — the graphs a restore from MAF2
//!    bytes instantiates equal those of a restore from the owned specs,
//!    graph by graph, and the values recorded when the test was written.

use medusa::{
    encode_maf2_bundle, is_maf2, maf2_digest, materialize_offline, ArtifactValidator, ChunkStore,
    ColdStart, FaultKind, FaultPlan, Maf2Reader, MaterializedState, ReadyEngine, SectionExtent,
    SectionKind, Strategy, TpArtifacts, ValidationCheck, ARTIFACT_VERSION,
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

/// FNV-1a 64 over `bytes`: a hash fixed in this file, so that the pins
/// below outlive any change to the format's own digest.
fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The decoded state of every `perfbench` restore target, pinned across
/// format versions: each shard decoded from MAF2 bytes (through the view
/// and eagerly) equals the encoded one, and its content checksum, JSON
/// length and JSON fingerprint match the values recorded when the test was
/// written. The JSON is taken with `version` set to 0, the one field a
/// format bump moves on purpose.
#[test]
fn decoded_states_are_pinned_across_format_versions() {
    let mut got = Vec::new();
    for (name, tp, seed) in [
        ("Qwen1.5-0.5B", 1u32, 41u64),
        ("Qwen1.5-0.5B", 2, 43),
        ("Llama2-7B", 1, 47),
    ] {
        let spec = ModelSpec::by_name(name).expect("catalog model");
        let (arts, _) = ColdStart::new(&spec)
            .tp(tp)
            .materialize(seed)
            .expect("offline phase");
        let bytes = arts.to_maf2().expect("encode");
        let eager = TpArtifacts::from_maf2(&bytes).expect("eager decode");
        let reader = Maf2Reader::open(&bytes).expect("open");
        for rank in 0..tp {
            let decoded = eager.rank(rank);
            assert_eq!(decoded, arts.rank(rank), "{name} tp={tp} rank {rank}");
            let view = reader.view(rank).expect("view").to_state();
            assert_eq!(&view, decoded, "{name} tp={tp} rank {rank}");
            assert_eq!(decoded.version, ARTIFACT_VERSION);
            assert_eq!(decoded.content_checksum(), decoded.checksum);
            let mut unversioned = decoded.clone();
            unversioned.version = 0;
            let json = unversioned.to_json().expect("to_json");
            got.push(format!(
                "{name} tp{tp} r{rank} seed{seed} | checksum {:016x} | json {} B {:016x}",
                decoded.checksum,
                json.len(),
                fingerprint(json.as_bytes())
            ));
        }
    }
    let want: &[&str] = &[
        "Qwen1.5-0.5B tp1 r0 seed41 | checksum 832e4c986d224d55 | json 4103925 B 28828fe7a4e354f9",
        "Qwen1.5-0.5B tp2 r0 seed43 | checksum afc0d5ccd1e420a2 | json 4572016 B cf606b842c3f894a",
        "Qwen1.5-0.5B tp2 r1 seed43 | checksum ec4cee474fc11921 | json 4572016 B e365bf1c82a52fd3",
        "Llama2-7B tp1 r0 seed47 | checksum 94a3a56434aa853c | json 5622989 B 3ec0cbed40478771",
    ];
    if got != want {
        for line in &got {
            eprintln!("        {line:?},");
        }
        panic!("decoded states moved");
    }
}

/// A fingerprint of every decode graph a restore instantiated on one rank:
/// per graph its batch, per node its kernel address, work, stream and
/// parameter sizes and bytes, then its edges.
fn restored_graphs_fingerprint(engine: &ReadyEngine) -> u64 {
    let mut bytes = Vec::new();
    for (batch, exec) in &engine.graphs {
        let g = exec.graph();
        bytes.extend_from_slice(&batch.to_le_bytes());
        bytes.extend_from_slice(&(g.node_count() as u64).to_le_bytes());
        for (i, n) in g.iter().enumerate() {
            bytes.extend_from_slice(&n.kernel_addr().to_le_bytes());
            bytes.extend_from_slice(&n.work().flops.to_bits().to_le_bytes());
            bytes.extend_from_slice(&n.work().bytes.to_bits().to_le_bytes());
            bytes.extend_from_slice(&g.stream_of(i).to_le_bytes());
            let params = n.params();
            bytes.extend_from_slice(&(params.param_count() as u64).to_le_bytes());
            for p in 0..params.param_count() {
                bytes.extend_from_slice(&params.size_of(p).to_le_bytes());
            }
            bytes.extend_from_slice(params.as_bytes());
        }
        bytes.extend_from_slice(&(g.edges().len() as u64).to_le_bytes());
        for &(s, d) in g.edges() {
            bytes.extend_from_slice(&(s as u64).to_le_bytes());
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }
    fingerprint(&bytes)
}

/// One Medusa restore of `arts` at process seed `seed`, from its MAF2
/// bytes or from the artifacts in memory: the fingerprint of each rank's
/// restored graphs.
fn restored_fingerprints(
    spec: &ModelSpec,
    arts: &TpArtifacts,
    bytes: &[u8],
    seed: u64,
    from_bytes: bool,
) -> Vec<u64> {
    let b = ColdStart::new(spec)
        .strategy(Strategy::Medusa)
        .warm(true)
        .seed(seed);
    let b = if from_bytes {
        b.tp(arts.tp()).artifact_bytes(bytes)
    } else {
        b.artifacts(arts)
    };
    let out = b.run().expect("cold start");
    assert!(
        out.fallback().is_none(),
        "{}: {:?}",
        spec.name(),
        out.fallback()
    );
    assert_eq!(out.engines.len(), arts.tp() as usize);
    out.engines
        .iter()
        .map(restored_graphs_fingerprint)
        .collect()
}

/// The graphs a restore from MAF2 bytes instantiates, pinned: for every
/// `perfbench` restore target at fixed seeds, each rank's restored graphs
/// (kernel addresses, parameter bytes, work, streams and edges) equal
/// those of a restore from the same artifacts in memory and the values
/// recorded when the test was written, whatever the format version.
#[test]
fn restored_graphs_are_pinned() {
    let mut got = Vec::new();
    for (name, tp, seed) in [
        ("Qwen1.5-0.5B", 1u32, 53u64),
        ("Qwen1.5-0.5B", 2, 59),
        ("Llama2-7B", 1, 61),
    ] {
        let spec = ModelSpec::by_name(name).expect("catalog model");
        let (arts, _) = ColdStart::new(&spec)
            .tp(tp)
            .materialize(seed)
            .expect("offline phase");
        let bytes = arts.to_maf2().expect("encode");
        let from_bytes = restored_fingerprints(&spec, &arts, &bytes, seed + 1, true);
        let in_memory = restored_fingerprints(&spec, &arts, &bytes, seed + 1, false);
        assert_eq!(from_bytes, in_memory, "{name} tp={tp}");
        for (rank, f) in from_bytes.iter().enumerate() {
            got.push(format!(
                "{name} tp{tp} r{rank} seed{seed} | graphs {f:016x}"
            ));
        }
    }
    let want: &[&str] = &[
        "Qwen1.5-0.5B tp1 r0 seed53 | graphs df58da6850903712",
        "Qwen1.5-0.5B tp2 r0 seed59 | graphs a9e199616106d18e",
        "Qwen1.5-0.5B tp2 r1 seed59 | graphs d129307a1dc07404",
        "Llama2-7B tp1 r0 seed61 | graphs 1517d3e386c8553b",
    ];
    if got != want {
        for line in &got {
            eprintln!("        {line:?},");
        }
        panic!("restored graphs moved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On random seeds, both catalog models and tp 1 and 2, a restore
    /// from MAF2 bytes instantiates, graph by graph, the graphs a restore
    /// of the decoded shards' owned graph specs does.
    #[test]
    fn byte_path_restores_the_graphs_of_the_decoded_specs(
        llama in any::<bool>(),
        tp in 1u32..3,
        seed in 100u64..100_000,
    ) {
        let name = if llama { "Llama2-7B" } else { "Qwen1.5-0.5B" };
        let spec = ModelSpec::by_name(name).expect("catalog model");
        let (arts, _) = ColdStart::new(&spec)
            .tp(tp)
            .materialize(seed)
            .expect("offline phase");
        let bytes = arts.to_maf2().expect("encode");
        let decoded = TpArtifacts::from_maf2(&bytes).expect("decode");
        let run = |from_bytes: bool| {
            let b = ColdStart::new(&spec)
                .strategy(Strategy::Medusa)
                .warm(true)
                .seed(seed ^ 0x5a5a);
            let b = if from_bytes {
                b.tp(tp).artifact_bytes(&bytes)
            } else {
                b.artifacts(&decoded)
            };
            b.run().expect("cold start")
        };
        let (patched, owned) = (run(true), run(false));
        prop_assert!(patched.fallback().is_none());
        for (rank, (p, o)) in patched.engines.iter().zip(&owned.engines).enumerate() {
            prop_assert_eq!(p.graphs.len(), o.graphs.len());
            for ((pb, pg), (ob, og)) in p.graphs.iter().zip(&o.graphs) {
                prop_assert_eq!(pb, ob);
                prop_assert!(
                    pg.graph() == og.graph(),
                    "{} tp={} rank {} batch {}: restored graphs differ", name, tp, rank, pb
                );
            }
        }
    }
}

/// XXH64 (seed 0) as its specification states it, reading each lane one
/// byte at a time: the reference for [`maf2_digest`].
fn xxh64_reference(input: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let read = |at: usize, n: usize| {
        (0..n)
            .rev()
            .fold(0u64, |v, k| v << 8 | u64::from(input[at + k]))
    };
    let round = |acc: u64, lane: u64| {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let len = input.len();
    let mut i = 0;
    let mut h;
    if len >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        while i + 32 <= len {
            for (lane, acc) in v.iter_mut().enumerate() {
                *acc = round(*acc, read(i + 8 * lane, 8));
            }
            i += 32;
        }
        h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for acc in v {
            h ^= round(0, acc);
            h = h.wrapping_mul(P1).wrapping_add(P4);
        }
    } else {
        h = P5;
    }
    h = h.wrapping_add(len as u64);
    while i + 8 <= len {
        h ^= round(0, read(i, 8));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        i += 8;
    }
    if i + 4 <= len {
        h ^= read(i, 4).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        i += 4;
    }
    while i < len {
        h ^= u64::from(input[i]).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
        i += 1;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The format's digest is XXH64: its published vectors.
#[test]
fn the_digest_matches_the_published_xxh64_vectors() {
    assert_eq!(maf2_digest(b""), 0xEF46_DB37_51D8_E999);
    assert_eq!(maf2_digest(b"abc"), 0x44BC_2CF5_AD77_0999);
    assert_eq!(xxh64_reference(b""), 0xEF46_DB37_51D8_E999);
    assert_eq!(xxh64_reference(b"abc"), 0x44BC_2CF5_AD77_0999);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The word-wide digest equals the byte-at-a-time reference at every
    /// length up to 200: no stripe, one or more 32-byte stripes, and every
    /// 8-, 4- and 1-byte tail after them.
    #[test]
    fn the_digest_matches_a_byte_at_a_time_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..201),
    ) {
        prop_assert_eq!(maf2_digest(&bytes), xxh64_reference(&bytes));
    }
}

/// Little-endian `u64` at `at` of `bytes`.
fn le64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `bytes` relabelled as format `version`, with the index digest resealed
/// so that the version is the only inconsistency.
fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    let le32 = |o: usize| u32::from_le_bytes(out[o..o + 4].try_into().unwrap()) as usize;
    let key_end = 64 + le32(24) + le32(28);
    let index_off = le64(&out, 40) as usize;
    let index_end = index_off + le32(20) * 32;
    let sealed = [&out[..56], &out[64..key_end], &out[index_off..index_end]].concat();
    let digest = maf2_digest(&sealed);
    out[56..64].copy_from_slice(&digest.to_le_bytes());
    out
}

/// A file of an older format version opens, but every entry point
/// rejects it with a typed error instead of decoding it, and a cold start
/// from it degrades to vanilla.
fn assert_rejected_as_version_skew(version: u32) {
    assert_eq!(ARTIFACT_VERSION, 5);
    let old = with_version(&single(1).to_maf2().expect("encode"), version);

    let reader = Maf2Reader::open(&old).expect("a version skew still opens");
    assert_eq!(reader.version(), version);
    let err = reader.shard(0).expect_err("an old shard must not decode");
    assert_eq!(err.kind(), "artifact_corrupt", "{err}");
    assert!(err.to_string().contains("version"), "{err}");
    assert_eq!(
        MaterializedState::from_maf2(&old).unwrap_err().kind(),
        "artifact_corrupt"
    );

    let report = ArtifactValidator::for_target(&spec(), &GpuSpec::a100_40gb()).validate_bytes(&old);
    let (check, err) = report.first_failure().expect("validation fails");
    assert_eq!(*check, ValidationCheck::FormatVersion, "{err}");

    let outcome = ColdStart::new(&spec())
        .strategy(Strategy::Medusa)
        .artifact_bytes(&old)
        .seed(7)
        .run()
        .expect("degrades instead of erroring");
    assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
    assert_eq!(
        outcome.fallback().expect("fallback").reason,
        "artifact_corrupt"
    );
}

/// A version-2 file carries a per-pointer offline address that this
/// decoder no longer reads.
#[test]
fn version_2_files_are_rejected_not_misdecoded() {
    assert_rejected_as_version_skew(2);
}

/// A version-3 file seals its sections with another digest and carries
/// no shard seal.
#[test]
fn version_3_files_are_rejected_not_misdecoded() {
    assert_rejected_as_version_skew(3);
}

/// A version-4 file stores every graph in full, with no skeletons.
#[test]
fn version_4_files_are_rejected_not_misdecoded() {
    assert_rejected_as_version_skew(4);
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

/// How far [`tamper_rank_section`] reseals the file it tampers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reseal {
    /// Not at all.
    No,
    /// Every section digest, the header's checksum-of-digests and the
    /// index digest: what an edit in transit would get. The shard seal
    /// can still tell.
    Transport,
    /// As `Transport`, after resealing the tampered shard's seal too.
    Shard,
}

/// `bytes` with byte `at` of `rank`'s `kind` section flipped, resealed as
/// far as `reseal` says.
fn tamper_rank_section(
    bytes: &[u8],
    rank: u32,
    kind: SectionKind,
    at: usize,
    reseal: Reseal,
) -> Vec<u8> {
    let extents = Maf2Reader::open(bytes).expect("open").section_extents();
    let find = |kind: SectionKind| {
        extents
            .iter()
            .position(|e| e.kind == kind && e.shard == rank)
            .expect("section present")
    };
    let payload = |e: &SectionExtent| e.offset as usize..(e.offset + e.len) as usize;
    let mut out = bytes.to_vec();
    out[extents[find(kind)].offset as usize + at] ^= 0x04;
    if reseal == Reseal::No {
        return out;
    }
    let mut digests: Vec<u64> = extents
        .iter()
        .map(|e| maf2_digest(&out[payload(e)]))
        .collect();
    if reseal == Reseal::Shard {
        // ShardMeta: 104 bytes of fields, then the seal over them and the
        // digests of the shard's other sections in kind order.
        let meta = find(SectionKind::ShardMeta);
        let fields = extents[meta].offset as usize;
        let mut sealed = out[fields..fields + 104].to_vec();
        for &k in &SectionKind::ALL[1..] {
            sealed.extend_from_slice(&digests[find(k)].to_le_bytes());
        }
        out[fields + 104..fields + 112].copy_from_slice(&maf2_digest(&sealed).to_le_bytes());
        digests[meta] = maf2_digest(&out[payload(&extents[meta])]);
    }
    let index_off = le64(&out, 40) as usize;
    for (i, d) in digests.iter().enumerate() {
        let at = index_off + i * 32 + 24;
        out[at..at + 8].copy_from_slice(&d.to_le_bytes());
    }
    let fold: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    out[48..56].copy_from_slice(&maf2_digest(&fold).to_le_bytes());
    with_version(&out, ARTIFACT_VERSION)
}

/// The byte-path fault matrix, pinned: for every branch of
/// [`FaultPlan::apply_to_maf2`], a version skew and a missing library at
/// tp 1 and 2 (the latter both hand-encoded and armed by the plan, which
/// must give the same row), plus tp=2 bundles where only a section of rank 1 is
/// tampered (its Graphs, caught by the section digest, or its first replay
/// op's size or its content checksum, each resealed in transit and caught
/// by the shard seal), the cold start's strategy, fallback reason and
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
        cases.push((
            format!("tp{tp}/missing_library"),
            good.clone(),
            Some(FaultPlan::single(FaultKind::MissingLibrary, 5)),
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
                tamper_rank_section(&good, 1, SectionKind::Graphs, graphs_len / 2, Reseal::No),
                None,
            ));
            cases.push((
                "tp2/rank1_replay_flip_resealed".to_string(),
                tamper_rank_section(&good, 1, SectionKind::Replay, 8, Reseal::Transport),
                None,
            ));
            cases.push((
                "tp2/rank1_checksum_flip_resealed".to_string(),
                tamper_rank_section(&good, 1, SectionKind::ShardMeta, 24, Reseal::Transport),
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
            let tele_digest =
                maf2_digest((prometheus::render(&snap) + &chrome::render(&snap)).as_bytes());
            got.push(format!(
                "{case} | {} | {reason} | {detail} | {tele_digest:016x}",
                out.strategy_used()
            ));
        }
    }
    let want: &[&str] = &[
        "tp1/payload_flip/seed1 | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x584fb1b13315be31, recomputed 0x9818d743c95e360d | 8d1c165209400b95",
        "tp1/digest_flip/seed0 | vLLM | checksum_mismatch | artifact checksum mismatch: sealed 0x59dac36a08787552, recomputed 0x50abe81d9e72c9fe | e38b462545051f26",
        "tp1/offset_out_of_bounds/seed2 | vLLM | artifact_corrupt | artifact corrupt: index entry 3 (Labels shard 0) [639599, +3728) is out of bounds | 57641e21c0b33470",
        "tp1/truncate_header/seed0 | vLLM | artifact_corrupt | artifact corrupt: truncated: 10 bytes < 64-byte header | 57641e21c0b33470",
        "tp1/truncate_tail/seed2 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 638760 bytes, have 638737 | 57641e21c0b33470",
        "tp1/truncate_payload/seed1 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 638760 bytes, have 59271 | 57641e21c0b33470",
        "tp1/version_skew | vLLM | artifact_corrupt | artifact validation (format_version): artifact corrupt: format version 8 != supported 5 | 7abc6f610c251ab8",
        "tp1/missing_library | vLLM | kernel_unresolved | artifact validation (kernel_table): kernel `rotary_embedding_neox_f16` of `libghost-5.so.0` could not be resolved online | 7e6c92a246d3abfe",
        "tp1/missing_library | vLLM | kernel_unresolved | artifact validation (kernel_table): kernel `rotary_embedding_neox_f16` of `libghost-5.so.0` could not be resolved online | 7e6c92a246d3abfe",
        "tp2/payload_flip/seed1 | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x718558b7ca76c50f, recomputed 0xda1a287d37aeefae | 61d09149a8ae6fed",
        "tp2/digest_flip/seed0 | vLLM | checksum_mismatch | artifact checksum mismatch: sealed 0x562b08ee61f0481a, recomputed 0x4f14120b3f43d34c | 4b8608284ff96514",
        "tp2/offset_out_of_bounds/seed2 | vLLM | artifact_corrupt | artifact corrupt: index entry 11 (Labels shard 1) [1517225, +3728) is out of bounds | 15b2e719edf14246",
        "tp2/truncate_header/seed0 | vLLM | artifact_corrupt | artifact corrupt: truncated: 10 bytes < 64-byte header | 15b2e719edf14246",
        "tp2/truncate_tail/seed2 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 1516386 bytes, have 1516363 | 15b2e719edf14246",
        "tp2/truncate_payload/seed1 | vLLM | artifact_corrupt | artifact corrupt: truncated: header declares 1516386 bytes, have 140627 | 15b2e719edf14246",
        "tp2/version_skew | vLLM | artifact_corrupt | artifact validation (format_version): artifact corrupt: format version 8 != supported 5 | a828a03fc40e1727",
        "tp2/missing_library | vLLM | kernel_unresolved | artifact validation (kernel_table): kernel `fused_add_rms_norm_f16` of `libghost-5.so.0` could not be resolved online | 251b1d88bc36be47",
        "tp2/missing_library | vLLM | kernel_unresolved | artifact validation (kernel_table): kernel `fused_add_rms_norm_f16` of `libghost-5.so.0` could not be resolved online | 251b1d88bc36be47",
        "tp2/rank1_graphs_flip | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x718558b7ca76c50f, recomputed 0xa4b3fbe307a59d8f | 61d09149a8ae6fed",
        "tp2/rank1_replay_flip_resealed | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x4a65286a22673a83, recomputed 0xc80d6c835354b15e | 61d09149a8ae6fed",
        "tp2/rank1_checksum_flip_resealed | vLLM | checksum_mismatch | artifact validation (checksum): artifact checksum mismatch: sealed 0x4a65286a22673a83, recomputed 0x65015527920e9797 | 61d09149a8ae6fed",
    ];
    if got != want {
        for line in &got {
            eprintln!("        {line:?},");
        }
        panic!("byte-path fault matrix moved");
    }
}

/// A flip of the middle byte of rank 1's Graphs section, resealed up to
/// the shard seal, lands in a constant's inline padding, which no reader
/// looks at. Such a file has
/// no second reading of the same state: the restore rejects it as
/// corrupt and degrades to vanilla instead of restoring as Medusa.
#[test]
fn resealed_graphs_padding_flip_is_corrupt() {
    let spec = spec();
    let good = bundle(2, 29).to_maf2().expect("encode");
    let graphs_len = Maf2Reader::open(&good)
        .expect("open")
        .section_extents()
        .iter()
        .find(|e| e.kind == SectionKind::Graphs && e.shard == 1)
        .expect("rank 1 graphs")
        .len as usize;
    let bad = tamper_rank_section(&good, 1, SectionKind::Graphs, graphs_len / 2, Reseal::Shard);
    let err = Maf2Reader::open(&bad)
        .expect("a resealed flip still opens")
        .shard(1)
        .expect_err("padding must not decode");
    assert_eq!(err.kind(), "artifact_corrupt", "{err}");
    assert!(err.to_string().contains("inline constant"), "{err}");
    let outcome = ColdStart::new(&spec)
        .strategy(Strategy::Medusa)
        .tp(2)
        .warm(true)
        .seed(37)
        .artifact_bytes(&bad)
        .run()
        .expect("degrades instead of erroring");
    assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
    assert_eq!(
        outcome.fallback().expect("fallback").reason,
        "artifact_corrupt"
    );
}

/// A builder write encodes the ranks its analysis has just sealed without
/// folding their content checksums again. Its bytes are those of the
/// checked encoder, ranks wrapped any other way are still checked, and
/// equality looks only at the ranks.
#[test]
fn sealed_writes_encode_as_the_checked_encoder() {
    for tp in [1, 2] {
        let arts = ColdStart::new(&spec())
            .tp(tp)
            .materialize(61)
            .expect("offline phase")
            .0;
        let bytes = arts.to_maf2().expect("encode");
        let refs: Vec<&MaterializedState> = arts.iter().collect();
        assert!(
            bytes == encode_maf2_bundle(&refs).expect("checked encode"),
            "tp={tp}: a sealed write must encode the same bytes"
        );
        assert_eq!(TpArtifacts::from_maf2(&bytes).expect("decode"), arts);

        let mut tampered: Vec<MaterializedState> = arts.iter().cloned().collect();
        tampered[0].checksum ^= 1;
        let err = TpArtifacts::new(tampered)
            .expect("same target")
            .to_maf2()
            .expect_err("a wrong checksum is caught where it is written");
        assert_eq!(err.kind(), "checksum_mismatch", "tp={tp}: {err}");
    }
}
