//! Structure-aware robustness property of the chunk registry's two sealed
//! encodings, the chunk manifest (`MCM1`) and the chunk store (`MCS1`)
//! (DESIGN.md §15).
//!
//! Random valid stores are written field by field; then one aligned
//! count, length, offset, flag, pad or key field of the store or of a
//! manifest is overwritten and the encoding resealed, so the damage gets
//! past the checksums and reaches the structural checks. Each decode must
//! end in one of two ways:
//!
//! * a typed [`MedusaError`] (`artifact_corrupt`, or `checksum_mismatch`
//!   when an inner manifest's own seal no longer covers its bytes);
//! * a value whose `encode()` reproduces the input byte for byte — a
//!   decoder that skips a byte it never reads, or folds two encodings into
//!   one state, fails here.
//!
//! Nothing may panic, and the bytes a decode allocates stay within a
//! fixed multiple of its input: a count field cannot size an allocation.

use medusa::{
    maf2_digest, ChunkManifest, ChunkRef, ChunkStore, MedusaError, SectionKind, SectionSpan,
    MANIFEST_VERSION,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; its bytes go uncounted.
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its value with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Allocation a decode of `len` input bytes may make: every decoded value
/// is at most a few times its encoding, plus the growth of its vectors and
/// a constant for error messages and empty-collection minimums.
fn alloc_bound(len: usize) -> usize {
    8 * len + 16 * 1024
}

/// Rewrites the trailing seal of `bytes`, the digest of everything before
/// it.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let seal = maf2_digest(&bytes[..body]);
    bytes[body..].copy_from_slice(&seal.to_le_bytes());
}

fn le(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut b = [0u8; 8];
    b[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(b)
}

fn text(rng: &mut TestRng, max: u64) -> String {
    (0..rng.next_u64() % (max + 1))
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect()
}

fn chunk_refs(rng: &mut TestRng, max: u64) -> Vec<ChunkRef> {
    (0..rng.next_u64() % (max + 1))
        .map(|_| ChunkRef {
            digest: rng.next_u64(),
            len: (rng.next_u64() % 5000) as u32,
        })
        .collect()
}

/// A random manifest: names, chunks, in-range section spans of every
/// kind, and a template reference half the time.
fn manifest(rng: &mut TestRng) -> ChunkManifest {
    let chunks = chunk_refs(rng, 6);
    let n = chunks.len() as u64;
    let sections = (0..rng.next_u64() % 4)
        .map(|_| {
            let first = rng.next_u64() % (n + 1);
            SectionSpan {
                kind: SectionKind::ALL[(rng.next_u64() % 8) as usize],
                shard: (rng.next_u64() % 4) as u32,
                first_chunk: first as u32,
                chunk_count: (rng.next_u64() % (n - first + 1)) as u32,
            }
        })
        .collect();
    ChunkManifest {
        version: MANIFEST_VERSION,
        model: text(rng, 12),
        gpu: text(rng, 10),
        tp: 1 + (rng.next_u64() % 8) as u32,
        total_bytes: chunks.iter().map(|c| u64::from(c.len)).sum(),
        chunks,
        sections,
        template: rng.next_u64().is_multiple_of(2).then(|| rng.next_u64()),
    }
}

/// The digest a template record must carry: the format's digest of its
/// family name and its chunk references.
fn template_seal(family: &str, chunks: &[ChunkRef]) -> u64 {
    let mut body = family.as_bytes().to_vec();
    for c in chunks {
        body.extend_from_slice(&c.digest.to_le_bytes());
        body.extend_from_slice(&c.len.to_le_bytes());
    }
    maf2_digest(&body)
}

/// Appends one template record with the given `bytes` and `digest`
/// fields.
fn push_template(out: &mut Vec<u8>, family: &str, chunks: &[ChunkRef], bytes: u64, digest: u64) {
    out.extend_from_slice(&(family.len() as u32).to_le_bytes());
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(family.as_bytes());
    for c in chunks {
        out.extend_from_slice(&c.digest.to_le_bytes());
        out.extend_from_slice(&c.len.to_le_bytes());
    }
}

/// A random store encoding, written field by field in the layout
/// [`ChunkStore::encode`] writes: header, length-prefixed manifests,
/// templates, then the chunks in ascending digest order.
fn store_bytes(rng: &mut TestRng) -> Vec<u8> {
    let manifests: Vec<Vec<u8>> = (0..rng.next_u64() % 4)
        .map(|_| manifest(rng).encode())
        .collect();
    let templates: Vec<(String, Vec<ChunkRef>)> = (0..rng.next_u64() % 3)
        .map(|_| (text(rng, 8), chunk_refs(rng, 4)))
        .collect();
    let mut payloads: Vec<(u64, Vec<u8>)> = (0..rng.next_u64() % 6)
        .map(|_| {
            let bytes: Vec<u8> = (0..rng.next_u64() % 40)
                .map(|_| rng.next_u64() as u8)
                .collect();
            (maf2_digest(&bytes), bytes)
        })
        .collect();
    payloads.sort();
    payloads.dedup_by_key(|p| p.0);

    let mut out = b"MCS1".to_vec();
    for word in [
        MANIFEST_VERSION,
        manifests.len() as u32,
        templates.len() as u32,
        payloads.len() as u32,
        0,
    ] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for m in &manifests {
        out.extend_from_slice(&(m.len() as u32).to_le_bytes());
        out.extend_from_slice(m);
    }
    for (family, chunks) in &templates {
        let bytes = chunks.iter().map(|c| u64::from(c.len)).sum();
        push_template(
            &mut out,
            family,
            chunks,
            bytes,
            template_seal(family, chunks),
        );
    }
    for (digest, bytes) in &payloads {
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out.extend_from_slice(&[0; 8]);
    reseal(&mut out);
    out
}

/// One overwritable field: `width` bytes at `at`, inside the manifest
/// spanning `manifest` (whose own seal must be rewritten) if any.
#[derive(Debug, Clone, Copy)]
struct Field {
    at: usize,
    width: usize,
    manifest: Option<(usize, usize)>,
}

/// The fields of the valid manifest encoding at `bytes[base..base + len]`:
/// the header words, every chunk length, and every section span word.
fn manifest_fields(bytes: &[u8], base: usize, len: usize, inner: bool, out: &mut Vec<Field>) {
    let manifest = inner.then_some((base, len));
    let mut push = |at: usize, width: usize| {
        out.push(Field {
            at: base + at,
            width,
            manifest,
        })
    };
    // Version, tp, name lengths, counts, template flag; template digest
    // and total bytes.
    for at in (4..32).step_by(4) {
        push(at, 4);
    }
    push(32, 8);
    push(40, 8);
    let word = |at: usize| le(bytes, base + at, 4) as usize;
    let mut at = 48 + word(12) + word(16);
    for _ in 0..word(20) {
        push(at + 8, 4);
        at += 12;
    }
    for _ in 0..word(24) {
        for w in (0..16).step_by(4) {
            push(at + w, 4);
        }
        at += 16;
    }
}

/// The fields of a valid store encoding: the header words (pad
/// included), each manifest's length prefix and fields, each template's
/// lengths, count and chunk lengths, and each chunk's digest key and
/// length.
fn store_fields(bytes: &[u8]) -> Vec<Field> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<Field>, at: usize, width: usize| {
        out.push(Field {
            at,
            width,
            manifest: None,
        })
    };
    for at in (4..24).step_by(4) {
        push(&mut out, at, 4);
    }
    let word = |at: usize| le(bytes, at, 4) as usize;
    let mut at = 24;
    for _ in 0..word(8) {
        push(&mut out, at, 4);
        let len = word(at);
        manifest_fields(bytes, at + 4, len, true, &mut out);
        at += 4 + len;
    }
    for _ in 0..word(12) {
        push(&mut out, at, 4);
        push(&mut out, at + 4, 4);
        push(&mut out, at + 8, 8);
        let (family, chunks) = (word(at), word(at + 4));
        at += 24 + family;
        for _ in 0..chunks {
            push(&mut out, at + 8, 4);
            at += 12;
        }
    }
    for _ in 0..word(16) {
        push(&mut out, at, 8);
        push(&mut out, at + 8, 4);
        at += 12 + word(at + 8);
    }
    out
}

/// Overwrites `field` with a value drawn from the edges of its range
/// (zero, one, off by one, all ones, a count past any payload) or at
/// random, then reseals the manifest it sits in and the whole encoding.
fn overwrite(rng: &mut TestRng, bytes: &mut [u8], field: Field) {
    let old = le(bytes, field.at, field.width);
    let ones = if field.width == 8 {
        u64::MAX
    } else {
        u64::from(u32::MAX)
    };
    let value = match rng.next_u64() % 8 {
        0 => 0,
        1 => 1,
        2 => old.wrapping_add(1),
        3 => old.wrapping_sub(1),
        4 => ones,
        5 => ones / 12,
        6 => rng.next_u64() % 64,
        _ => rng.next_u64(),
    } & ones;
    bytes[field.at..field.at + field.width].copy_from_slice(&value.to_le_bytes()[..field.width]);
    if let Some((base, len)) = field.manifest {
        reseal(&mut bytes[base..base + len]);
    }
    reseal(bytes);
}

/// Decodes `bytes` with `decode`, asserting a typed error or a
/// byte-identical re-encoding, within the allocation bound.
fn check<T>(
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, MedusaError>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) {
    let (decoded, allocated) = allocated_by(|| decode(bytes));
    prop_assert!(
        allocated <= alloc_bound(bytes.len()),
        "decoding {} bytes allocated {allocated}",
        bytes.len()
    );
    match decoded {
        Err(e) => prop_assert!(
            matches!(e.kind(), "artifact_corrupt" | "checksum_mismatch"),
            "untyped failure: {e}"
        ),
        Ok(value) => prop_assert!(
            encode(&value) == bytes,
            "decoded bytes that re-encode differently"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A resealed overwrite of any structural field of a store, or of a
    /// manifest inside it, decodes to a typed error or to the state that
    /// re-encodes to exactly the input.
    #[test]
    fn resealed_store_field_overwrites_are_rejected_or_canonical(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("mcs1", (seed % 1_000_000) as u32);
        let valid = store_bytes(&mut rng);
        check(&valid, ChunkStore::decode, ChunkStore::encode);
        let fields = store_fields(&valid);
        for _ in 0..8 {
            let mut bad = valid.clone();
            let field = fields[rng.next_u64() as usize % fields.len()];
            overwrite(&mut rng, &mut bad, field);
            check(&bad, ChunkStore::decode, ChunkStore::encode);
        }
    }

    /// The same for a manifest on its own.
    #[test]
    fn resealed_manifest_field_overwrites_are_rejected_or_canonical(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("mcm1", (seed % 1_000_000) as u32);
        let valid = manifest(&mut rng).encode();
        check(&valid, ChunkManifest::decode, ChunkManifest::encode);
        let mut fields = Vec::new();
        manifest_fields(&valid, 0, valid.len(), false, &mut fields);
        for _ in 0..8 {
            let mut bad = valid.clone();
            let field = fields[rng.next_u64() as usize % fields.len()];
            overwrite(&mut rng, &mut bad, field);
            check(&bad, ChunkManifest::decode, ChunkManifest::encode);
        }
    }
}

/// A sealed store of one template record with the given `bytes` and
/// `digest` fields, and no manifest or chunk.
fn template_store(family: &str, chunks: &[ChunkRef], bytes: u64, digest: u64) -> Vec<u8> {
    let mut out = b"MCS1".to_vec();
    for word in [MANIFEST_VERSION, 0, 1, 0, 0] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    push_template(&mut out, family, chunks, bytes, digest);
    out.extend_from_slice(&[0; 8]);
    reseal(&mut out);
    out
}

#[test]
fn a_manifest_total_other_than_its_chunk_sum_is_rejected() {
    let forged = ChunkManifest {
        version: MANIFEST_VERSION,
        model: "m".into(),
        gpu: "g".into(),
        tp: 1,
        total_bytes: 999_999,
        chunks: vec![ChunkRef { digest: 7, len: 10 }],
        sections: Vec::new(),
        template: None,
    };
    let err = ChunkManifest::decode(&forged.encode()).expect_err("a forged total decoded");
    assert_eq!(err.kind(), "artifact_corrupt", "{err}");
    let honest = ChunkManifest {
        total_bytes: 10,
        ..forged
    };
    let decoded = ChunkManifest::decode(&honest.encode()).expect("the honest total decodes");
    assert_eq!(decoded, honest);
}

#[test]
fn a_template_whose_bytes_or_digest_disagree_with_its_chunks_is_rejected() {
    let chunks = [
        ChunkRef { digest: 7, len: 10 },
        ChunkRef { digest: 9, len: 32 },
    ];
    let seal = template_seal("fam", &chunks);
    let honest = ChunkStore::decode(&template_store("fam", &chunks, 42, seal))
        .expect("the honest template decodes");
    assert_eq!(honest.templates()[0].bytes, 42);
    for (bytes, digest) in [(999_999, seal), (42, seal ^ 1)] {
        let err = ChunkStore::decode(&template_store("fam", &chunks, bytes, digest))
            .expect_err("a forged template decoded");
        assert_eq!(err.kind(), "artifact_corrupt", "bytes {bytes}: {err}");
    }
}
