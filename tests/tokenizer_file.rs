//! The tokenizer's vocabulary file (`crates/model/src/tokenizer.rs`) is a
//! decoder of untrusted bytes: `Tokenizer::open` returns a typed
//! [`TokenizerError`], and never panics or over-allocates.
//!
//! * Each file is pinned by length and digest.
//! * A flipped byte that is not resealed is always the digest error.
//! * A header count, an `ends` entry, a table slot or an arena byte
//!   overwritten and resealed past the digest is a typed error, or a
//!   tokenizer whose `decode` inverts its `encode` on random text: the
//!   probe compares piece bytes, and a missed multi-byte piece falls back
//!   to its bytes' ids.
//! * Opening allocates a constant, and a second load of a size reads the
//!   same file.

use medusa::maf2_digest;
use medusa_gpu::CostModel;
use medusa_model::{Tokenizer, TokenizerError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

const HEADER: usize = 32;
/// Where the header keeps the digest of everything after it.
const DIGEST_AT: usize = 24;

fn header_u32(file: &[u8], field: usize) -> usize {
    u32::from_le_bytes(file[4 * field..4 * field + 4].try_into().unwrap()) as usize
}

/// Where each section starts: `ends`, the table's keys, its ids, the arena.
fn sections(file: &[u8]) -> [usize; 4] {
    let (entries, slots) = (header_u32(file, 2), header_u32(file, 3));
    let keys = HEADER + 4 * entries;
    let ids = keys + 8 * slots;
    [HEADER, keys, ids, ids + 4 * slots]
}

/// Rewrites the header's digest so that it covers the bytes as they are.
fn reseal(file: &mut [u8]) {
    let digest = maf2_digest(&file[HEADER..]);
    file[DIGEST_AT..HEADER].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn each_file_is_pinned() {
    for (vocab, len, digest) in [
        (32_000, LLAMA_LEN, LLAMA_DIGEST),
        (151_936, QWEN_LEN, QWEN_DIGEST),
    ] {
        let file = Tokenizer::vocab_file(vocab);
        assert_eq!((file.len(), maf2_digest(&file)), (len, digest), "{vocab}");
    }
}

const LLAMA_LEN: usize = 930_625;
const LLAMA_DIGEST: u64 = 0xee44_cd17_9fd3_247e;
const QWEN_LEN: usize = 4_473_419;
const QWEN_DIGEST: u64 = 0x964f_ff34_fdbe_1484;

#[test]
fn an_unsealed_flip_is_the_digest_error() {
    let mut file: Arc<[u8]> = Tokenizer::vocab_file(32_000)[..].into();
    let mut rng = SmallRng::seed_from_u64(0xf11b);
    for _ in 0..4096 {
        // Past the counts: the stored digest or any byte it covers.
        let at = DIGEST_AT + rng.gen::<usize>() % (file.len() - DIGEST_AT);
        let mask = 1 + rng.gen::<u8>() % 255;
        Arc::get_mut(&mut file).expect("no view outlives a failed open")[at] ^= mask;
        let err = Tokenizer::open(Arc::clone(&file)).expect_err("a flipped byte opened");
        assert!(
            matches!(err, TokenizerError::Digest { .. }),
            "flip {mask:#04x} at {at}: {err}"
        );
        Arc::get_mut(&mut file).expect("no view outlives a failed open")[at] ^= mask;
    }
    assert!(Tokenizer::open(file).is_ok());
}

#[test]
fn malformed_headers_are_typed_errors() {
    let file = Tokenizer::vocab_file(32_000);
    let open = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = file.to_vec();
        edit(&mut bytes);
        Tokenizer::open(bytes.into()).map(|_| ())
    };
    assert_eq!(
        open(&|b| b.truncate(HEADER - 1)),
        Err(TokenizerError::NotAVocabulary)
    );
    assert_eq!(open(&|b| b[0] ^= 1), Err(TokenizerError::NotAVocabulary));
    assert_eq!(open(&|b| b[4] = 2), Err(TokenizerError::Version(2)));
    assert_eq!(
        open(&|b| b.truncate(b.len() - 1)),
        Err(TokenizerError::Length)
    );
    assert_eq!(open(&|b| b.push(0)), Err(TokenizerError::Length));
    // A file of only byte pieces and one table slot, with that slot taken.
    let byte_only = Tokenizer::vocab_file(256);
    let mut full = byte_only.to_vec();
    let [_, keys, ids, _] = sections(&full);
    full[keys..keys + 8].copy_from_slice(&u64::from_le_bytes(*b"ab\0\0\0\0\0\0").to_le_bytes());
    full[ids..ids + 4].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut full);
    assert_eq!(
        Tokenizer::open(full.into()).map(|_| ()),
        Err(TokenizerError::Slot),
        "id 1 is a byte piece's"
    );
    // One multi-byte piece, and every slot taken.
    let mut full = Tokenizer::vocab_file(257).to_vec();
    let [_, keys, ids, _] = sections(&full);
    for slot in 0..header_u32(&full, 3) {
        let key = u64::from(b'a' + slot as u8) << 8 | u64::from(b'z');
        full[keys + 8 * slot..keys + 8 * slot + 8].copy_from_slice(&key.to_le_bytes());
        full[ids + 4 * slot..ids + 4 * slot + 4].copy_from_slice(&256u32.to_le_bytes());
    }
    reseal(&mut full);
    assert_eq!(
        Tokenizer::open(full.into()).map(|_| ()),
        Err(TokenizerError::TableFull)
    );
}

#[test]
fn opening_allocates_a_constant() {
    for vocab in [32_000, 151_936] {
        let file = Tokenizer::vocab_file(vocab);
        let (tokenizer, bytes) = allocated_by(|| Tokenizer::open(Arc::clone(&file)));
        assert!(tokenizer.is_ok());
        assert!(bytes < 1024, "opening {vocab} entries allocated {bytes} B");
    }
}

#[test]
fn a_second_load_reads_the_same_file() {
    let cost = CostModel::default();
    let (a, _) = Tokenizer::load(32_000, &cost);
    let (b, _) = Tokenizer::load(32_000, &cost);
    assert!(Arc::ptr_eq(a.file(), b.file()));
    // Two loads of a new size that start at once write its file once.
    let [c, d] = std::thread::scope(|s| {
        [0, 1]
            .map(|_| s.spawn(|| Tokenizer::load(3_001, &CostModel::default()).0))
            .map(|h| h.join().expect("load"))
    });
    assert!(Arc::ptr_eq(c.file(), d.file()));
    assert_eq!(c.vocab_size(), 3_001);
}

/// The ASCII the merges are drawn from, so random text matches long
/// pieces, 8-byte ones included.
const MERGE_CHARS: &[u8] = b"etaoinshrdlucmfwypvbgkjqxz ETAOIN0123456789.,;:-_'\"";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `part` picks a header count, an `ends` entry, a table slot or an
    /// arena byte; `at` picks which; `value` is what goes there, near the
    /// old value half the time so that some edits pass every check.
    #[test]
    fn resealed_edits_open_typed_or_round_trip(
        part in 0..4u8,
        at in any::<u64>(),
        value in any::<u64>(),
        near in any::<bool>(),
        text in prop::collection::vec((any::<bool>(), any::<u8>()), 0..160),
    ) {
        let mut file = Tokenizer::vocab_file(32_000).to_vec();
        let [ends, keys, ids, arena] = sections(&file);
        let (entries, slots) = (header_u32(&file, 2), header_u32(&file, 3));
        let put32 = |file: &mut Vec<u8>, o: usize| {
            let old = u32::from_le_bytes(file[o..o + 4].try_into().unwrap());
            let new = if near { old.wrapping_add(value as u32 % 17).wrapping_sub(8) } else { value as u32 };
            file[o..o + 4].copy_from_slice(&new.to_le_bytes());
        };
        match part {
            0 => put32(&mut file, 4 * (2 + at as usize % 4)),
            1 => put32(&mut file, ends + 4 * (at as usize % entries)),
            2 => {
                let slot = at as usize % slots;
                let key = if near { value & 0x00ff_ffff_ffff } else { value };
                file[keys + 8 * slot..keys + 8 * slot + 8].copy_from_slice(&key.to_le_bytes());
                put32(&mut file, ids + 4 * slot);
            }
            _ => {
                let o = arena + at as usize % (file.len() - arena);
                file[o] = if near { MERGE_CHARS[value as usize % MERGE_CHARS.len()] } else { value as u8 };
            }
        }
        reseal(&mut file);
        let Ok(t) = Tokenizer::open(file.into()) else {
            // Every error is typed; which one depends on the edit.
            return Ok(());
        };
        let bytes: Vec<u8> = text
            .into_iter()
            .map(|(merge, b)| if merge { MERGE_CHARS[b as usize % MERGE_CHARS.len()] } else { b })
            .collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let ids = t.encode(&text);
        prop_assert!(ids.iter().all(|&id| id < t.vocab_size()));
        prop_assert_eq!(t.decode(&ids), text.as_bytes());
    }
}
