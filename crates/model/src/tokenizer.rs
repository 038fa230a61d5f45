//! Tokenizer loading and a working greedy longest-match tokenizer
//! (loading-phase stage ❸, paper §2.1).
//!
//! A vocabulary has two halves here, as it does in a model directory: its
//! **file** and its **load**. [`Tokenizer::vocab_file`] writes the file of
//! a vocabulary size once per process; it stands for the tokenizer file a
//! container reads from the model directory in its image.
//! [`Tokenizer::open`] is the load: it checks every header field and
//! length, digests every byte, checks the piece ends, the 256 byte pieces
//! and every table slot, and then reads pieces and probes the table in
//! place, so a load allocates nothing per entry. Each load re-reads and
//! re-verifies the whole file; no built tokenizer is shared between loads.
//!
//! The file, all integers little-endian:
//!
//! | Bytes | Field |
//! |---|---|
//! | 32 | header: magic `MTOK`, version, entry count, table slots, arena length and longest piece (`u32` each), then the [`xxh64`] of everything after the header |
//! | 4 × entries | `ends`: piece `id` is `arena[ends[id - 1]..ends[id]]` (from 0 for id 0) |
//! | 8 × slots | the table's keys: a piece of 2..=8 bytes packed into a `u64`, zero-padded; 0 marks a free slot |
//! | 4 × slots | the table's ids, 0 in a free slot |
//! | arena length | every piece's bytes, back to back in id order |
//!
//! The table is open-addressed with linear probing over the multi-byte
//! pieces only: ids 0–255 are the single bytes, so a byte needs no entry.
//! A probe compares one key word per slot and, on a match, the piece's
//! bytes, so a forged table can cost a match but never a wrong one.
//!
//! Simulated load time ([`Tokenizer::load_duration`]) models parsing a
//! vocabulary file, which is why large-vocabulary models (Qwen1.5: 151,936
//! entries) spend visibly longer in this stage (Fig. 2 / Fig. 8a: 0.21 s
//! for Qwen1.5 4B). The tokenizer itself is a real, deterministic
//! byte-fallback greedy tokenizer: every single byte is a token, plus
//! generated multi-byte merges, so `decode(encode(s)) == s` always holds.

use medusa_gpu::{xxh64, CostModel, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Longest generated piece, in bytes.
const MAX_PIECE: usize = 8;

/// Pieces drawn ahead of their table probes; see [`write`].
const DRAW_BATCH: usize = 64;

/// The ids of the single bytes, 0–255, which every vocabulary starts with.
const BYTE_PIECES: usize = 256;

const MAGIC: [u8; 4] = *b"MTOK";
const VERSION: u32 = 1;
const HEADER: usize = 32;

/// Table slots for a vocabulary of `entries`: five thirds of its
/// multi-byte pieces, plus the one free slot a probe needs to end. Every
/// open digests the table, so its load factor (0.6) trades `open` against
/// `encode`. Measured on Qwen1.5's vocabulary against 0.6: at one half the
/// file is 14 % larger and `open` 20 % slower; at two thirds `open` is 5 %
/// faster and `encode` 12 % slower.
fn table_slots(entries: usize) -> usize {
    5 * (entries - BYTE_PIECES) / 3 + 1
}

/// A vocabulary file that fails [`Tokenizer::open`]'s checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenizerError {
    /// Shorter than a header, or without the magic.
    NotAVocabulary,
    /// A version this build does not read.
    Version(u32),
    /// The header's counts disagree with each other or with the file's
    /// length.
    Length,
    /// The digest of everything after the header is not the one stored.
    Digest {
        /// The digest in the header.
        stored: u64,
        /// The digest of the bytes.
        actual: u64,
    },
    /// A piece is not 1..=8 bytes past the one before it, or the last end
    /// is not the arena's length, or the header's longest piece is not the
    /// longest.
    Ends,
    /// Ids 0–255 are not the 256 single bytes in order.
    BytePieces,
    /// A table slot is neither all zero nor a nonzero key with a
    /// multi-byte piece's id.
    Slot,
    /// Every table slot is taken, so a missed probe could not end.
    TableFull,
}

impl fmt::Display for TokenizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotAVocabulary => write!(f, "not a vocabulary file"),
            Self::Version(v) => write!(f, "vocabulary file version {v}, expected {VERSION}"),
            Self::Length => write!(f, "vocabulary header disagrees with the file's length"),
            Self::Digest { stored, actual } => write!(
                f,
                "vocabulary digest {actual:#018x}, header says {stored:#018x}"
            ),
            Self::Ends => write!(f, "vocabulary piece ends are malformed"),
            Self::BytePieces => write!(f, "vocabulary ids 0-255 are not the single bytes"),
            Self::Slot => write!(f, "vocabulary table slot is malformed"),
            Self::TableFull => write!(f, "vocabulary table has no free slot"),
        }
    }
}

impl std::error::Error for TokenizerError {}

/// A loaded tokenizer: a verified view of its vocabulary file.
#[derive(Clone)]
pub struct Tokenizer {
    file: Arc<[u8]>,
    entries: usize,
    slots: usize,
    max_piece: usize,
}

impl fmt::Debug for Tokenizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tokenizer")
            .field("entries", &self.entries)
            .field("table_slots", &self.slots)
            .field("max_piece", &self.max_piece)
            .field("file_bytes", &self.file.len())
            .finish()
    }
}

impl Tokenizer {
    /// Loads the tokenizer for a `vocab_size`-entry vocabulary: opens the
    /// process's [`vocab_file`](Tokenizer::vocab_file) for that size and
    /// returns it together with the simulated load duration.
    pub fn load(vocab_size: u32, cost: &CostModel) -> (Self, SimDuration) {
        let tokenizer =
            Self::open(Self::vocab_file(vocab_size)).expect("a written vocabulary file verifies");
        (tokenizer, Self::load_duration(vocab_size, cost))
    }

    /// The simulated duration of [`Tokenizer::load`], without loading.
    pub fn load_duration(vocab_size: u32, cost: &CostModel) -> SimDuration {
        SimDuration::from_nanos(
            cost.tokenizer_fixed_ns + cost.tokenizer_per_entry_ns * vocab_size as u64,
        )
    }

    /// The vocabulary file for `vocab_size` entries (at least the 256
    /// bytes), written the first time a process asks for that size; every
    /// later call returns the same bytes, and two callers that ask at once
    /// write it once.
    ///
    /// The vocabulary is deterministic in `vocab_size`: 256 byte tokens
    /// plus generated multi-byte pieces over common ASCII.
    pub fn vocab_file(vocab_size: u32) -> Arc<[u8]> {
        type Files = BTreeMap<u32, Arc<OnceLock<Arc<[u8]>>>>;
        static FILES: Mutex<Files> = Mutex::new(BTreeMap::new());
        // The lock only hands out a size's cell, and the file is written
        // outside it, so a poisoned map is still whole.
        let file = Arc::clone(
            FILES
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(vocab_size)
                .or_default(),
        );
        Arc::clone(file.get_or_init(|| write(vocab_size)))
    }

    /// Opens a vocabulary file: checks the header and the lengths, the
    /// digest of every byte after the header, that `ends` ascends by
    /// 1..=8, that ids 0–255 are the 256 single bytes, and that every table
    /// slot is free or holds a multi-byte piece's id with at least one
    /// slot free. The tokenizer then reads `file` in place.
    pub fn open(file: Arc<[u8]>) -> Result<Self, TokenizerError> {
        let bytes = &file[..];
        let header = bytes
            .get(..HEADER)
            .filter(|h| h[..4] == MAGIC)
            .ok_or(TokenizerError::NotAVocabulary)?;
        let field = |i: usize| le32(&header[4 * i..]) as usize;
        if field(1) != VERSION as usize {
            return Err(TokenizerError::Version(field(1) as u32));
        }
        let (entries, slots, arena_len, max_piece) = (field(2), field(3), field(4), field(5));
        let stored = le64(&header[24..]);
        // Every count is a u32, so the length sum cannot overflow a u64.
        let len = HEADER as u64 + arena_len as u64 + 4 * entries as u64 + 12 * slots as u64;
        if entries < BYTE_PIECES
            || slots == 0
            || !(1..=MAX_PIECE).contains(&max_piece)
            || len != bytes.len() as u64
        {
            return Err(TokenizerError::Length);
        }
        let actual = xxh64(&bytes[HEADER..]);
        if actual != stored {
            return Err(TokenizerError::Digest { stored, actual });
        }
        let tokenizer = Tokenizer {
            entries,
            slots,
            max_piece,
            file: Arc::clone(&file),
        };
        let view = tokenizer.view();
        // Each check folds its whole section without a branch per entry,
        // so it streams like the digest; an error names the check, not the
        // entry.
        let (mut prev, mut longest, mut bad) = (0, 0, false);
        for end in view.ends.chunks_exact(4).map(le32) {
            let step = end.wrapping_sub(prev);
            bad |= step.wrapping_sub(1) >= MAX_PIECE as u32;
            longest = longest.max(step);
            prev = end;
        }
        if bad || prev as usize != arena_len || longest as usize != max_piece {
            return Err(TokenizerError::Ends);
        }
        let bytes_ok = view.ends[..4 * BYTE_PIECES]
            .chunks_exact(4)
            .map(le32)
            .eq(1..=256)
            && view.arena[..BYTE_PIECES].iter().copied().eq(0..=255);
        if !bytes_ok {
            return Err(TokenizerError::BytePieces);
        }
        let (mut free, mut bad) = (0, false);
        let multi_byte_ids = (entries - BYTE_PIECES) as u32;
        for (key, id) in view
            .keys
            .chunks_exact(8)
            .map(le64)
            .zip(view.ids.chunks_exact(4).map(le32))
        {
            let empty = key == 0;
            free += u32::from(empty);
            // A free slot holds id 0; a taken one a multi-byte piece's id.
            bad |= (empty & (id != 0))
                | (!empty & (id.wrapping_sub(BYTE_PIECES as u32) >= multi_byte_ids));
        }
        if bad {
            return Err(TokenizerError::Slot);
        }
        if free == 0 {
            return Err(TokenizerError::TableFull);
        }
        Ok(tokenizer)
    }

    /// The vocabulary file this tokenizer reads.
    pub fn file(&self) -> &Arc<[u8]> {
        &self.file
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.entries as u32
    }

    /// Encodes text into token ids by greedy longest match with byte
    /// fallback.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let view = self.view();
        let mut rest = text.as_bytes();
        let mut out = Vec::new();
        while let Some(&first) = rest.first() {
            let longest = rest.len().min(self.max_piece);
            let word = pack(&rest[..longest]);
            let (id, len) = (2..=longest)
                .rev()
                .find_map(|len| {
                    let key = word & (u64::MAX >> (64 - 8 * len));
                    view.find(key, &rest[..len]).map(|id| (id, len))
                })
                .unwrap_or((u32::from(first), 1));
            out.push(id);
            rest = &rest[len..];
        }
        out
    }

    /// Decodes token ids back into a byte string.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary range.
    pub fn decode(&self, ids: &[u32]) -> Vec<u8> {
        let view = self.view();
        let mut out = Vec::new();
        for &id in ids {
            out.extend_from_slice(view.piece(id as usize));
        }
        out
    }

    /// The file's sections, at the offsets its checked header gives.
    fn view(&self) -> View<'_> {
        let (ends, rest) = self.file[HEADER..].split_at(4 * self.entries);
        let (keys, rest) = rest.split_at(8 * self.slots);
        let (ids, arena) = rest.split_at(4 * self.slots);
        View {
            ends,
            keys,
            ids,
            arena,
        }
    }
}

/// The sections of a vocabulary file.
struct View<'a> {
    ends: &'a [u8],
    keys: &'a [u8],
    ids: &'a [u8],
    arena: &'a [u8],
}

impl View<'_> {
    fn piece(&self, id: usize) -> &[u8] {
        let start = id
            .checked_sub(1)
            .map_or(0, |prev| le32(&self.ends[4 * prev..]));
        &self.arena[start as usize..le32(&self.ends[4 * id..]) as usize]
    }

    /// The id of the multi-byte piece `window`, whose packed key is `key`.
    fn find(&self, key: u64, window: &[u8]) -> Option<u32> {
        if key == 0 {
            // A free slot's key: no piece of NUL bytes is in the table.
            return None;
        }
        let id = |slot| le32(&self.ids[4 * slot..]);
        probe(
            self.keys.len() / 8,
            key,
            |slot| le64(&self.keys[8 * slot..]),
            |slot| self.piece(id(slot) as usize) == window,
        )
        .ok()
        .map(id)
    }
}

/// Walks `key`'s probe sequence: the first slot that holds `key` and
/// whose piece `is_piece` accepts (`Ok`), else the first free slot
/// (`Err`). Ends while the table has a free slot.
fn probe(
    slots: usize,
    key: u64,
    key_at: impl Fn(usize) -> u64,
    is_piece: impl Fn(usize) -> bool,
) -> Result<usize, usize> {
    let mixed = (key ^ (key >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut slot = ((u128::from(mixed) * slots as u128) >> 64) as usize;
    loop {
        match key_at(slot) {
            0 => return Err(slot),
            k if k == key && is_piece(slot) => return Ok(slot),
            _ => slot = if slot + 1 == slots { 0 } else { slot + 1 },
        }
    }
}

/// Writes the vocabulary file for `vocab_size` entries.
fn write(vocab_size: u32) -> Arc<[u8]> {
    let entries = vocab_size.max(BYTE_PIECES as u32) as usize;
    let slots = table_slots(entries);
    let mut arena: Vec<u8> = (0..=255).collect();
    arena.reserve(entries * MAX_PIECE / 2);
    let mut ends: Vec<u32> = Vec::with_capacity(entries);
    ends.extend(1..=BYTE_PIECES as u32);
    let mut keys = vec![0u64; slots];
    let mut ids = vec![0u32; slots];
    let mut max_piece = 1;
    let mut rng = SmallRng::seed_from_u64(vocab_size as u64);
    const CHARS: &[u8] = b"etaoinshrdlucmfwypvbgkjqxz ETAOIN0123456789.,;:-_'\"";
    // Draws branch unpredictably on each piece's length. Drawing a batch
    // before probing the table keeps the probes free of those branches, so
    // their cache misses overlap. The draw order, and so the vocabulary,
    // is that of one draw and one probe at a time; draws past the last
    // entry are discarded.
    let mut batch = Vec::with_capacity(DRAW_BATCH);
    while ends.len() < entries {
        batch.clear();
        batch.extend((0..DRAW_BATCH).map(|_| {
            let len = 2 + (rng.gen::<usize>() % 7);
            let mut piece = [0u8; MAX_PIECE];
            for c in &mut piece[..len] {
                *c = CHARS[rng.gen::<usize>() % CHARS.len()];
            }
            (piece, len)
        }));
        for &(piece, len) in &batch {
            if ends.len() == entries {
                break;
            }
            // CHARS holds no NUL, so the packed key is never a free slot's
            // and pieces of different lengths never share one.
            let key = u64::from_le_bytes(piece);
            if let Err(slot) = probe(slots, key, |s| keys[s], |_| true) {
                keys[slot] = key;
                ids[slot] = ends.len() as u32;
                arena.extend_from_slice(&piece[..len]);
                ends.push(arena.len() as u32);
                max_piece = max_piece.max(len);
            }
        }
    }
    let len = HEADER + 4 * entries + 12 * slots + arena.len();
    let mut file: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let bytes = Arc::get_mut(&mut file).expect("a new file has one owner");
    let (header, body) = bytes.split_at_mut(HEADER);
    let (ends_out, rest) = body.split_at_mut(4 * entries);
    let (keys_out, rest) = rest.split_at_mut(8 * slots);
    let (ids_out, arena_out) = rest.split_at_mut(4 * slots);
    put(ends_out, ends.iter().map(|e| e.to_le_bytes()));
    put(keys_out, keys.iter().map(|k| k.to_le_bytes()));
    put(ids_out, ids.iter().map(|i| i.to_le_bytes()));
    arena_out.copy_from_slice(&arena);
    let counts = [VERSION, entries as u32, slots as u32, arena.len() as u32];
    header[..4].copy_from_slice(&MAGIC);
    put(
        &mut header[4..24],
        counts
            .into_iter()
            .chain([max_piece as u32])
            .map(u32::to_le_bytes),
    );
    header[24..].copy_from_slice(&xxh64(body).to_le_bytes());
    file
}

/// Writes `words` back to back into `out`.
fn put<const N: usize>(out: &mut [u8], words: impl Iterator<Item = [u8; N]>) {
    for (slot, word) in out.chunks_exact_mut(N).zip(words) {
        slot.copy_from_slice(&word);
    }
}

/// The first up-to-8 bytes of `bytes`, little-endian and zero-padded.
fn pack(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(word)
}

/// The little-endian `u32` that `b` starts with.
fn le32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

/// The little-endian `u64` that `b` starts with.
fn le64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_lossless() {
        let (t, _) = Tokenizer::load(32_000, &CostModel::default());
        for s in [
            "hello world",
            "the rain in spain",
            "",
            "ünïcödé 😀 text",
            "aaaaaa",
        ] {
            let ids = t.encode(s);
            assert_eq!(t.decode(&ids), s.as_bytes(), "roundtrip failed for {s:?}");
        }
    }

    #[test]
    fn merges_compress_common_text() {
        let (t, _) = Tokenizer::load(151_936, &CostModel::default());
        let s = "the estate reestablishes the reinstatement";
        let ids = t.encode(s);
        assert!(ids.len() < s.len(), "multi-byte pieces should compress");
    }

    #[test]
    fn vocab_size_is_respected_and_deterministic() {
        let (a, _) = Tokenizer::load(50_000, &CostModel::default());
        let (b, _) = Tokenizer::load(50_000, &CostModel::default());
        assert_eq!(a.vocab_size(), 50_000);
        assert_eq!(a.encode("determinism"), b.encode("determinism"));
    }

    #[test]
    fn load_time_scales_with_vocab() {
        let cost = CostModel::default();
        let (_, small) = Tokenizer::load(32_000, &cost);
        let (_, large) = Tokenizer::load(151_936, &cost);
        assert!(large > small);
        // Paper Fig. 8a: ~0.21 s for Qwen1.5's 151936-entry vocab.
        let secs = large.as_secs_f64();
        assert!(
            (0.15..0.30).contains(&secs),
            "tokenizer load {secs}s out of band"
        );
    }

    #[test]
    fn tiny_vocab_still_covers_all_bytes() {
        let (t, _) = Tokenizer::load(10, &CostModel::default());
        assert_eq!(t.vocab_size(), 256);
        let ids = t.encode("\u{0}\u{7f}abc");
        assert_eq!(t.decode(&ids), "\u{0}\u{7f}abc".as_bytes());
    }
}
