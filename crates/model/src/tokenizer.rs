//! Tokenizer loading and a working greedy longest-match tokenizer
//! (loading-phase stage ❸, paper §2.1).
//!
//! Load time is dominated by parsing the vocabulary file, which is why
//! large-vocabulary models (Qwen1.5: 151 936 entries) spend visibly longer
//! in this stage (Fig. 2 / Fig. 8a: 0.21 s for Qwen1.5 4B). The tokenizer
//! itself is a real, deterministic byte-fallback greedy tokenizer: every
//! single byte is a token, plus generated multi-byte merges, so
//! `decode(encode(s)) == s` always holds.

use medusa_gpu::{CostModel, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Longest generated piece, in bytes.
const MAX_PIECE: usize = 8;

/// Pieces drawn ahead of their table lookups; see [`Tokenizer::build`].
const DRAW_BATCH: usize = 64;

/// Packs a piece of at most [`MAX_PIECE`] bytes into a map key: the bytes
/// in the low half, the length in the top byte. A `u64` alone would make
/// an 8-byte piece collide with its zero-padded prefixes.
fn key(piece: &[u8]) -> u128 {
    debug_assert!(piece.len() <= MAX_PIECE);
    let mut b = [0u8; 16];
    b[..piece.len()].copy_from_slice(piece);
    b[15] = piece.len() as u8;
    u128::from_le_bytes(b)
}

/// A multiply-xorshift hash of one packed piece. The keys are not chosen
/// by an adversary, so the keyed default hasher buys nothing here.
#[derive(Default)]
struct PieceHasher(u64);

impl Hasher for PieceHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u128(&mut self, v: u128) {
        let x = (v as u64) ^ ((v >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.0 = x ^ (x >> 31);
    }
}

type PieceMap = HashMap<u128, u32, BuildHasherDefault<PieceHasher>>;

/// A loaded tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Every piece's bytes, back to back in id order.
    arena: Vec<u8>,
    /// Piece `id` is `arena[ends[id - 1]..ends[id]]` (from 0 for id 0).
    ends: Vec<u32>,
    /// Packed piece → id.
    lookup: PieceMap,
    max_piece: usize,
}

impl Tokenizer {
    /// Builds the tokenizer for a `vocab_size`-entry vocabulary and returns
    /// it together with the simulated load duration.
    ///
    /// The vocabulary is deterministic in `vocab_size`: 256 byte tokens plus
    /// generated multi-byte pieces over common ASCII.
    pub fn load(vocab_size: u32, cost: &CostModel) -> (Self, SimDuration) {
        (
            Self::build(vocab_size),
            Self::load_duration(vocab_size, cost),
        )
    }

    /// The simulated duration of [`Tokenizer::load`], without building the
    /// vocabulary.
    pub fn load_duration(vocab_size: u32, cost: &CostModel) -> SimDuration {
        SimDuration::from_nanos(
            cost.tokenizer_fixed_ns + cost.tokenizer_per_entry_ns * vocab_size as u64,
        )
    }

    fn build(vocab_size: u32) -> Self {
        let entries = vocab_size.max(256) as usize;
        let mut arena: Vec<u8> = (0..=255).collect();
        arena.reserve(entries * MAX_PIECE / 2);
        let mut ends: Vec<u32> = Vec::with_capacity(entries);
        ends.extend(1..=256);
        let mut lookup = PieceMap::with_capacity_and_hasher(entries, Default::default());
        lookup.extend((0..=255u8).map(|b| (key(&[b]), u32::from(b))));
        let mut max_piece = 1;
        let mut rng = SmallRng::seed_from_u64(vocab_size as u64);
        const CHARS: &[u8] = b"etaoinshrdlucmfwypvbgkjqxz ETAOIN0123456789.,;:-_'\"";
        // Draws branch unpredictably on each piece's length. Drawing a
        // batch before probing the table keeps the probes free of those
        // branches, so their cache misses overlap. The draw order, and so
        // the vocabulary, is that of one draw and one probe at a time;
        // draws past the last entry are discarded.
        let mut batch = Vec::with_capacity(DRAW_BATCH);
        while ends.len() < entries {
            batch.clear();
            batch.extend((0..DRAW_BATCH).map(|_| {
                let len = 2 + (rng.gen::<usize>() % 7);
                let mut piece = [0u8; MAX_PIECE];
                for c in &mut piece[..len] {
                    *c = CHARS[rng.gen::<usize>() % CHARS.len()];
                }
                key(&piece[..len])
            }));
            for &k in &batch {
                if ends.len() == entries {
                    break;
                }
                if let Entry::Vacant(slot) = lookup.entry(k) {
                    slot.insert(ends.len() as u32);
                    let bytes = k.to_le_bytes();
                    let len = usize::from(bytes[15]);
                    arena.extend_from_slice(&bytes[..len]);
                    ends.push(arena.len() as u32);
                    max_piece = max_piece.max(len);
                }
            }
        }
        Tokenizer {
            arena,
            ends,
            lookup,
            max_piece,
        }
    }

    fn piece(&self, id: usize) -> &[u8] {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.arena[start..self.ends[id] as usize]
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.ends.len() as u32
    }

    /// Encodes text into token ids by greedy longest match with byte
    /// fallback.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let mut matched = None;
            let end = (i + self.max_piece).min(bytes.len());
            for j in (i + 1..=end).rev() {
                if let Some(&id) = self.lookup.get(&key(&bytes[i..j])) {
                    matched = Some((id, j));
                    break;
                }
            }
            let (id, next) = matched.expect("single bytes always match");
            out.push(id);
            i = next;
        }
        out
    }

    /// Decodes token ids back into a byte string.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary range.
    pub fn decode(&self, ids: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        for &id in ids {
            out.extend_from_slice(self.piece(id as usize));
        }
        out
    }
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
