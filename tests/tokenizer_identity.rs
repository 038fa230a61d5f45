//! Tokenizer identity: the vocabulary is a pure function of its size, id
//! for id, and every byte string round-trips through it.
//!
//! The digests below were computed from the `Vec<Vec<u8>>` + `HashMap`
//! tokenizer that preceded the packed arena. Any change to the RNG draw
//! sequence, the first-seen dedup or the id order changes them.

use medusa_gpu::CostModel;
use medusa_model::Tokenizer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// FNV-1a over every piece in id order, each prefixed by its length.
fn vocab_digest(t: &Tokenizer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for id in 0..t.vocab_size() {
        let piece = t.decode(&[id]);
        eat(piece.len() as u8);
        piece.into_iter().for_each(&mut eat);
    }
    h
}

fn load(vocab: u32) -> Tokenizer {
    Tokenizer::load(vocab, &CostModel::default()).0
}

/// Qwen1.5's 151,936-entry tokenizer, built once for every case below.
fn qwen() -> &'static Tokenizer {
    static QWEN: OnceLock<Tokenizer> = OnceLock::new();
    QWEN.get_or_init(|| load(151_936))
}

#[test]
fn llama_vocabulary_is_identical_id_for_id() {
    let t = load(32_000);
    assert_eq!(t.vocab_size(), 32_000);
    assert_eq!(vocab_digest(&t), LLAMA_32000);
}

#[test]
fn qwen_vocabulary_is_identical_id_for_id() {
    let t = qwen();
    assert_eq!(t.vocab_size(), 151_936);
    assert_eq!(vocab_digest(t), QWEN_151936);
}

const LLAMA_32000: u64 = 0x8342_1507_0cf4_0082;
const QWEN_151936: u64 = 0x514e_9954_fe90_da33;

/// FNV-1a over the ids `encode` gives for each text of [`corpus`], each
/// run prefixed by its length.
fn encode_digest(t: &Tokenizer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for text in corpus(t) {
        let ids = t.encode(&text);
        eat(ids.len() as u32);
        ids.into_iter().for_each(&mut eat);
    }
    h
}

/// The texts [`encode_digest`] covers: the micro bench's sentence, the
/// vocabulary's first 8-byte piece repeated, non-ASCII and invalid UTF-8
/// (encoded lossily), and 4 KiB of seeded merge-alphabet text.
fn corpus(t: &Tokenizer) -> Vec<String> {
    let eight = (256..t.vocab_size())
        .map(|id| t.decode(&[id]))
        .find(|piece| piece.len() == 8)
        .expect("the vocabulary holds 8-byte pieces");
    let mut rng = SmallRng::seed_from_u64(0x70c_e4c0de);
    let merges: Vec<u8> = (0..4096)
        .map(|_| MERGE_CHARS[rng.gen::<usize>() % MERGE_CHARS.len()])
        .collect();
    vec![
        "the quick brown fox jumps over the lazy dog ".repeat(32),
        String::from_utf8(eight.repeat(16)).expect("ASCII piece"),
        "ünïcödé 😀 ∑ text \u{0}\u{7f}\u{80}\u{7ff}\u{ffff}".to_string(),
        String::from_utf8_lossy(b"ab\xff\xfecd\xc3(\xe2\x82the\xf0\x9f\x98").into_owned(),
        String::from_utf8(merges).expect("ASCII"),
    ]
}

/// `encode` gives the same ids, id for id, as the `HashMap` tokenizer that
/// preceded the vocabulary file.
#[test]
fn encode_is_pinned() {
    assert_eq!(encode_digest(&load(32_000)), ENCODE_32000);
    assert_eq!(encode_digest(qwen()), ENCODE_151936);
}

const ENCODE_32000: u64 = 0xa691_6fa0_1c05_628d;
const ENCODE_151936: u64 = 0xe004_3d3a_9ff1_a239;

/// The ASCII the merges are drawn from, so random text matches long
/// pieces, 8-byte ones included.
const MERGE_CHARS: &[u8] = b"etaoinshrdlucmfwypvbgkjqxz ETAOIN0123456789.,;:-_'\"";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Half the bytes come from the merge alphabet, half are arbitrary
    /// (non-ASCII and invalid UTF-8 included, encoded lossily).
    #[test]
    fn decode_inverts_encode(draws in prop::collection::vec((any::<bool>(), any::<u8>()), 0..96)) {
        let t = qwen();
        let bytes: Vec<u8> = draws
            .into_iter()
            .map(|(merge, b)| if merge { MERGE_CHARS[b as usize % MERGE_CHARS.len()] } else { b })
            .collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let ids = t.encode(&text);
        prop_assert_eq!(t.decode(&ids), text.as_bytes());
        prop_assert!(ids.len() <= text.len());
    }
}

#[test]
fn eight_byte_pieces_and_non_ascii_round_trip() {
    let t = qwen();
    // Pieces are 2..=8 bytes; find an 8-byte one by decoding and make sure
    // encoding it yields exactly that id back.
    let eight = (256..t.vocab_size())
        .find(|&id| t.decode(&[id]).len() == 8)
        .expect("the vocabulary holds 8-byte pieces");
    let piece = String::from_utf8(t.decode(&[eight])).expect("ASCII piece");
    assert_eq!(t.encode(&piece), vec![eight]);
    for s in [
        format!("{piece}{piece}ü"),
        "ünïcödé 😀 ∑ text".to_string(),
        "\u{0}\u{7f}\u{80}\u{7ff}\u{ffff}".to_string(),
    ] {
        assert_eq!(t.decode(&t.encode(&s)), s.as_bytes(), "{s:?}");
    }
}
