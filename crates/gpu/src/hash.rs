//! XXH64, the workspace's one byte-level digest, and splitmix64, its one
//! 64-bit mixer. They live in this crate because this is the one crate
//! under both the model (the tokenizer's vocabulary file) and core (MAF2,
//! the chunk registry, fault injection) and serving.

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64 (seed 0) of `bytes`: the one byte-level digest of the workspace.
/// It seals the artifact formats (re-exported there as `maf2_digest`) and
/// the tokenizer's vocabulary file. Four 64-bit lanes consume 32 bytes per
/// step, so the digest costs a fraction of a byte-serial hash.
pub fn xxh64(bytes: &[u8]) -> u64 {
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(XXH_P2))
            .rotate_left(31)
            .wrapping_mul(XXH_P1)
    }
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = round(*a, le64(stripe, i * 8));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| {
            (h ^ round(0, a)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
        })
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, le64(w, 0)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        h = (h ^ u64::from(le32(rest, 0)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// The SplitMix64 output for state `seed`: a well-distributed 64-bit value
/// that is a pure function of the seed. Every seeded choice of the
/// workspace draws from it: fault injection, fleet fault rolls, prewarm
/// jitter, synthetic chunk digests and template salts.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Little-endian `u32` at `at` of `b`.
fn le32(b: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(a)
}

/// Little-endian `u64` at `at` of `b`.
fn le64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::splitmix64;

    #[test]
    fn splitmix64_gives_the_reference_sequence() {
        // The first two outputs of a SplitMix64 generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }
}
