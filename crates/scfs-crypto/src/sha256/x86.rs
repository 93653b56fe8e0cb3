//! The SHA-256 compression function on the x86-64 SHA extensions.
//!
//! `sha256rnds2` runs two rounds on a state split across two registers,
//! `ABEF` and `CDGH`; `sha256msg1`/`sha256msg2` compute the message
//! schedule four words at a time. The layout follows Intel's reference
//! code for the extensions.

use std::arch::x86_64::*;

use super::K;

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state` and
/// returns `true`, or returns `false` untouched when the CPU lacks SHA-NI.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the CPU supports every feature `compress_shani` enables
    // (SSE2 is part of the x86-64 baseline).
    unsafe { compress_shani(state, blocks) };
    true
}

/// `K[4 * group..4 * group + 4]` as one vector, lowest lane first.
#[inline]
#[target_feature(enable = "sse2")]
fn round_constants(group: usize) -> __m128i {
    let k = &K[4 * group..4 * group + 4];
    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32)
}

/// Four rounds with message words `w` (already in schedule order).
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
    let wk = _mm_add_epi32(w, round_constants(group));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// The next four schedule words from the previous sixteen.
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte order: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is 32 bytes, two unaligned 16-byte loads.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is exactly 64 bytes, four unaligned 16-byte loads.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        w0 = _mm_shuffle_epi8(w0, bswap);
        w1 = _mm_shuffle_epi8(w1, bswap);
        w2 = _mm_shuffle_epi8(w2, bswap);
        w3 = _mm_shuffle_epi8(w3, bswap);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        // Groups 4..16: each derives its words from the previous four
        // groups; the window slides one group per step.
        for group in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, group);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, group + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, group + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, group + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 bytes, two unaligned 16-byte stores.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{compress_scalar, INIT};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_shani_matches_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..64,
            seed in any::<u32>(),
        ) {
            let data = &data[offset.min(data.len())..];
            let blocks = &data[..data.len() - data.len() % 64];
            let start: [u32; 8] = std::array::from_fn(|i| INIT[i] ^ seed.rotate_left(i as u32));
            let mut scalar = start;
            compress_scalar(&mut scalar, blocks);
            let mut shani = start;
            if compress(&mut shani, blocks) {
                prop_assert_eq!(shani, scalar);
            }
        }
    }
}
