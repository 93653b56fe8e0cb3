//! Eight-block ChaCha20 keystream on AVX2.
//!
//! Each of the sixteen state words lives in one 256-bit register whose
//! eight 32-bit lanes belong to eight consecutive blocks, so a quarter round
//! is eight quarter rounds with no shuffling between columns and diagonals.
//! A final 8×8 transpose turns the lanes back into contiguous blocks, which
//! are XORed into the data 32 bytes at a time.

use std::arch::x86_64::*;

/// Blocks per keystream batch.
const LANES: usize = 8;
/// Bytes per keystream batch.
const BATCH: usize = 64 * LANES;

/// XORs the keystream starting at `input` (the 16-word block input, whose
/// word 12 is the counter) into `data` and returns `true`, or returns
/// `false` with `data` untouched when the CPU lacks AVX2.
pub(super) fn apply_keystream(input: &[u32; 16], data: &mut [u8]) -> bool {
    if !is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: the CPU supports AVX2, the only feature `xor_keystream` enables.
    unsafe { xor_keystream(input, data) };
    true
}

#[target_feature(enable = "avx2")]
fn xor_keystream(input: &[u32; 16], data: &mut [u8]) {
    let mut input = *input;
    let mut batches = data.chunks_exact_mut(BATCH);
    for batch in &mut batches {
        let keystream = blocks8(&input);
        for (d, k) in batch.chunks_exact_mut(32).zip(keystream) {
            // SAFETY: `d` is exactly 32 bytes, one unaligned load and store.
            unsafe {
                let v = _mm256_loadu_si256(d.as_ptr().cast());
                _mm256_storeu_si256(d.as_mut_ptr().cast(), _mm256_xor_si256(v, k));
            }
        }
        input[12] = input[12].wrapping_add(LANES as u32);
    }
    let tail = batches.into_remainder();
    if !tail.is_empty() {
        // SAFETY: sixteen 32-byte vectors and 512 bytes have the same size,
        // and every bit pattern is a valid byte.
        let keystream: [u8; BATCH] = unsafe { std::mem::transmute(blocks8(&input)) };
        for (d, k) in tail.iter_mut().zip(keystream) {
            *d ^= k;
        }
    }
}

/// Rotates every 32-bit lane left by 16 or by 8 with one byte shuffle.
#[inline]
#[target_feature(enable = "avx2")]
fn rotate_bytes(v: __m256i, by: i32) -> __m256i {
    let table = if by == 16 {
        _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        )
    } else {
        _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        )
    };
    _mm256_shuffle_epi8(v, table)
}

/// Eight quarter rounds, one per lane, on words `a`, `b`, `c`, `d`.
#[inline]
#[target_feature(enable = "avx2")]
fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = rotate_bytes(_mm256_xor_si256(x[d], x[a]), 16);
    x[c] = _mm256_add_epi32(x[c], x[d]);
    let t = _mm256_xor_si256(x[b], x[c]);
    x[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = rotate_bytes(_mm256_xor_si256(x[d], x[a]), 8);
    x[c] = _mm256_add_epi32(x[c], x[d]);
    let t = _mm256_xor_si256(x[b], x[c]);
    x[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
}

/// Transposes eight rows of eight 32-bit words: lane `i` of output `j` is
/// lane `j` of input `i`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8(r: &[__m256i]) -> [__m256i; 8] {
    let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    // u0 holds lane 0 of rows 0..4 in its low half and lane 4 in its high
    // half; u1 lanes 1 and 5, u2 lanes 2 and 6, u3 lanes 3 and 7. u4..u7
    // are the same for rows 4..8.
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}

/// The keystream of blocks `input[12]`, `input[12] + 1`, …, `+ 7`
/// (counters wrap), as 32-byte halves in output order.
#[target_feature(enable = "avx2")]
fn blocks8(input: &[u32; 16]) -> [__m256i; 16] {
    let mut x = [_mm256_setzero_si256(); 16];
    for (v, &word) in x.iter_mut().zip(input) {
        *v = _mm256_set1_epi32(word as i32);
    }
    x[12] = _mm256_add_epi32(x[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let initial = x;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (v, i) in x.iter_mut().zip(initial) {
        *v = _mm256_add_epi32(*v, i);
    }
    // Words 0..8 of block j are lane j of x[0..8], words 8..16 lane j of
    // x[8..16].
    let first = transpose8(&x[..8]);
    let second = transpose8(&x[8..]);
    let mut out = [_mm256_setzero_si256(); 16];
    for (j, pair) in out.chunks_exact_mut(2).enumerate() {
        pair[0] = first[j];
        pair[1] = second[j];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::ChaCha20;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_avx2_matches_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..64,
            key_byte in any::<u8>(),
            counter in any::<u32>(),
        ) {
            let c = ChaCha20::new(&[key_byte; 32], &[key_byte.rotate_left(1); 12]);
            let data = &data[offset.min(data.len())..];
            let mut scalar = data.to_vec();
            c.apply_keystream_scalar(counter, &mut scalar);
            let mut avx2 = data.to_vec();
            if apply_keystream(&c.state(counter), &mut avx2) {
                prop_assert_eq!(avx2, scalar);
            }
        }
    }
}
