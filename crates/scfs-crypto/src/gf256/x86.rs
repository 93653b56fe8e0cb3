//! Split-nibble GF(2⁸) multiply-accumulate with `pshufb`.
//!
//! `coeff · b = lo[b & 0xf] ^ hi[b >> 4]` for two 16-entry tables, and a
//! 16-entry byte table is exactly what one SSSE3 `pshufb` looks up in
//! parallel: 16 bytes per instruction.

use std::arch::x86_64::*;

/// Multiply-accumulates the longest prefix of `src` into `dst` that the
/// SSSE3 kernel covers, and returns its length. The caller finishes the
/// tail, and everything when this returns 0 (a CPU without SSSE3).
pub(super) fn mul_add_prefix(coeff: u8, src: &[u8], dst: &mut [u8]) -> usize {
    if !is_x86_feature_detected!("ssse3") {
        return 0;
    }
    let (lo, hi) = super::nibble_tables(coeff);
    // SAFETY: the CPU supports SSSE3, the only feature `mul_add_ssse3` enables.
    unsafe { mul_add_ssse3(&lo, &hi, src, dst) }
}

#[target_feature(enable = "ssse3")]
fn mul_add_ssse3(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) -> usize {
    // SAFETY: `lo` and `hi` are 16 bytes each; unaligned loads are allowed.
    let (lo, hi) = unsafe {
        (
            _mm_loadu_si128(lo.as_ptr().cast()),
            _mm_loadu_si128(hi.as_ptr().cast()),
        )
    };
    let nibble = _mm_set1_epi8(0x0f);
    let mut done = 0;
    for (s, d) in src.chunks_exact(16).zip(dst.chunks_exact_mut(16)) {
        // SAFETY: `s` and `d` are exactly 16 bytes long, the width of one
        // unaligned load or store.
        unsafe {
            let v = _mm_loadu_si128(s.as_ptr().cast());
            let low = _mm_and_si128(v, nibble);
            let high = _mm_and_si128(_mm_srli_epi64::<4>(v), nibble);
            let product = _mm_xor_si128(_mm_shuffle_epi8(lo, low), _mm_shuffle_epi8(hi, high));
            let acc = _mm_loadu_si128(d.as_ptr().cast());
            _mm_storeu_si128(d.as_mut_ptr().cast(), _mm_xor_si128(acc, product));
        }
        done += 16;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::super::{mul, mul_add_scalar};
    use super::*;
    use proptest::prelude::*;

    /// Runs the SSSE3 kernel on `src`/`dst` and finishes the tail with the
    /// scalar code; `None` when the CPU lacks SSSE3.
    fn run(coeff: u8, src: &[u8], dst: &[u8]) -> Option<Vec<u8>> {
        if !is_x86_feature_detected!("ssse3") {
            return None;
        }
        let mut out = dst.to_vec();
        let done = mul_add_prefix(coeff, src, &mut out);
        assert_eq!(done, src.len() / 16 * 16, "whole 16-byte steps only");
        mul_add_scalar(coeff, &src[done..], &mut out[done..]);
        Some(out)
    }

    #[test]
    fn vector_kernel_matches_mul_for_every_coefficient() {
        let src: Vec<u8> = (0..=255u8).chain(0..=66).collect();
        for coeff in 0..=255u8 {
            let dst = vec![0xa5; src.len()];
            let want: Vec<u8> = src.iter().map(|&s| 0xa5 ^ mul(coeff, s)).collect();
            if let Some(got) = run(coeff, &src, &dst) {
                assert_eq!(got, want, "coeff {coeff}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_vector_kernel_matches_scalar(
            coeff in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..32,
        ) {
            let src = &data[offset.min(data.len())..];
            let dst: Vec<u8> = src.iter().map(|b| b.rotate_left(3)).collect();
            let mut scalar = dst.clone();
            mul_add_scalar(coeff, src, &mut scalar);
            if let Some(got) = run(coeff, src, &dst) {
                prop_assert_eq!(&got, &scalar);
            }
        }
    }
}
