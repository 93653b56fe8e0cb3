//! S001 fixture: a kernel module whose every `unsafe` block is justified.
//! Linted as a kernel module it must stay clean.

use std::arch::x86_64::*;

/// Loads 16 bytes, or `None` without SSE2.
pub fn load(bytes: &[u8; 16]) -> Option<__m128i> {
    if !is_x86_feature_detected!("sse2") {
        return None;
    }
    // SAFETY: SSE2 is available and `bytes` is 16 bytes long.
    Some(unsafe { load_sse2(bytes) })
}

#[target_feature(enable = "sse2")]
fn load_sse2(bytes: &[u8; 16]) -> __m128i {
    /* SAFETY: `bytes` is 16 bytes long, and unaligned
       loads are allowed. */
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

// "unsafe" in a string or a comment is not code.
pub const NOTE: &str = "unsafe { }";
