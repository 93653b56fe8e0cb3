//! S001 fixture: `unsafe` that the rule must flag when this file is linted
//! as a kernel module (two unjustified blocks) and, anywhere else, every
//! `unsafe` token (four).

use std::arch::x86_64::*;

pub fn load(bytes: &[u8; 16]) -> __m128i {
    // A comment that is not a justification.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

pub fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 bytes long.
    let p = bytes.as_mut_ptr().cast();
    unsafe { _mm_storeu_si128(p, v) }
}

#[cfg(test)]
mod tests {
    // SAFETY: test code must justify its blocks too.
    unsafe fn helper() {}

    #[test]
    fn t() {
        // SAFETY: `helper` has no preconditions.
        unsafe { helper() }
    }
}
