//! Cryptographic and coding primitives for the SCFS reproduction.
//!
//! The DepSky cloud-of-clouds write path (paper §3.2, Figure 6) performs four
//! steps on every file: (1) generate a random key, (2) encrypt the file,
//! (3) erasure-code the ciphertext into one block per cloud, and (4) split
//! the key with a secret-sharing scheme so that no single cloud can decrypt
//! the data. The consistency-anchor algorithm (paper §2.4) additionally needs
//! a collision-resistant hash of every file version.
//!
//! This crate implements all of those primitives from scratch so that the
//! workspace has no external cryptography dependencies:
//!
//! * [`sha256()`] — the collision-resistant hash (the paper's prototype uses
//!   SHA-1 for metadata tuples; SHA-1 is no longer collision resistant, so
//!   the reproduction uses SHA-256 throughout).
//! * [`chacha20`] — a stream cipher used to encrypt file contents before
//!   they are dispersed to the clouds.
//! * [`gf256`] — arithmetic over GF(2⁸), the base field for both the erasure
//!   code and the secret-sharing scheme.
//! * [`erasure`] — a systematic Reed–Solomon erasure code (`k` data blocks,
//!   `m` parity blocks; any `k` blocks reconstruct the data).
//! * [`shamir`] — Shamir secret sharing for the file encryption keys.
//! * [`keys`] — deterministic-for-testing key generation.
//!
//! The three bulk kernels — the SHA-256 compression function, the GF(2⁸)
//! multiply-accumulate behind the erasure code, and the ChaCha20 keystream —
//! check the CPU's features once per call and use x86-64 SHA-NI, AVX2 or
//! SSSE3 when present, with portable scalar code as the fallback. Every path
//! produces identical bytes. The `unsafe` those paths need is confined to
//! the `x86` submodules of [`mod@sha256`], [`gf256`] and [`mod@chacha20`].
//!
//! None of this code is intended for production cryptographic use; it exists
//! to faithfully reproduce the *system behaviour* (sizes, overheads, failure
//! tolerance) of the original SCFS/DepSky stack.

pub mod chacha20;
pub mod erasure;
pub mod gf256;
pub mod hmac;
pub mod keys;
pub mod sha256;
pub mod shamir;

pub use chacha20::ChaCha20;
pub use erasure::{ErasureCoder, ErasureError};
pub use keys::KeyGenerator;
pub use sha256::{sha256, sha256_hex, Sha256};
pub use shamir::{combine_shares, split_secret, ShamirError, Share};

/// A 32-byte content hash (SHA-256 output), used as the version identifier in
/// consistency anchors and DepSky metadata.
pub type ContentHash = [u8; 32];

/// Hex-encodes a byte slice (lower-case).
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// Decodes a lower- or upper-case hex string; returns `None` on bad input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let data = vec![0x00, 0x0f, 0xa5, 0xff];
        let hex = to_hex(&data);
        assert_eq!(hex, "000fa5ff");
        assert_eq!(from_hex(&hex).unwrap(), data);
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn hex_accepts_uppercase() {
        assert_eq!(from_hex("A5FF").unwrap(), vec![0xa5, 0xff]);
    }
}
