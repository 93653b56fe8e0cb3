//! ChaCha20 stream cipher (RFC 8439 block structure).
//!
//! DepSky-CA encrypts every file with a fresh random symmetric key before
//! erasure-coding it across the clouds (paper §3.2, Figure 6, step 2). We use
//! ChaCha20 as that symmetric cipher: it is simple to implement correctly,
//! fast in pure Rust and — because it is a stream cipher — the ciphertext has
//! exactly the same length as the plaintext, which keeps the storage-overhead
//! accounting of the cost experiments (Figure 11(c)) faithful.
//!
//! On x86-64 CPUs with AVX2, checked at run time, the keystream is made
//! eight blocks at a time in vector registers; elsewhere one block at a time
//! in scalar code. Both produce the same bytes.

#[cfg(target_arch = "x86_64")]
mod x86;

/// ChaCha20 cipher instance bound to a 256-bit key and 96-bit nonce.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

impl ChaCha20 {
    /// Creates a cipher from a 32-byte key and a 12-byte nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// Encrypts or decrypts `data` in place starting at block `counter`.
    /// ChaCha20 is an involution under the same (key, nonce, counter), so the
    /// same call decrypts.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if x86::apply_keystream(&self.state(counter), data) {
            return;
        }
        self.apply_keystream_scalar(counter, data);
    }

    /// The portable [`ChaCha20::apply_keystream`], one block at a time.
    fn apply_keystream_scalar(&self, counter: u32, data: &mut [u8]) {
        let mut block_counter = counter;
        for chunk in data.chunks_mut(64) {
            let keystream = self.block(block_counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            block_counter = block_counter.wrapping_add(1);
        }
    }

    /// Convenience: encrypts a buffer and returns the ciphertext.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.apply_keystream(1, &mut out);
        out
    }

    /// Convenience: decrypts a buffer and returns the plaintext.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Vec<u8> {
        // Symmetric with `encrypt`.
        self.encrypt(ciphertext)
    }

    /// The 16-word input block for block number `counter`.
    fn state(&self, counter: u32) -> [u32; 16] {
        // "expand 32-byte k" constants.
        [
            0x61707865u32,
            0x3320646e,
            0x79622d32,
            0x6b206574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter,
            self.nonce[0],
            self.nonce[1],
            self.nonce[2],
        ]
    }

    /// Produces one 64-byte keystream block.
    fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = self.state(counter);
        let initial = state;

        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }

        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher(key_byte: u8) -> ChaCha20 {
        let key = [key_byte; 32];
        let nonce = [7u8; 12];
        ChaCha20::new(&key, &nonce)
    }

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 §2.1.1 test vector for the quarter round.
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9b8d6f43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a92f4);
        assert_eq!(state[1], 0xcb1cf8ce);
        assert_eq!(state[2], 0x4581472e);
        assert_eq!(state[3], 0x5881c4bb);
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: the "sunscreen" example at initial counter 1.
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let c = ChaCha20::new(&key, &[0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let want = "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
                    f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
                    07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
                    5af90bbf74a35be6b40b8eedf2785e42874d";
        assert_eq!(plaintext.len(), 114);
        assert_eq!(crate::to_hex(&c.encrypt(plaintext)), want);
        let mut scalar = plaintext.to_vec();
        c.apply_keystream_scalar(1, &mut scalar);
        assert_eq!(crate::to_hex(&scalar), want);
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let c = cipher(0xAB);
        let plaintext = b"the quick brown fox jumps over the lazy dog".to_vec();
        let ct = c.encrypt(&plaintext);
        assert_ne!(ct, plaintext);
        assert_eq!(c.decrypt(&ct), plaintext);
    }

    #[test]
    fn ciphertext_length_equals_plaintext_length() {
        let c = cipher(1);
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let pt = vec![0x55u8; len];
            assert_eq!(c.encrypt(&pt).len(), len);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let pt = vec![0u8; 128];
        let a = cipher(1).encrypt(&pt);
        let b = cipher(2).encrypt(&pt);
        assert_ne!(a, b);
    }

    #[test]
    fn different_nonces_produce_different_ciphertexts() {
        let key = [9u8; 32];
        let a = ChaCha20::new(&key, &[1u8; 12]).encrypt(&[0u8; 64]);
        let b = ChaCha20::new(&key, &[2u8; 12]).encrypt(&[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_blocks_differ_by_counter() {
        let c = cipher(3);
        let b0 = c.block(0);
        let b1 = c.block(1);
        assert_ne!(b0, b1);
    }

    proptest! {
        #[test]
        fn prop_round_trip(data in proptest::collection::vec(any::<u8>(), 0..2048), key_byte in any::<u8>()) {
            let c = cipher(key_byte);
            prop_assert_eq!(c.decrypt(&c.encrypt(&data)), data);
        }

        #[test]
        fn prop_matches_scalar_at_any_offset_and_split(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..64,
            split_blocks in 0usize..64,
            counter in any::<u32>(),
        ) {
            let c = cipher(0x3c);
            let data = &data[offset.min(data.len())..];
            let mut scalar = data.to_vec();
            c.apply_keystream_scalar(counter, &mut scalar);
            let mut whole = data.to_vec();
            c.apply_keystream(counter, &mut whole);
            prop_assert_eq!(&whole, &scalar);
            // Two calls split at a block boundary continue the counter.
            let split = (split_blocks * 64).min(data.len());
            let mut parts = data.to_vec();
            let (head, tail) = parts.split_at_mut(split);
            c.apply_keystream(counter, head);
            c.apply_keystream(counter.wrapping_add(split_blocks as u32), tail);
            prop_assert_eq!(&parts, &scalar);
        }

        #[test]
        fn prop_wrong_key_does_not_decrypt(data in proptest::collection::vec(any::<u8>(), 32..256)) {
            let ct = cipher(1).encrypt(&data);
            let wrong = cipher(2).decrypt(&ct);
            prop_assert_ne!(wrong, data);
        }
    }
}
