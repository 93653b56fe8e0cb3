//! Kernel probes: throughput of the public `scfs_crypto` and `ChunkMap`
//! functions the data path spends its CPU in, measured on a fixed buffer of
//! the workload's own generated payload. Every probe checks its output:
//! round-trip decryption and decoding, and hashes against known digests.

use std::hint::black_box;
use std::time::Instant;

use scfs::types::{CdcParams, ChunkMap, DEFAULT_CHUNK_SIZE};
use scfs_crypto::{sha256, ChaCha20, ErasureCoder};

/// Bytes each probe processes per repetition.
pub const PROBE_BYTES: usize = 4 << 20;
/// Repetitions per probe; the reported rate is their median.
const REPS: usize = 5;

/// Throughput of each kernel in MB/s (10⁶ bytes per second).
#[derive(Debug, Clone, Copy)]
pub struct KernelRates {
    /// `sha256` over the buffer.
    pub sha256: f64,
    /// ChaCha20 encryption of the buffer.
    pub chacha20: f64,
    /// Reed–Solomon encode with the DepSky f = 1 code.
    pub rs_encode: f64,
    /// Reed–Solomon decode from parity (both data shards lost).
    pub rs_decode: f64,
    /// `ChunkMap::build` at the default chunk size.
    pub fixed_chunking: f64,
    /// `ChunkMap::build_cdc` at the default average chunk size.
    pub cdc_chunking: f64,
}

/// A probe whose output did not verify.
#[derive(Debug)]
pub struct ProbeError(pub &'static str);

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times `f` `REPS` times and returns the median rate over `bytes`.
fn rate(bytes: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                f();
                bytes as f64 / start.elapsed().as_secs_f64() / 1e6
            })
            .collect(),
    )
}

/// Checks that every chunk of `map` hashes to the digest it records and
/// that the chunks tile `data`.
fn verify_map(map: &ChunkMap, data: &[u8]) -> Result<(), ProbeError> {
    let mut end = 0;
    for (i, hash) in map.chunks().iter().enumerate() {
        let range = map.byte_range(i);
        if range.start != end || sha256(&data[range.clone()]) != *hash {
            return Err(ProbeError("chunk map does not hash its own chunks"));
        }
        end = range.end;
    }
    if end != data.len() || map.file_len() != data.len() as u64 {
        return Err(ProbeError("chunk map does not cover the buffer"));
    }
    Ok(())
}

/// Runs every probe on `buf` (at least [`PROBE_BYTES`] long).
pub fn run(buf: &[u8]) -> Result<KernelRates, ProbeError> {
    let buf = &buf[..PROBE_BYTES];

    // SHA-256: the FIPS 180-2 "abc" vector, then the buffer's digest must be
    // the same on every repetition.
    if scfs_crypto::to_hex(&sha256(b"abc"))
        != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    {
        return Err(ProbeError("sha256 fails its known-answer vector"));
    }
    let digest = sha256(buf);
    let mut same = true;
    let sha = rate(buf.len(), || {
        same &= black_box(sha256(black_box(buf))) == digest
    });
    if !same {
        return Err(ProbeError("sha256 is not deterministic"));
    }

    let cipher = ChaCha20::new(&[7u8; 32], &[9u8; 12]);
    let mut sealed = Vec::new();
    let chacha = rate(buf.len(), || sealed = cipher.encrypt(black_box(buf)));
    if sealed == buf || cipher.decrypt(&sealed) != buf {
        return Err(ProbeError("chacha20 does not round-trip"));
    }

    let coder = ErasureCoder::depsky(1).expect("f = 1 is a valid DepSky code");
    let mut shards = Vec::new();
    let rs_encode = rate(buf.len(), || shards = coder.encode(black_box(buf)));
    // Lose every data shard, so decoding has to solve from parity.
    let partial: Vec<Option<Vec<u8>>> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| (i >= coder.data_shards()).then(|| s.clone()))
        .collect();
    let mut decoded = Ok(Vec::new());
    let rs_decode = rate(buf.len(), || {
        decoded = coder.decode(black_box(&partial), buf.len())
    });
    if decoded.as_deref().ok() != Some(buf) {
        return Err(ProbeError("Reed-Solomon decode does not round-trip"));
    }

    let mut fixed = ChunkMap::build(&[], DEFAULT_CHUNK_SIZE);
    let fixed_chunking = rate(buf.len(), || {
        fixed = ChunkMap::build(black_box(buf), DEFAULT_CHUNK_SIZE)
    });
    verify_map(&fixed, buf)?;
    let params = CdcParams::with_avg(DEFAULT_CHUNK_SIZE);
    let mut cdc = ChunkMap::build(&[], DEFAULT_CHUNK_SIZE);
    let cdc_chunking = rate(buf.len(), || {
        cdc = ChunkMap::build_cdc(black_box(buf), &params)
    });
    verify_map(&cdc, buf)?;

    Ok(KernelRates {
        sha256: sha,
        chacha20: chacha,
        rs_encode,
        rs_decode,
        fixed_chunking,
        cdc_chunking,
    })
}
