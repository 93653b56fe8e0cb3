//! Perf-trajectory harness for the chunk transfer engine and the global
//! chunk store.
//!
//! Measures the *virtual-time* foreground latency of closing a dirty
//! 16-chunk (16 MiB) file at several parallelism levels, on both backends
//! with the paper's WAN provider profiles — plus, per row, the latency of
//! closing an identical copy of the file under a *second* path: with the
//! refcounted global chunk store that close uploads zero chunks (only the
//! new manifest moves), so the dedup column tracks how much of the write
//! path the cross-file dedup eliminates.
//!
//! A second scenario records the **mid-file-insert** workload
//! (`workloads::editsync`): a 1 KiB insert at the midpoint of a committed
//! 16 MiB file, closed once under fixed-size chunking and once under
//! content-defined chunking. Fixed-size chunking re-uploads the whole
//! shifted tail (O(file)); CDC re-aligns the tail to identical hashes and
//! moves O(edit) chunks — the shift-resistant dedup win, tracked per
//! backend as chunks moved and close latency. Everything is written to
//! `target/BENCH_transfer.json` so future PRs can track the trajectories.
//! Virtual time is deterministic given the seed, so the emitted numbers are
//! stable across machines.
//!
//! Runs under `cargo bench --bench transfer_engine` (the CI bench-smoke
//! step); it is a plain `main`, not a timing harness, because the metric is
//! simulated seconds rather than host wall-clock.
//!
//! The results are **appended** to the committed `BENCH_transfer.json` at
//! the repository root — one run record per line, so the file is the
//! in-repo perf trajectory across PRs. A run identical to the last recorded
//! one leaves the file untouched (virtual time is deterministic, so a
//! perf-neutral change produces a byte-identical record); the CI bench-smoke
//! step diffs the file to show exactly how the trajectory moved. The latest
//! run is also mirrored to `target/BENCH_transfer.json` for the CI artifact.

use scfs::config::{Mode, ScfsConfig};
use scfs::fs::FileSystem;
use sim_core::units::Bytes;
use workloads::editsync::{run_mid_file_insert, InsertResult};
use workloads::setup::{Backend, SharedScfsEnv};

const MIB: usize = 1 << 20;
const CHUNKS: usize = 16;
const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];

/// A 16 MiB file whose 1 MiB chunks all differ from one another.
fn sixteen_mib() -> Vec<u8> {
    let mut data = vec![0u8; CHUNKS * MIB];
    for (i, chunk) in data.chunks_mut(MIB).enumerate() {
        chunk.fill(i as u8 + 1);
    }
    data
}

/// Foreground virtual seconds of (a) a dirty 16-chunk close on a fresh
/// agent and (b) closing an identical copy under a second path right after
/// — the cross-file dedup write, which moves only the manifest.
fn close_latencies_secs(backend: Backend, parallel: usize, data: &[u8]) -> (f64, f64) {
    let env = SharedScfsEnv::new(backend, Mode::Blocking, 7);
    let mut config = ScfsConfig::paper_default(Mode::Blocking);
    config.max_parallel_transfers = parallel;
    let mut fs = env.mount("alice", config, 7);
    let start = fs.now();
    fs.write_file("/bench/big", data).expect("close commits");
    let cold = fs.now().duration_since(start).as_secs_f64();
    let chunk_uploads_before = fs.stats().chunk_uploads;
    let start = fs.now();
    fs.write_file("/bench/copy", data)
        .expect("dedup close commits");
    let dedup = fs.now().duration_since(start).as_secs_f64();
    assert_eq!(
        fs.stats().chunk_uploads,
        chunk_uploads_before,
        "the identical copy must upload zero chunks"
    );
    (cold, dedup)
}

/// The mid-file-insert workload under the given chunking: a 1 KiB insert at
/// the midpoint of a committed 16 MiB file, on a fresh agent.
fn insert_outcome(backend: Backend, config: ScfsConfig) -> InsertResult {
    let env = SharedScfsEnv::new(backend, Mode::Blocking, 7);
    let mut fs = env.mount("alice", config, 7);
    run_mid_file_insert(&mut fs, "/bench/doc", Bytes::mib(16), Bytes::kib(1), 7)
        .expect("mid-file insert commits")
}

fn main() {
    let data = sixteen_mib();
    let mut rows = Vec::new();
    println!("transfer_engine: 16-chunk dirty close, foreground virtual seconds");
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let label = match backend {
            Backend::Aws => "AWS",
            Backend::CloudOfClouds => "CoC",
        };
        let mut sequential = None;
        for parallel in PARALLELISMS {
            let (secs, dedup_secs) = close_latencies_secs(backend, parallel, &data);
            let sequential = *sequential.get_or_insert(secs);
            println!(
                "  {label} parallelism {parallel:>2}: {secs:>7.3}s (speedup {:.2}x, \
                 dedup copy {dedup_secs:.3}s)",
                sequential / secs
            );
            rows.push(format!(
                "{{\"backend\": \"{label}\", \"parallelism\": {parallel}, \
                 \"close_virtual_secs\": {secs:.6}, \"speedup_vs_sequential\": {:.4}, \
                 \"dedup_copy_close_virtual_secs\": {dedup_secs:.6}}}",
                sequential / secs
            ));
        }
    }
    println!("transfer_engine: 1 KiB mid-file insert into a committed 16 MiB file");
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let label = match backend {
            Backend::Aws => "AWS",
            Backend::CloudOfClouds => "CoC",
        };
        let fixed = insert_outcome(backend, ScfsConfig::paper_default(Mode::Blocking));
        let cdc = insert_outcome(
            backend,
            ScfsConfig::paper_default(Mode::Blocking).with_cdc(),
        );
        assert!(
            cdc.insert_chunks <= 8 && fixed.insert_chunks >= 8,
            "CDC must move O(edit) chunks ({}) and fixed-size O(file) ({})",
            cdc.insert_chunks,
            fixed.insert_chunks
        );
        println!(
            "  {label} fixed: {:>2} chunks, {:>7.3}s close | cdc: {:>2} chunks, {:>7.3}s close",
            fixed.insert_chunks, fixed.insert_close_s, cdc.insert_chunks, cdc.insert_close_s
        );
        rows.push(format!(
            "{{\"backend\": \"{label}\", \"scenario\": \"midfile_insert_1kib_into_16mib\", \
             \"fixed_insert_chunks\": {}, \"fixed_insert_close_virtual_secs\": {:.6}, \
             \"cdc_insert_chunks\": {}, \"cdc_insert_close_virtual_secs\": {:.6}}}",
            fixed.insert_chunks, fixed.insert_close_s, cdc.insert_chunks, cdc.insert_close_s
        ));
    }
    let results = format!("[{}]", rows.join(", "));
    bench::record_trajectory("transfer_engine", &results);
    println!("trajectory: BENCH_transfer.json");
}
