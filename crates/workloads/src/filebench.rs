//! The Filebench micro-benchmarks of Table 3 (paper §4.2).
//!
//! Six micro-benchmarks, run on every system:
//!
//! * sequential read / sequential write — one whole-file pass over a 4 MiB
//!   file in 4 KiB requests (IO-intensive, no open/close in the timed
//!   region);
//! * random 4 KiB read / write — 256 k random-offset requests on a 4 MiB
//!   file (IO-intensive);
//! * create files — create and write 200 × 16 KiB files (metadata-intensive);
//! * copy files — copy 100 × 16 KiB files (metadata-intensive).

use scfs::fs::FileSystem;
use scfs::types::OpenFlags;
use sim_core::rng::DetRng;
use sim_core::units::Bytes;

use crate::results::{fmt_secs, Table};
use crate::setup::{build_system, SystemKind};

/// Parameters of the micro-benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroBenchConfig {
    /// Size of the file used by the IO-intensive benchmarks.
    pub io_file_size: Bytes,
    /// Request size of the IO-intensive benchmarks.
    pub io_request: usize,
    /// Number of random-offset requests.
    pub random_ops: usize,
    /// Number of files created by the create-files benchmark.
    pub create_files: usize,
    /// Number of files copied by the copy-files benchmark.
    pub copy_files: usize,
    /// Size of the created/copied files.
    pub small_file_size: Bytes,
}

impl MicroBenchConfig {
    /// The exact parameters of Table 3.
    pub fn paper() -> Self {
        MicroBenchConfig {
            io_file_size: Bytes::mib(4),
            io_request: 4096,
            random_ops: 256 * 1024,
            create_files: 200,
            copy_files: 100,
            small_file_size: Bytes::kib(16),
        }
    }

    /// A reduced configuration for unit tests and `reproduce --quick`.
    pub fn quick() -> Self {
        MicroBenchConfig {
            io_file_size: Bytes::kib(256),
            io_request: 4096,
            random_ops: 2_000,
            create_files: 10,
            copy_files: 5,
            small_file_size: Bytes::kib(16),
        }
    }
}

/// Results of one system's run, in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroBenchResults {
    /// Sequential-read time.
    pub seq_read: f64,
    /// Sequential-write time.
    pub seq_write: f64,
    /// Random 4 KiB read time.
    pub random_read: f64,
    /// Random 4 KiB write time.
    pub random_write: f64,
    /// Create-files time.
    pub create_files: f64,
    /// Copy-files time.
    pub copy_files: f64,
}

/// Runs the six micro-benchmarks on one system.
pub fn run_microbenchmarks(
    fs: &mut dyn FileSystem,
    cfg: &MicroBenchConfig,
    seed: u64,
) -> MicroBenchResults {
    let mut rng = DetRng::new(seed);
    let file_size = cfg.io_file_size.get() as usize;
    let chunk = vec![0xA5u8; cfg.io_request];

    // --- Sequential write (the file is created outside the timed region). ---
    let h = fs
        .open("/bench/io.dat", OpenFlags::create_truncate())
        .expect("create benchmark file");
    let start = fs.now();
    let mut offset = 0usize;
    while offset < file_size {
        let len = cfg.io_request.min(file_size - offset);
        fs.write(h, offset as u64, &chunk[..len])
            .expect("seq write");
        offset += len;
    }
    let seq_write = fs.now().duration_since(start).as_secs_f64();
    fs.close(h).expect("close after seq write");

    // --- Sequential read. ---
    let h = fs
        .open("/bench/io.dat", OpenFlags::read_only())
        .expect("open for read");
    let start = fs.now();
    let mut offset = 0usize;
    while offset < file_size {
        let len = cfg.io_request.min(file_size - offset);
        fs.read(h, offset as u64, len).expect("seq read");
        offset += len;
    }
    let seq_read = fs.now().duration_since(start).as_secs_f64();
    fs.close(h).expect("close after seq read");

    // --- Random 4 KiB reads. ---
    let slots = (file_size / cfg.io_request).max(1) as u64;
    let h = fs
        .open("/bench/io.dat", OpenFlags::read_only())
        .expect("open for random read");
    let start = fs.now();
    for _ in 0..cfg.random_ops {
        let off = rng.next_below(slots) * cfg.io_request as u64;
        fs.read(h, off, cfg.io_request).expect("random read");
    }
    let random_read = fs.now().duration_since(start).as_secs_f64();
    fs.close(h).expect("close after random read");

    // --- Random 4 KiB writes. ---
    let h = fs
        .open("/bench/io.dat", OpenFlags::read_write())
        .expect("open for random write");
    let start = fs.now();
    for _ in 0..cfg.random_ops {
        let off = rng.next_below(slots) * cfg.io_request as u64;
        fs.write(h, off, &chunk).expect("random write");
    }
    let random_write = fs.now().duration_since(start).as_secs_f64();
    fs.close(h).expect("close after random write");

    // --- Create files. ---
    let payload: Vec<u8> = rng.bytes(cfg.small_file_size.get() as usize);
    let start = fs.now();
    for i in 0..cfg.create_files {
        fs.write_file(&format!("/bench/create/f{i}"), &payload)
            .expect("create file");
    }
    let create_files = fs.now().duration_since(start).as_secs_f64();

    // --- Copy files (sources created outside the timed region). ---
    for i in 0..cfg.copy_files {
        fs.write_file(&format!("/bench/src/f{i}"), &payload)
            .expect("create copy source");
    }
    let start = fs.now();
    for i in 0..cfg.copy_files {
        fs.copy_file(&format!("/bench/src/f{i}"), &format!("/bench/dst/f{i}"))
            .expect("copy file");
    }
    let copy_files = fs.now().duration_since(start).as_secs_f64();

    MicroBenchResults {
        seq_read,
        seq_write,
        random_read,
        random_write,
        create_files,
        copy_files,
    }
}

/// Runs Table 3 for every system and returns the rendered table.
pub fn table3(cfg: &MicroBenchConfig, seed: u64) -> Table {
    let mut table = Table::new(
        "Table 3: Filebench micro-benchmark latency (virtual seconds)",
        vec![
            "benchmark".into(),
            "SCFS-AWS-NS".into(),
            "SCFS-AWS-NB".into(),
            "SCFS-AWS-B".into(),
            "SCFS-CoC-NS".into(),
            "SCFS-CoC-NB".into(),
            "SCFS-CoC-B".into(),
            "S3FS".into(),
            "S3QL".into(),
            "LocalFS".into(),
        ],
    );
    let mut all: Vec<MicroBenchResults> = Vec::new();
    for kind in SystemKind::all() {
        let mut fs = build_system(kind, seed);
        all.push(run_microbenchmarks(fs.as_mut(), cfg, seed));
    }
    type RowExtractor = Box<dyn Fn(&MicroBenchResults) -> f64>;
    let rows: Vec<(&str, RowExtractor)> = vec![
        ("sequential read", Box::new(|r| r.seq_read)),
        ("sequential write", Box::new(|r| r.seq_write)),
        ("random 4KB-read", Box::new(|r| r.random_read)),
        ("random 4KB-write", Box::new(|r| r.random_write)),
        ("create files", Box::new(|r| r.create_files)),
        ("copy files", Box::new(|r| r.copy_files)),
    ];
    for (name, extract) in rows {
        let mut row = vec![name.to_string()];
        for r in &all {
            row.push(fmt_secs(extract(r)));
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_system, SystemKind};

    #[test]
    fn quick_run_produces_sane_shapes() {
        let cfg = MicroBenchConfig::quick();
        let mut local = build_system(SystemKind::LocalFs, 1);
        let local_r = run_microbenchmarks(local.as_mut(), &cfg, 1);
        let mut aws_b = build_system(SystemKind::ScfsAwsB, 1);
        let aws_b_r = run_microbenchmarks(aws_b.as_mut(), &cfg, 1);
        let mut s3ql = build_system(SystemKind::S3ql, 1);
        let s3ql_r = run_microbenchmarks(s3ql.as_mut(), &cfg, 1);

        // Metadata-intensive benchmarks are orders of magnitude slower on the
        // blocking shared system than on the local or non-sharing systems.
        assert!(aws_b_r.create_files > local_r.create_files * 20.0);
        assert!(aws_b_r.copy_files > local_r.copy_files * 20.0);
        // S3QL random writes pay the small-chunk penalty.
        assert!(s3ql_r.random_write > local_r.random_write * 2.0);
        // IO-intensive benchmarks are broadly comparable (same order of
        // magnitude) between the local baseline and blocking SCFS.
        assert!(aws_b_r.random_read < local_r.random_read * 3.0 + 1.0);
    }

    #[test]
    fn non_sharing_scfs_is_close_to_local_for_metadata_workloads() {
        let cfg = MicroBenchConfig::quick();
        let mut ns = build_system(SystemKind::ScfsCocNs, 2);
        let ns_r = run_microbenchmarks(ns.as_mut(), &cfg, 2);
        let mut nb = build_system(SystemKind::ScfsCocNb, 2);
        let nb_r = run_microbenchmarks(nb.as_mut(), &cfg, 2);
        assert!(
            nb_r.create_files > ns_r.create_files * 5.0,
            "NB ({}) should be much slower than NS ({}) on create files",
            nb_r.create_files,
            ns_r.create_files
        );
    }
}
