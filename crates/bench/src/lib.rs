//! Shared helpers for the SCFS reproduction benchmarks.
//!
//! The real deliverable of this crate is the [`reproduce`](../reproduce)
//! binary, which regenerates every table and figure of the paper's
//! evaluation on the simulated substrate (`--quick` runs the same harnesses
//! on reduced workloads), plus the bench targets that append the committed
//! perf trajectory.

use workloads::results::Table;

/// Renders a list of tables into one report string.
pub fn render_report(tables: &[Table]) -> String {
    let mut out = String::new();
    for table in tables {
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// The header and footer of the committed perf trajectory; run records live
/// between them, one JSON object per line
/// (`{"run": N, "bench": "<name>", "results": [...]}`).
const TRAJECTORY_HEADER: &str = "{\"benchmark\": \"scfs_perf_trajectory\", \"unit\": \
     \"virtual seconds (deterministic)\", \"benches\": {\"transfer_engine\": \
     \"dirty close of a 16-chunk (16 MiB) file, blocking mode, WAN profiles; \
     dedup column = closing an identical copy under a second path\", \"fleet_cache\": \
     \"zipfian fleet over the two-tier chunk cache, per-policy hit rates and \
     p50/p99 operation latencies\", \"metadata_plane\": \
     \"stat/open/mkdir/rename storm over the sharded quorum-replicated \
     metadata plane; throughput and per-op p50/p99 per shard count\", \"provider_matrix\": \
     \"zipfian fleet over the heterogeneous seven-provider matrix; per-policy \
     dollars/user/month, read SLO compliance and read/commit p50/p99, healthy \
     and degraded (one cloud 10x latency, one cloud 10x price)\"}, \"runs\": [";
const TRAJECTORY_FOOTER: &str = "]}";

/// Appends `results` as a new run record tagged `bench` to the trajectory
/// at `path`, unless the last recorded run *of the same bench* already
/// carries identical results (virtual time is deterministic, so a
/// perf-neutral change produces a byte-identical record and leaves the file
/// alone). Records of other benches are preserved untouched — the file is
/// append-only across PRs. Legacy untagged records count as
/// `transfer_engine`. Returns the full file contents after the update.
pub fn append_run(path: &std::path::Path, bench: &str, results: &str) -> String {
    let records: Vec<String> = match std::fs::read_to_string(path) {
        Ok(existing) => existing
            .lines()
            .map(str::trim)
            .filter(|line| line.starts_with("{\"run\""))
            .map(|line| line.trim_end_matches(',').to_string())
            .collect(),
        Err(_) => Vec::new(),
    };
    let bench_of = |record: &str| {
        record
            .split_once("\"bench\": \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map_or("transfer_engine", |(tag, _)| tag)
            .to_string()
    };
    let results_of = |record: &str| {
        record
            .split_once("\"results\": ")
            .map(|(_, r)| r.to_string())
    };
    let next = format!(
        "{{\"run\": {}, \"bench\": \"{bench}\", \"results\": {results}}}",
        records.len() + 1
    );
    let last_same = records
        .iter()
        .rev()
        .find(|r| bench_of(r) == bench)
        .and_then(|r| results_of(r));
    let mut records = records;
    if last_same != results_of(&next) {
        records.push(next);
    }
    let mut out = String::new();
    out.push_str(TRAJECTORY_HEADER);
    out.push('\n');
    for (i, record) in records.iter().enumerate() {
        out.push_str(record);
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str(TRAJECTORY_FOOTER);
    out.push('\n');
    std::fs::write(path, &out).expect("write perf trajectory");
    out
}

/// Appends a run to the committed `BENCH_transfer.json` at the repository
/// root and mirrors the full trajectory to `target/BENCH_transfer.json` for
/// the CI artifact upload.
pub fn record_trajectory(bench: &str, results: &str) {
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let trajectory = append_run(&repo_root.join("BENCH_transfer.json"), bench, results);
    let target = repo_root.join("target");
    std::fs::create_dir_all(&target).expect("target dir");
    std::fs::write(target.join("BENCH_transfer.json"), &trajectory)
        .expect("write BENCH_transfer.json mirror");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_concatenates_tables() {
        let mut t1 = Table::new("one", vec!["a".into()]);
        t1.push_row(vec!["1".into()]);
        let t2 = Table::new("two", vec!["b".into()]);
        let report = render_report(&[t1, t2]);
        assert!(report.contains("one"));
        assert!(report.contains("two"));
    }

    fn temp_trajectory(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("scfs_bench_{name}_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_run_is_per_bench_append_only() {
        let path = temp_trajectory("per_bench");
        let first = append_run(&path, "transfer_engine", "[{\"a\": 1}]");
        assert!(first.contains("\"run\": 1"));
        // A different bench appends even when the other bench's results are
        // unchanged.
        let second = append_run(&path, "fleet_cache", "[{\"b\": 2}]");
        assert!(second.contains("\"run\": 2, \"bench\": \"fleet_cache\""));
        // Re-running a bench with identical results is a no-op...
        let third = append_run(&path, "transfer_engine", "[{\"a\": 1}]");
        assert_eq!(second, third);
        // ...and dedup compares against the last record of the SAME bench,
        // not the last record overall.
        let fourth = append_run(&path, "transfer_engine", "[{\"a\": 9}]");
        assert!(fourth.contains("\"run\": 3, \"bench\": \"transfer_engine\""));
        // Earlier records are never rewritten.
        assert!(fourth
            .contains("{\"run\": 1, \"bench\": \"transfer_engine\", \"results\": [{\"a\": 1}]}"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_run_treats_legacy_untagged_records_as_transfer_engine() {
        let path = temp_trajectory("legacy");
        std::fs::write(
            &path,
            "{\"benchmark\": \"transfer_engine\", \"runs\": [\n\
             {\"run\": 1, \"results\": [{\"a\": 1}]}\n\
             ]}\n",
        )
        .unwrap();
        // Identical transfer_engine results dedup against the legacy record.
        let out = append_run(&path, "transfer_engine", "[{\"a\": 1}]");
        assert!(out.contains("{\"run\": 1, \"results\": [{\"a\": 1}]}"));
        assert!(!out.contains("\"run\": 2"));
        let _ = std::fs::remove_file(&path);
    }
}
