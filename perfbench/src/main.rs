//! Command-line entry point of the SCFS benchmark.
//!
//! ```text
//! perfbench --workload <coc_docs|nb_fleet|meta_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run repeats *passes* — set-up, then the workload's
//! fixed closed-loop schedule — while another pass still fits in
//! `--seconds` (at least two passes, at least three set-ups), and reports
//! the end-to-end metrics: wall-clock figures are medians over the passes
//! after the first (which faults in the process's memory); the virtual-time
//! figures come from the schedule itself and must be identical in every
//! repeat. With `--trace 1` it runs a warm-up pass, then untraced and traced
//! passes in pairs, one pair per sub-seed, reports the per-layer metrics of
//! the traced passes and checks that tracing changed no virtual-time result;
//! this schedule is fixed so that the per-layer counts repeat exactly, and
//! `--seconds` does not change it. The last line of standard output is one
//! JSON object; the exit code is non-zero when a check failed.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::probes::{self, PROBE_BYTES};
use perfbench::scenario::{pass_seed, setup, Class, Kind, Pass, PassResult};
use perfbench::seams::{Layer, Trace, BACKEND_OPS, CLOUD_OPS, COORD_OPS};
use scfs::cache::TieredStats;

/// Set-ups measured per untraced run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted nanoseconds, in milliseconds.
fn pct_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's high-water resident set size, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Named metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Runs one pass: pass `index` of the workload's sub-seeded passes.
fn pass(args: &Args, index: usize, traced: bool) -> Pass {
    let shape = args.kind.shape();
    setup(
        args.kind,
        shape,
        pass_seed(args.seed, index % shape.passes),
        traced,
    )
    .run()
}

/// Pools the virtual-time results of the first pass of every sub-seed.
fn pooled(results: &[PassResult]) -> PassResult {
    let mut all = results[0].clone();
    for r in &results[1..] {
        all.absorb(r);
    }
    all
}

fn check_reads(r: &PassResult) -> bool {
    if r.mismatches > 0 {
        eprintln!("error: {} reads matched no committed version", r.mismatches);
    }
    r.mismatches == 0
}

fn untraced(args: &Args) -> Outcome {
    let shape = args.kind.shape();
    let start = Instant::now();
    let mut results: Vec<PassResult> = Vec::new();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut deterministic, mut attempted, mut failed) = (true, 0, 0);
    // Every sub-seed once (and at least two passes), then repeats while
    // another pass fits the budget; a repeat must reproduce its sub-seed's
    // virtual-time results exactly. The first pass also faults in the
    // process's memory, so its rate is left out of the median.
    let mut index = 0;
    loop {
        let p = pass(args, index, false);
        setups.push(p.setup_s);
        if index > 0 {
            rates.push(p.result.attempted as f64 / p.timed_s);
        }
        attempted += p.result.attempted;
        failed += p.result.failed;
        match results.get(index % shape.passes) {
            Some(first) => deterministic &= *first == p.result,
            None => results.push(p.result),
        }
        index += 1;
        let per_pass = start.elapsed().as_secs_f64() / index as f64;
        if index >= shape.passes.max(2) && start.elapsed().as_secs_f64() + per_pass > args.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup(args.kind, shape, pass_seed(args.seed, 0), false).setup_s);
    }
    let r = pooled(&results);
    eprintln!("per-pass ops/s {rates:.0?}, set-up s {setups:.3?}");
    eprintln!(
        "{}: {index} passes, {} set-ups; samples read={} write={} meta={} copy={}",
        args.kind.name(),
        setups.len(),
        r.latencies[Class::Read as usize].len(),
        r.latencies[Class::Write as usize].len(),
        r.latencies[Class::Meta as usize].len(),
        r.latencies[Class::Copy as usize].len(),
    );
    if !deterministic {
        eprintln!("error: passes with one seed disagree on virtual-time results");
    }

    let mut m = Metrics::default();
    m.add("setup_s", median(setups), "s");
    m.add("ops_per_wall_s", median(rates), "1/s");
    m.add("peak_rss_mib", peak_rss_mib(), "MiB");
    for (class, name) in [
        (Class::Read, "read"),
        (Class::Write, "write"),
        (Class::Meta, "meta"),
    ] {
        let lat = &r.latencies[class as usize];
        m.add(format!("{name}_p50_virt_ms"), pct_ms(lat, 0.50), "ms");
        m.add(format!("{name}_p99_virt_ms"), pct_ms(lat, 0.99), "ms");
    }
    m.add(
        "cloud_usd_per_kop",
        r.cloud_usd * 1000.0 / r.attempted as f64,
        "USD",
    );
    m.add(
        "stored_bytes_per_user_byte",
        ratio(r.stored_bytes as f64, r.live_bytes as f64),
        "ratio",
    );
    Outcome {
        correct: check_reads(&r) && deterministic,
        attempted,
        failed,
        metrics: m,
    }
}

fn traced(args: &Args) -> Outcome {
    let shape = args.kind.shape();
    let mut correct = true;
    let buf = perfbench::scenario::payload(args.kind, args.seed, PROBE_BYTES);
    let kernels = match probes::run(&buf) {
        Ok(k) => Some(k),
        Err(e) => {
            eprintln!("error: kernel probe failed: {}", e.0);
            correct = false;
            None
        }
    };

    // Each sub-seed runs untraced and traced, alternating which goes first,
    // after an untraced warm-up pass that faults in the process's memory.
    let warm_up = pass(args, 0, false).result;
    let mut results: Vec<PassResult> = Vec::new();
    let mut trace = Trace::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut deterministic, mut attempted, mut failed) = (true, 0, 0);
    for index in 0..shape.passes {
        let order = if index % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let [a, b] = order.map(|traced| pass(args, index, traced));
        deterministic &= a.result == b.result;
        for p in [a, b] {
            attempted += p.result.attempted;
            failed += p.result.failed;
            if p.trace.spans[Layer::Driver as usize] == 0 {
                plain_s += p.timed_s;
                continue;
            }
            traced_s += p.timed_s;
            // Attribution must close: the layers' self times sum to the
            // timed phase's wall time (up to the clock reads around it).
            let share = p.trace.self_ns.iter().sum::<u64>() as f64 / 1e9 / p.timed_s;
            if !(0.99..=1.0 + 1e-9).contains(&share) {
                eprintln!("error: layer self times cover {share:.4} of the timed phase");
                correct = false;
            }
            trace.absorb(&p.trace);
            results.push(p.result);
        }
    }
    deterministic &= warm_up == results[0];
    if !deterministic {
        eprintln!("error: tracing or a rerun changed a virtual-time result");
        correct = false;
    }
    let r = pooled(&results);
    correct &= check_reads(&r);

    let ops = r.attempted as f64;
    let t = &trace;
    let mut m = Metrics::default();
    m.add(
        "agent.calls",
        t.spans[Layer::Agent as usize] as f64,
        "count",
    );
    for layer in Layer::ALL {
        let us = t.self_ns[layer as usize] as f64 / 1e3 / ops;
        m.add(format!("{}.self_wall_us_per_op", layer.name()), us, "us");
    }
    m.add("trace.overhead_ratio", traced_s / plain_s, "ratio");
    m.add(
        "trace.attributed_share",
        t.self_ns.iter().sum::<u64>() as f64 / 1e9 / traced_s,
        "ratio",
    );
    m.add(
        "driver.failed_op_ratio",
        ratio(r.failed as f64, ops),
        "ratio",
    );
    m.add("driver.lock_retries", r.lock_refusals as f64, "count");

    if let Some(k) = kernels {
        m.add("chunking.fixed_mb_s", k.fixed_chunking, "MB/s");
        m.add("chunking.cdc_mb_s", k.cdc_chunking, "MB/s");
        m.add("crypto.sha256_mb_s", k.sha256, "MB/s");
        m.add("crypto.chacha20_mb_s", k.chacha20, "MB/s");
        m.add("crypto.rs_encode_mb_s", k.rs_encode, "MB/s");
        m.add("crypto.rs_decode_mb_s", k.rs_decode, "MB/s");
    }

    for (i, op) in BACKEND_OPS.iter().enumerate() {
        m.add(
            format!("backend.{op}.calls"),
            t.backend_ops[i] as f64,
            "count",
        );
    }
    m.add("backend.errors", t.backend_errors as f64, "count");
    let mut wv = t.write_version_virt_ns.clone();
    wv.sort_unstable();
    m.add("backend.write_version.virt_ms_p50", pct_ms(&wv, 0.50), "ms");
    m.add("backend.write_version.virt_ms_p99", pct_ms(&wv, 0.99), "ms");

    let a = &r.agent;
    m.add("transfer.waves", a.transfer_waves as f64, "count");
    m.add("transfer.chunk_uploads", a.chunk_uploads as f64, "count");
    m.add(
        "transfer.chunk_downloads",
        a.chunk_downloads as f64,
        "count",
    );
    m.add(
        "transfer.dedup_ratio",
        ratio(
            a.dedup_hits_cross_file as f64,
            (a.dedup_hits_cross_file + a.chunk_uploads) as f64,
        ),
        "ratio",
    );
    m.add(
        "transfer.prefetched_chunks",
        a.prefetched_chunks as f64,
        "count",
    );
    m.add(
        "transfer.backpressure_stalls",
        a.backpressure_stalls as f64,
        "count",
    );

    for (i, op) in CLOUD_OPS.iter().enumerate() {
        m.add(format!("cloud.{op}"), t.cloud_ops[i] as f64, "count");
    }
    m.add("cloud.bytes_up", t.cloud_bytes_up as f64, "bytes");
    m.add("cloud.bytes_down", t.cloud_bytes_down as f64, "bytes");
    m.add(
        "cloud.get_found_ratio",
        ratio(t.cloud_gets_found as f64, t.cloud_ops[1] as f64),
        "ratio",
    );
    m.add("cloud.errors", t.cloud_errors as f64, "count");
    let mut cv = t.cloud_virt_ns.clone();
    cv.sort_unstable();
    m.add("cloud.virt_ms_p50", pct_ms(&cv, 0.50), "ms");
    m.add("cloud.virt_ms_p99", pct_ms(&cv, 0.99), "ms");

    m.add("anchor.retries", a.anchor_retries as f64, "count");
    m.add("gc.runs", a.gc_runs as f64, "count");
    m.add(
        "gc.reclaimed_versions",
        a.gc_reclaimed_versions as f64,
        "count",
    );
    m.add("gc.retried", a.gc_retried as f64, "count");
    m.add(
        "gc.orphans_reclaimed",
        a.gc_orphans_reclaimed as f64,
        "count",
    );
    m.add("gc.errors", a.gc_errors as f64, "count");

    let c = &r.cache;
    m.add(
        "cache.mem_hit_rate",
        TieredStats::hit_rate(&c.memory),
        "ratio",
    );
    m.add(
        "cache.disk_hit_rate",
        TieredStats::hit_rate(&c.disk),
        "ratio",
    );
    let bytes_hit = (c.memory.bytes_hit + c.disk.bytes_hit) as f64;
    m.add(
        "cache.byte_hit_rate",
        ratio(bytes_hit, bytes_hit + a.bytes_downloaded as f64),
        "ratio",
    );
    m.add(
        "cache.evictions",
        (c.memory.evictions + c.disk.evictions) as f64,
        "count",
    );
    m.add("cache.promotions", c.promotions as f64, "count");
    m.add("cache.demotions", c.demotions as f64, "count");
    m.add(
        "cache.admission_rejects",
        (c.memory.admission_rejects + c.disk.admission_rejects) as f64,
        "count",
    );
    m.add(
        "cache.policy_steps_per_op",
        (c.memory.policy_steps + c.disk.policy_steps) as f64 / ops,
        "count",
    );

    let coord_calls: u64 = t.coord_ops.iter().sum();
    m.add("coord.calls_per_op", coord_calls as f64 / ops, "count");
    for (i, op) in COORD_OPS.iter().enumerate() {
        m.add(format!("coord.{op}"), t.coord_ops[i] as f64, "count");
    }
    m.add(
        "coord.cas_success_ratio",
        ratio(t.coord_cas_ok as f64, t.coord_ops[2] as f64),
        "ratio",
    );
    m.add("coord.errors", t.coord_errors as f64, "count");
    let mut kv = t.coord_virt_ns.clone();
    kv.sort_unstable();
    m.add("coord.virt_ms_p50", pct_ms(&kv, 0.50), "ms");
    m.add("coord.virt_ms_p99", pct_ms(&kv, 0.99), "ms");

    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <coc_docs|nb_fleet|meta_storm> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
