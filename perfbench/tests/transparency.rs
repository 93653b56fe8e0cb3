//! The seam decorators must be transparent: a traced pass, an untraced pass
//! and a rerun with the same seed agree on every virtual-time latency,
//! count and ratio the benchmark reports.

use perfbench::scenario::{setup, Kind, Shape};

/// A few mounts and operations of each workload, so the test runs in
/// seconds in a debug build.
fn small(kind: Kind) -> Shape {
    let mut shape = kind.shape();
    match kind {
        Kind::CocDocs => {
            shape.mounts_per_team = 2;
            shape.files_per_team = 6;
            shape.size_range = (16 << 10, 256 << 10);
            shape.ops_per_mount = 12;
        }
        Kind::NbFleet => {
            shape.teams = 2;
            shape.mounts_per_team = 3;
            shape.files_per_team = 8;
            shape.ops_per_mount = 16;
        }
        Kind::MetaStorm => {
            shape.teams = 4;
            shape.files_per_team = 4;
            shape.ops_per_mount = 150;
        }
    }
    shape
}

#[test]
fn tracing_and_reruns_leave_every_virtual_result_unchanged() {
    for kind in Kind::ALL {
        let shape = small(kind);
        let plain = setup(kind, shape, 7, false).run();
        let traced = setup(kind, shape, 7, true).run();
        let rerun = setup(kind, shape, 7, true).run();
        let name = kind.name();
        assert!(plain.result.attempted > 0, "{name}: nothing ran");
        assert_eq!(plain.result.mismatches, 0, "{name}: read check failed");
        assert_eq!(
            plain.result, traced.result,
            "{name}: tracing changed a result"
        );
        assert_eq!(
            traced.result, rerun.result,
            "{name}: a rerun changed a result"
        );
        assert_eq!(
            traced.trace.counts(),
            rerun.trace.counts(),
            "{name}: seam counts differ between reruns"
        );
        assert!(
            traced.trace.cloud_ops.iter().sum::<u64>() > 0,
            "{name}: the cloud decorator saw no call"
        );
        assert!(
            traced.trace.coord_ops.iter().sum::<u64>() > 0,
            "{name}: the coordination decorator saw no call"
        );
        assert_eq!(
            plain.trace.spans, [0; 5],
            "{name}: untraced pass recorded spans"
        );
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let shape = small(Kind::MetaStorm);
    let a = setup(Kind::MetaStorm, shape, 1, false).run();
    let b = setup(Kind::MetaStorm, shape, 2, false).run();
    assert_ne!(a.result.trace_hash, b.result.trace_hash);
}
