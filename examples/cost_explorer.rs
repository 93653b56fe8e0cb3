//! Explore the SCFS cost model: what the coordination service costs per day,
//! what a read/write costs per operation, and what storing a file costs per
//! day — the analyses behind Figure 11 of the paper — plus a fleet-scale
//! placement comparison: what a user-month costs under each placement
//! policy over the heterogeneous provider matrix, healthy and degraded.
//!
//! Run with: `cargo run --example cost_explorer`

use scfs_repro::cloud_store::pricing::VmInstanceSize;
use scfs_repro::cloud_store::providers::{ProviderProfile, ProviderSet};
use scfs_repro::coord::deployment::CoordDeployment;
use scfs_repro::placement::PolicyKind;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::cost::{CostBackend, CostModel};
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::sim_core::units::{Bytes, MicroDollars};
use scfs_repro::workloads::costs::{figure11a, figure11b, figure11c};
use scfs_repro::workloads::fleet::{run_fleet_in, FleetConfig};
use scfs_repro::workloads::setup::{Backend, MatrixEnv};

/// Runs a small zipfian fleet over the matrix with one placement policy and
/// returns dollars per user-month: operation/traffic ledgers scaled to 30
/// days plus a month of storage rent, split over the mounts.
fn fleet_dollars_per_user_month(
    profiles: Vec<ProviderProfile>,
    policy: PolicyKind,
    flaky_faults: bool,
) -> f64 {
    let mut cfg = FleetConfig::smoke(Backend::CloudOfClouds);
    cfg.mounts = 12;
    cfg.teams = 3;
    cfg.files_per_team = 8;
    cfg.ops_per_mount = 8;
    cfg.mean_think = SimDuration::from_secs(20);
    cfg.scfs = ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::new(1), Bytes::new(1));
    cfg.seed = 0xC057;
    let menv = MatrixEnv::coc_matrix(profiles, policy, 3, 2, cfg.mode, cfg.seed);
    if flaky_faults {
        menv.clouds[2].set_fault_plan(FaultPlan::flaky(0.04), cfg.seed);
    }
    let report = run_fleet_in(&menv.env, &cfg);
    let month_factor = 30.0 * 86_400.0 / report.makespan.as_secs_f64().max(1.0);
    let ops: f64 = menv
        .clouds
        .iter()
        .map(|c| c.ledger().grand_total().as_dollars())
        .sum();
    let rent: f64 = menv
        .clouds
        .iter()
        .map(|c| {
            c.profile()
                .prices
                .storage_cost(c.stored_bytes(), 30.0)
                .as_dollars()
        })
        .sum();
    (ops * month_factor + rent) / cfg.mounts as f64
}

fn main() {
    println!("{}", figure11a().render());
    println!("{}", figure11b().render());
    println!("{}", figure11c().render());

    // How many users does it take to fund the CoC coordination service at
    // one dollar per month each?
    let coc = CoordDeployment::cloud_of_clouds(VmInstanceSize::ExtraLarge);
    println!(
        "CoC coordination service (Extra Large replicas): ${:.2}/month, funded by {} users at $1/month",
        coc.cost_per_month().as_dollars(),
        coc.users_for_budget(MicroDollars::from_dollars(1.0))
    );

    // A typical personal workload: 2 000 files of 1 MiB, re-read 10% of them
    // per day without local caches, re-written 5% per day.
    let coc_model = CostModel::new(CostBackend::CloudOfClouds);
    let aws_model = CostModel::new(CostBackend::Aws);
    let files = 2_000.0;
    let size = Bytes::mib(1);
    for (label, model) in [("AWS", &aws_model), ("CoC", &coc_model)] {
        let storage = model.storage_cost_per_day(size) * files;
        let reads = model.read_cost(size) * (files * 0.10);
        let writes = model.write_cost(size) * (files * 0.05);
        let daily = storage + reads + writes;
        println!(
            "{label}: storage {:.0}µ$ + reads {:.0}µ$ + writes {:.0}µ$  =>  ${:.4}/day",
            storage.get(),
            reads.get(),
            writes.get(),
            daily.as_dollars()
        );
    }

    // Fleet-scale placement comparison over the heterogeneous matrix: the
    // same zipfian fleet under each policy, healthy and degraded (one cloud
    // 10x slower with a flaky regional store dropping ~4% of requests; one
    // block-holding cloud 10x pricier).
    println!("\nPlacement over the 7-provider matrix ($ per user-month, 12-mount fleet):");
    let policies = [
        PolicyKind::AllClouds,
        PolicyKind::CheapestQuorum { slo_millis: 2_500 },
        PolicyKind::FastestRead,
    ];
    let sweeps = [
        ("healthy", 0, false),
        ("slow s3 (10x latency, flaky faults)", 1, true),
        ("pricey flaky (10x prices)", 2, false),
    ];
    for (label, sweep, faults) in sweeps {
        let mut profiles = ProviderSet::heterogeneous_matrix();
        match sweep {
            1 => profiles[1] = profiles[1].with_latency_scaled(10.0),
            2 => profiles[2] = profiles[2].with_prices_scaled(10.0),
            _ => {}
        }
        println!("  {label}:");
        for policy in policies {
            let dollars = fleet_dollars_per_user_month(profiles.clone(), policy, faults);
            println!("    {:<16} ${dollars:.4}/user/month", policy.label());
        }
    }
}
