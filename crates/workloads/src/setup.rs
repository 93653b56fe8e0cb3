//! Builders for every file system evaluated in the paper.
//!
//! Each call builds the system on a **fresh** simulated environment (its own
//! clouds and coordination service), exactly as each benchmark run in the
//! paper starts from an empty mount.

use std::sync::Arc;

use baselines::{LocalFs, S3fsLike, S3qlLike};
use cloud_store::providers::{ProviderProfile, ProviderSet};
use cloud_store::sim_cloud::SimulatedCloud;
use cloud_store::store::ObjectStore;
use coord::replication::{ReplicatedCoordinator, ReplicationConfig};
use coord::service::CoordinationService;
use coord::sharded::{ShardTopology, ShardedCoordinator};
use depsky::config::DepSkyConfig;
use depsky::register::{DepSkyClient, PlacementSpec};
use placement::{PolicyKind, ProviderMatrix};
use scfs::agent::ScfsAgent;
use scfs::backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage};
use scfs::config::{Mode, ScfsConfig};
use scfs::fs::FileSystem;

/// Which SCFS backend to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single cloud (Amazon S3) + one coordination-service instance in EC2.
    Aws,
    /// DepSky cloud-of-clouds + BFT-replicated coordination service.
    CloudOfClouds,
}

/// The nine systems of the evaluation (six SCFS variants + three baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// SCFS, AWS backend, non-sharing mode.
    ScfsAwsNs,
    /// SCFS, AWS backend, non-blocking mode.
    ScfsAwsNb,
    /// SCFS, AWS backend, blocking mode.
    ScfsAwsB,
    /// SCFS, cloud-of-clouds backend, non-sharing mode.
    ScfsCocNs,
    /// SCFS, cloud-of-clouds backend, non-blocking mode.
    ScfsCocNb,
    /// SCFS, cloud-of-clouds backend, blocking mode.
    ScfsCocB,
    /// The S3FS baseline.
    S3fs,
    /// The S3QL baseline.
    S3ql,
    /// The FUSE-J local file system baseline.
    LocalFs,
}

impl SystemKind {
    /// All systems, in the column order of Table 3.
    pub fn all() -> Vec<SystemKind> {
        vec![
            SystemKind::ScfsAwsNs,
            SystemKind::ScfsAwsNb,
            SystemKind::ScfsAwsB,
            SystemKind::ScfsCocNs,
            SystemKind::ScfsCocNb,
            SystemKind::ScfsCocB,
            SystemKind::S3fs,
            SystemKind::S3ql,
            SystemKind::LocalFs,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::ScfsAwsNs => "SCFS-AWS-NS",
            SystemKind::ScfsAwsNb => "SCFS-AWS-NB",
            SystemKind::ScfsAwsB => "SCFS-AWS-B",
            SystemKind::ScfsCocNs => "SCFS-CoC-NS",
            SystemKind::ScfsCocNb => "SCFS-CoC-NB",
            SystemKind::ScfsCocB => "SCFS-CoC-B",
            SystemKind::S3fs => "S3FS",
            SystemKind::S3ql => "S3QL",
            SystemKind::LocalFs => "LocalFS",
        }
    }
}

/// A shared SCFS environment: the storage backend and coordination service
/// that several agents (clients) mount together, used by the sharing
/// experiment and the collaboration examples.
#[derive(Clone)]
pub struct SharedScfsEnv {
    /// The whole-file storage backend shared by all agents.
    pub storage: Arc<dyn FileStorage>,
    /// The coordination service shared by all agents (absent in NS mode).
    pub coordinator: Option<Arc<dyn CoordinationService>>,
    /// The mode agents should be mounted in.
    pub mode: Mode,
}

impl SharedScfsEnv {
    /// Builds a shared environment for the given backend and mode.
    pub fn new(backend: Backend, mode: Mode, seed: u64) -> Self {
        let storage = build_storage(backend, seed);
        let coordinator = if mode.uses_coordination() {
            Some(build_coordinator(backend, seed))
        } else {
            None
        };
        SharedScfsEnv {
            storage,
            coordinator,
            mode,
        }
    }

    /// Builds a shared environment whose coordination plane uses an explicit
    /// `shards × replicas` topology (the sharded metadata plane).
    pub fn with_topology(backend: Backend, mode: Mode, topology: ShardTopology, seed: u64) -> Self {
        let storage = build_storage(backend, seed);
        let coordinator = if mode.uses_coordination() {
            let plane = ShardedCoordinator::new(topology, seed)
                .expect("topology constructors produce consistent configurations");
            Some(Arc::new(plane) as Arc<dyn CoordinationService>)
        } else {
            None
        };
        SharedScfsEnv {
            storage,
            coordinator,
            mode,
        }
    }

    /// Mounts an agent for `user` on this environment.
    pub fn mount(&self, user: &str, config: ScfsConfig, seed: u64) -> ScfsAgent {
        ScfsAgent::mount(
            user.into(),
            config,
            self.storage.clone(),
            self.coordinator.clone(),
            seed,
        )
        .expect("environment and configuration are consistent")
    }

    /// Mounts an agent with the paper's default configuration for this
    /// environment's mode.
    pub fn mount_default(&self, user: &str, seed: u64) -> ScfsAgent {
        self.mount(user, ScfsConfig::paper_default(self.mode), seed)
    }
}

/// A cloud-of-clouds environment over an explicit heterogeneous provider
/// matrix, keeping handles the plain [`SharedScfsEnv`] hides: the simulated
/// clouds (for fault injection, ledgers and stored-byte accounting) and the
/// shared [`ProviderMatrix`] whose health state the placement policy reads.
#[derive(Clone)]
pub struct MatrixEnv {
    /// The mountable environment (same shape the fleet harness drives).
    pub env: SharedScfsEnv,
    /// The simulated clouds, in matrix index order.
    pub clouds: Vec<Arc<SimulatedCloud>>,
    /// The provider matrix shared with the placement policy.
    pub matrix: Arc<ProviderMatrix>,
}

impl MatrixEnv {
    /// Builds a shared cloud-of-clouds environment over `profiles` with a
    /// placement-aware DepSky client: `policy` picks `width` clouds per
    /// write (waiting for `write_wait` block acknowledgements) and orders
    /// reads, with the paper's Byzantine coordination service alongside.
    pub fn coc_matrix(
        profiles: Vec<ProviderProfile>,
        policy: PolicyKind,
        width: usize,
        write_wait: usize,
        mode: Mode,
        seed: u64,
    ) -> Self {
        let clouds: Vec<Arc<SimulatedCloud>> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| Arc::new(SimulatedCloud::new(p.clone(), seed.wrapping_add(i as u64))))
            .collect();
        let matrix = Arc::new(ProviderMatrix::new(profiles));
        let stores: Vec<Arc<dyn ObjectStore>> = clouds
            .iter()
            .map(|c| c.clone() as Arc<dyn ObjectStore>)
            .collect();
        let spec = PlacementSpec {
            matrix: matrix.clone(),
            policy: policy.build(),
            width,
            write_wait,
        };
        let depsky = DepSkyClient::with_placement(stores, DepSkyConfig::scfs_default(), spec, seed)
            .expect("matrix, width and write_wait are consistent");
        let storage = Arc::new(CloudOfCloudsStorage::new(depsky));
        let coordinator = if mode.uses_coordination() {
            Some(build_coordinator(Backend::CloudOfClouds, seed))
        } else {
            None
        };
        MatrixEnv {
            env: SharedScfsEnv {
                storage,
                coordinator,
                mode,
            },
            clouds,
            matrix,
        }
    }
}

/// Builds the storage backend (with WAN provider profiles). The single-cloud
/// backend simulates Amazon S3, as in the paper; use [`build_storage_on`] to
/// run it over any other provider.
pub fn build_storage(backend: Backend, seed: u64) -> Arc<dyn FileStorage> {
    build_storage_on(backend, &ProviderProfile::amazon_s3(), seed)
}

/// Builds the storage backend with an explicit single-cloud provider.
/// `single_cloud` backs the [`Backend::Aws`] variant; the cloud-of-clouds
/// backend keeps its fixed four-provider set regardless.
pub fn build_storage_on(
    backend: Backend,
    single_cloud: &ProviderProfile,
    seed: u64,
) -> Arc<dyn FileStorage> {
    match backend {
        Backend::Aws => {
            let cloud = Arc::new(SimulatedCloud::new(single_cloud.clone(), seed));
            Arc::new(SingleCloudStorage::new(cloud))
        }
        Backend::CloudOfClouds => {
            let clouds: Vec<Arc<dyn ObjectStore>> = ProviderSet::coc_storage_backend()
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    Arc::new(SimulatedCloud::new(p, seed.wrapping_add(i as u64)))
                        as Arc<dyn ObjectStore>
                })
                .collect();
            let depsky = DepSkyClient::new(clouds, DepSkyConfig::scfs_default(), seed)
                .expect("4 clouds match the f=1 configuration");
            Arc::new(CloudOfCloudsStorage::new(depsky))
        }
    }
}

/// Builds the coordination service for a backend.
pub fn build_coordinator(backend: Backend, seed: u64) -> Arc<dyn CoordinationService> {
    let config = match backend {
        Backend::Aws => ReplicationConfig::aws_single_ec2(),
        Backend::CloudOfClouds => ReplicationConfig::coc_byzantine(),
    };
    let coord = ReplicatedCoordinator::new(config, seed)
        .expect("backend constructors produce consistent configurations");
    Arc::new(coord)
}

/// Builds one SCFS variant with the paper's default configuration.
pub fn build_scfs(backend: Backend, mode: Mode, config: ScfsConfig, seed: u64) -> ScfsAgent {
    build_scfs_on(backend, &ProviderProfile::amazon_s3(), mode, config, seed)
}

/// Builds one SCFS variant with an explicit single-cloud provider backing
/// the AWS backend.
pub fn build_scfs_on(
    backend: Backend,
    single_cloud: &ProviderProfile,
    mode: Mode,
    config: ScfsConfig,
    seed: u64,
) -> ScfsAgent {
    let storage = build_storage_on(backend, single_cloud, seed);
    let coordinator = if mode.uses_coordination() {
        Some(build_coordinator(backend, seed ^ 0x9999))
    } else {
        None
    };
    ScfsAgent::mount("alice".into(), config, storage, coordinator, seed)
        .expect("configuration is consistent")
}

/// Builds any of the nine evaluated systems on a fresh environment, with
/// the single-cloud systems on Amazon S3 as in the paper.
pub fn build_system(kind: SystemKind, seed: u64) -> Box<dyn FileSystem> {
    build_system_on(kind, &ProviderProfile::amazon_s3(), seed)
}

/// Builds any of the nine evaluated systems with an explicit single-cloud
/// provider backing the SCFS-AWS variants and the S3FS/S3QL baselines.
pub fn build_system_on(
    kind: SystemKind,
    single_cloud: &ProviderProfile,
    seed: u64,
) -> Box<dyn FileSystem> {
    match kind {
        SystemKind::ScfsAwsNs => Box::new(build_scfs_on(
            Backend::Aws,
            single_cloud,
            Mode::NonSharing,
            ScfsConfig::paper_default(Mode::NonSharing),
            seed,
        )),
        SystemKind::ScfsAwsNb => Box::new(build_scfs_on(
            Backend::Aws,
            single_cloud,
            Mode::NonBlocking,
            ScfsConfig::paper_default(Mode::NonBlocking),
            seed,
        )),
        SystemKind::ScfsAwsB => Box::new(build_scfs_on(
            Backend::Aws,
            single_cloud,
            Mode::Blocking,
            ScfsConfig::paper_default(Mode::Blocking),
            seed,
        )),
        SystemKind::ScfsCocNs => Box::new(build_scfs(
            Backend::CloudOfClouds,
            Mode::NonSharing,
            ScfsConfig::paper_default(Mode::NonSharing),
            seed,
        )),
        SystemKind::ScfsCocNb => Box::new(build_scfs(
            Backend::CloudOfClouds,
            Mode::NonBlocking,
            ScfsConfig::paper_default(Mode::NonBlocking),
            seed,
        )),
        SystemKind::ScfsCocB => Box::new(build_scfs(
            Backend::CloudOfClouds,
            Mode::Blocking,
            ScfsConfig::paper_default(Mode::Blocking),
            seed,
        )),
        SystemKind::S3fs => {
            let cloud = Arc::new(SimulatedCloud::new(single_cloud.clone(), seed));
            Box::new(S3fsLike::new("alice".into(), cloud, seed))
        }
        SystemKind::S3ql => {
            let cloud = Arc::new(SimulatedCloud::new(single_cloud.clone(), seed));
            Box::new(S3qlLike::new("alice".into(), cloud, seed))
        }
        SystemKind::LocalFs => Box::new(LocalFs::new("alice".into(), seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_build_and_serve_a_simple_workload() {
        for kind in SystemKind::all() {
            let mut fs = build_system(kind, 42);
            fs.write_file("/smoke/test.bin", &vec![1u8; 4096])
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(
                fs.read_file("/smoke/test.bin").unwrap().len(),
                4096,
                "{}",
                kind.label()
            );
            assert!(!fs.name().is_empty());
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SystemKind::all().into_iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), SystemKind::all().len());
    }

    #[test]
    fn matrix_env_round_trips_and_feeds_provider_health() {
        let menv = MatrixEnv::coc_matrix(
            ProviderSet::heterogeneous_matrix(),
            PolicyKind::CheapestQuorum { slo_millis: 2_500 },
            3,
            2,
            Mode::Blocking,
            11,
        );
        let mut alice = menv.env.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        let data = vec![9u8; 8192];
        alice.write_file("/m/doc.bin", &data).unwrap();
        assert_eq!(alice.read_file("/m/doc.bin").unwrap(), data);
        // Blocks landed on some subset of the matrix clouds...
        assert!(menv.clouds.iter().any(|c| c.stored_bytes().get() > 0));
        // ...and every observed outcome fed the shared health state.
        let samples: u64 = (0..menv.matrix.len())
            .map(|i| menv.matrix.health(i).samples)
            .sum();
        assert!(samples > 0, "writes must feed the provider health EWMAs");
    }

    #[test]
    fn shared_environment_supports_two_clients() {
        use cloud_store::types::Permission;
        let env = SharedScfsEnv::new(Backend::Aws, Mode::Blocking, 7);
        let mut alice = env.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        let mut bob = env.mount("bob", ScfsConfig::test(Mode::Blocking), 2);
        alice.write_file("/shared/plan.txt", b"v1").unwrap();
        alice
            .setfacl("/shared/plan.txt", &"bob".into(), Permission::Read)
            .unwrap();
        bob.sleep(sim_core::time::SimDuration::from_secs(30));
        assert_eq!(bob.read_file("/shared/plan.txt").unwrap(), b"v1");
    }
}
