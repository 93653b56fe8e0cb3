//! The three benchmark workloads and the closed-loop driver that runs them.
//!
//! Every workload builds its own environment (clouds, storage backend,
//! coordination service), optionally wrapping each seam in a timing
//! decorator, mounts its clients with [`ScfsAgent::mount`], populates the
//! shared files, and then drives every mount in a closed loop: a mount issues
//! its next operation only after the previous one returned, plus an
//! exponential virtual think time. Mounts are interleaved in virtual-time
//! order (an event heap keyed by each mount's clock), so sharing and lock
//! contention happen in order.
//!
//! The driver generates every byte it writes, so it knows the checksum of
//! every version of every path and when its commit became visible; each
//! whole-file read must equal the version current when the read started, or
//! a later one (old-or-new under consistency-on-close).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use cloud_store::providers::{ProviderProfile, ProviderSet};
use cloud_store::sim_cloud::SimulatedCloud;
use cloud_store::store::ObjectStore;
use coord::replication::{ReplicatedCoordinator, ReplicationConfig};
use coord::service::CoordinationService;
use coord::sharded::{ShardTopology, ShardedCoordinator};
use depsky::config::DepSkyConfig;
use depsky::register::DepSkyClient;
use scfs::agent::{AgentStats, ScfsAgent};
use scfs::backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage};
use scfs::cache::TieredStats;
use scfs::config::{Mode, ScfsConfig};
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::OpenFlags;
use sim_core::rng::DetRng;
use sim_core::time::{SimDuration, SimInstant};
use sim_core::units::Bytes;
use workloads::fleet::Zipf;

use crate::seams::{self, Layer, TimedCoord, TimedStorage, TimedStore};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SCFS-CoC-B with CDC: documents larger than the caches, data path bound.
    CocDocs,
    /// SCFS-AWS-NB at fleet scale: small shared files that fit the caches.
    NbFleet,
    /// Metadata storm over the 4-shard ABD plane.
    MetaStorm,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::CocDocs, Kind::NbFleet, Kind::MetaStorm];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CocDocs => "coc_docs",
            Kind::NbFleet => "nb_fleet",
            Kind::MetaStorm => "meta_storm",
        }
    }

    /// The fixed shape of the workload.
    pub fn shape(self) -> Shape {
        match self {
            Kind::CocDocs => Shape {
                teams: 2,
                mounts_per_team: 4,
                files_per_team: 48,
                size_range: (16 << 10, 2 << 20),
                ops_per_mount: 64,
                passes: 5,
                think: SimDuration::from_secs(2),
            },
            Kind::NbFleet => Shape {
                teams: 25,
                mounts_per_team: 20,
                files_per_team: 64,
                size_range: (4 << 10, 64 << 10),
                ops_per_mount: 48,
                passes: 2,
                think: SimDuration::from_secs(2),
            },
            // Every mount is its own team: a private home directory.
            Kind::MetaStorm => Shape {
                teams: 512,
                mounts_per_team: 1,
                files_per_team: 8,
                size_range: (256, 4 << 10),
                ops_per_mount: 500,
                passes: 3,
                think: SimDuration::from_secs(16),
            },
        }
    }

    /// The agent configuration every mount of the workload uses. The
    /// cache tiers are sized against the team working sets: `coc_docs`
    /// shares about 20 MiB per team (5x the memory tier, 1.7x the disk
    /// tier), `nb_fleet` about 1.4 MiB (a third of the memory tier).
    fn config(self) -> ScfsConfig {
        match self {
            Kind::CocDocs => {
                let mut cfg = ScfsConfig::paper_default(Mode::Blocking)
                    .with_cdc()
                    .with_cache_capacities(Bytes::mib(4), Bytes::mib(12));
                // Every writing mount collects several times per run.
                cfg.gc.written_bytes_threshold = Bytes::kib(512);
                cfg.gc.versions_to_keep = 2;
                cfg
            }
            Kind::NbFleet => ScfsConfig::paper_default(Mode::NonBlocking)
                .with_cache_capacities(Bytes::mib(4), Bytes::mib(64)),
            Kind::MetaStorm => {
                let mut cfg = ScfsConfig::paper_default(Mode::Blocking)
                    .with_cache_capacities(Bytes::mib(1), Bytes::mib(4));
                // Every metadata call reaches the coordination plane.
                cfg.metadata_cache_expiry = SimDuration::ZERO;
                cfg
            }
        }
    }
}

/// Files (by popularity rank) each `nb_fleet` mount reads during set-up.
const WARM_FILES: usize = 16;

/// The size of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Teams; each shares one account and one directory.
    pub teams: usize,
    /// Mounts per team.
    pub mounts_per_team: usize,
    /// Files each team shares.
    pub files_per_team: usize,
    /// Smallest and largest populated file size (log-uniform, stratified).
    pub size_range: (usize, usize),
    /// Closed-loop iterations each mount runs in the timed phase.
    pub ops_per_mount: usize,
    /// Passes, each on its own sub-seed, whose results together make up
    /// the workload's virtual-time figures.
    pub passes: usize,
    /// Mean virtual think time between a mount's iterations.
    pub think: SimDuration,
}

impl Shape {
    /// Mounts in total.
    pub fn mounts(&self) -> usize {
        self.teams * self.mounts_per_team
    }
}

/// Op classes latencies are reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// open + whole read + close.
    Read,
    /// One save: open(rw) + write + commit on close.
    Write,
    /// stat / readdir / mkdir / rename, and open+close in `meta_storm`.
    Meta,
    /// A copy to a new name.
    Copy,
}

const CLASSES: usize = 4;

/// One environment: what a run builds before it mounts.
struct Env {
    storage: Arc<dyn FileStorage>,
    coord: Arc<dyn CoordinationService>,
    clouds: Vec<Arc<SimulatedCloud>>,
}

fn build_env(
    kind: Kind,
    seed: u64,
    traced: bool,
    wrap: impl FnOnce(Arc<dyn CoordinationService>) -> Arc<dyn CoordinationService>,
) -> Env {
    let profiles = match kind {
        Kind::CocDocs => ProviderSet::coc_storage_backend(),
        Kind::NbFleet | Kind::MetaStorm => vec![ProviderProfile::amazon_s3()],
    };
    let clouds: Vec<Arc<SimulatedCloud>> = profiles
        .into_iter()
        .enumerate()
        .map(|(i, p)| Arc::new(SimulatedCloud::new(p, seed.wrapping_add(i as u64))))
        .collect();
    let stores: Vec<Arc<dyn ObjectStore>> = clouds
        .iter()
        .map(|c| {
            let store = c.clone() as Arc<dyn ObjectStore>;
            if traced {
                Arc::new(TimedStore::new(store)) as Arc<dyn ObjectStore>
            } else {
                store
            }
        })
        .collect();
    let storage: Arc<dyn FileStorage> = match kind {
        Kind::CocDocs => {
            let depsky = DepSkyClient::new(stores, DepSkyConfig::scfs_default(), seed)
                .expect("four clouds match the f = 1 configuration");
            Arc::new(CloudOfCloudsStorage::new(depsky))
        }
        Kind::NbFleet | Kind::MetaStorm => Arc::new(SingleCloudStorage::new(stores[0].clone())),
    };
    let coord_seed = seed ^ 0x9999;
    let coord: Arc<dyn CoordinationService> = match kind {
        Kind::CocDocs => Arc::new(
            ReplicatedCoordinator::new(ReplicationConfig::coc_byzantine(), coord_seed)
                .expect("paper deployment is consistent"),
        ),
        Kind::NbFleet => Arc::new(
            ReplicatedCoordinator::new(ReplicationConfig::aws_single_ec2(), coord_seed)
                .expect("paper deployment is consistent"),
        ),
        Kind::MetaStorm => Arc::new(
            ShardedCoordinator::new(ShardTopology::metro(4, 1), coord_seed)
                .expect("metro topology is consistent"),
        ),
    };
    let coord = wrap(coord);
    if traced {
        Env {
            storage: Arc::new(TimedStorage::new(storage)),
            coord: Arc::new(TimedCoord::new(coord)),
            clouds,
        }
    } else {
        Env {
            storage,
            coord,
            clouds,
        }
    }
}

/// The seed of pass `index` of a run seeded with `seed`.
pub fn pass_seed(seed: u64, index: usize) -> u64 {
    DetRng::new(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// A cheap 64-bit checksum of file contents (word-wise multiply-rotate).
fn checksum(data: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 33)
}

/// The versions of one path. The coordination service orders commits by
/// their virtual commit instant, which the driver only brackets: a version
/// took effect no earlier than the instant its close began and no later
/// than the instant its commit was visible to every mount (`None` for a
/// close that failed and may or may not have made it visible).
#[derive(Debug, Clone)]
pub struct History(Vec<Version>);

#[derive(Debug, Clone)]
struct Version {
    sum: u64,
    closing: SimInstant,
    visible: Option<SimInstant>,
}

impl History {
    /// A path whose first version, `sum`, is visible from the start.
    pub fn new(sum: u64) -> Self {
        History(vec![Version {
            sum,
            closing: SimInstant::EPOCH,
            visible: Some(SimInstant::EPOCH),
        }])
    }

    /// Records a version whose close begins at `closing`; returns its index
    /// for [`History::committed`].
    pub fn closing(&mut self, sum: u64, closing: SimInstant) -> usize {
        self.0.push(Version {
            sum,
            closing,
            visible: None,
        });
        self.0.len() - 1
    }

    /// Marks version `index` visible to every mount from `at` on.
    pub fn committed(&mut self, index: usize, at: SimInstant) {
        self.0[index].visible = Some(at);
    }

    /// Whether a read may return `sum` when every commit visible before
    /// `horizon` must show: some version with that checksum is not
    /// superseded by a version that surely took effect after it and was
    /// visible before `horizon`.
    pub fn admits(&self, sum: u64, horizon: SimInstant) -> bool {
        self.0.iter().filter(|v| v.sum == sum).any(|v| {
            let Some(visible) = v.visible else {
                return true;
            };
            !self
                .0
                .iter()
                .any(|w| w.closing > visible && w.visible.is_some_and(|at| at < horizon))
        })
    }
}

/// One file the driver tracks: its latest contents and its history.
struct FileModel {
    path: String,
    content: Vec<u8>,
    history: History,
}

impl FileModel {
    fn new(path: String, content: Vec<u8>) -> Self {
        let history = History::new(checksum(&content));
        FileModel {
            path,
            content,
            history,
        }
    }
}

struct MountState {
    agent: ScfsAgent,
    rng: DetRng,
    team: usize,
    remaining: usize,
    /// The mount's visiting order over its team's files (`coc_docs`).
    order: Vec<usize>,
    cursor: usize,
    copies: usize,
    dirs_made: usize,
    own_version: usize,
    /// Virtual instant the current closed-loop iteration started.
    step_start: SimInstant,
    /// (start, end) of the mount's earlier iterations whose end (background
    /// work included) is recent enough that metadata they cached may still
    /// be served.
    recent: Vec<(SimInstant, SimInstant)>,
}

/// What the timed phase of one pass produced. Everything but the wall
/// fields is a function of the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// Virtual latency samples per class, in nanoseconds, sorted.
    pub latencies: [Vec<u64>; CLASSES],
    /// User operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed the read check.
    pub failed: u64,
    /// Reads whose bytes matched no committed version of the path.
    pub mismatches: u64,
    /// Save attempts refused with `Locked` and retried.
    pub lock_refusals: u64,
    /// Cloud charges of the timed phase, in dollars.
    pub cloud_usd: f64,
    /// Bytes the clouds store at the end (every retained version).
    pub stored_bytes: u64,
    /// Logical bytes of the live files at the end.
    pub live_bytes: u64,
    /// Agent counters summed over mounts (timed phase only).
    pub agent: AgentStats,
    /// Cache counters summed over mounts (timed phase only).
    pub cache: TieredStats,
    /// FNV-1a hash over every operation's outcome and virtual instant.
    pub trace_hash: u64,
}

/// A pass's results plus its wall-clock measurements.
#[derive(Debug)]
pub struct Pass {
    /// The seed-determined results.
    pub result: PassResult,
    /// Wall seconds spent building, populating and mounting.
    pub setup_s: f64,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// The seam trace of the timed phase (empty when untraced).
    pub trace: seams::Trace,
}

/// Log-uniform sizes in `range`, one per stratum, in seeded order: the mean
/// of the set barely moves with the seed, the assignment to files does.
fn stratified_sizes(n: usize, range: (usize, usize), rng: &mut DetRng) -> Vec<usize> {
    let (lo, hi) = (range.0 as f64, range.1 as f64);
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.next_f64()) / n as f64;
            (lo * (hi / lo).powf(u)).round() as usize
        })
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

fn log_uniform(rng: &mut DetRng, lo: usize, hi: usize) -> usize {
    let (lo, hi) = (lo as f64, hi as f64);
    (lo * (hi / lo).powf(rng.next_f64())).round() as usize
}

fn fnv_mix(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn sorted_ns(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The workload-generated payload the kernel probes run on: the populated
/// file contents of one `seed`, concatenated cyclically to `len` bytes.
pub fn payload(kind: Kind, seed: u64, len: usize) -> Vec<u8> {
    let files = initial_files(kind, kind.shape(), seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        for f in &files {
            let take = (len - out.len()).min(f.content.len());
            out.extend_from_slice(&f.content[..take]);
            if out.len() == len {
                break;
            }
        }
    }
    out
}

/// Copy destinations per mount (`coc_docs`), reused round-robin.
const COPY_SLOTS: usize = 4;

fn copy_path(team: usize, mount: usize, slot: usize) -> String {
    format!("/t{team}/copies/m{mount}_c{slot}")
}

fn team_dir(kind: Kind, team: usize) -> String {
    match kind {
        Kind::CocDocs => format!("/t{team}/docs"),
        Kind::NbFleet => format!("/t{team}/shared"),
        Kind::MetaStorm => format!("/u{team}/docs"),
    }
}

/// The populated files, team-major: file `j` of team `t` is at index
/// `t * files_per_team + j`.
fn initial_files(kind: Kind, shape: Shape, seed: u64) -> Vec<FileModel> {
    let mut rng = DetRng::new(seed ^ 0xF11E5);
    let mut files = Vec::with_capacity(shape.teams * shape.files_per_team);
    for team in 0..shape.teams {
        let sizes = stratified_sizes(shape.files_per_team, shape.size_range, &mut rng);
        for (j, size) in sizes.into_iter().enumerate() {
            let path = format!("{}/f{j}", team_dir(kind, team));
            files.push(FileModel::new(path, rng.bytes(size)));
        }
    }
    files
}

/// The first instant at which every mount's population writes (foreground
/// and background) are visible, clear of the metadata-cache expiry window.
fn population_epoch(mounts: &[MountState]) -> SimInstant {
    mounts
        .iter()
        .map(|st| st.agent.now().max(st.agent.background_drain_instant()))
        .max()
        .unwrap_or(SimInstant::EPOCH)
        + SimDuration::from_secs(1)
}

/// A built, populated and mounted environment, ready for its timed phase.
pub struct World {
    kind: Kind,
    shape: Shape,
    traced: bool,
    env: Env,
    files: Vec<FileModel>,
    copies: Vec<(String, u64)>,
    mounts: Vec<MountState>,
    baseline_agent: Vec<AgentStats>,
    baseline_cache: Vec<TieredStats>,
    usd_before: f64,
    /// Wall seconds spent building, populating and mounting.
    pub setup_s: f64,
}

/// Builds the environment, mounts every client and populates the shared
/// files: the benchmark's set-up, timed as a whole.
pub fn setup(kind: Kind, shape: Shape, seed: u64, traced: bool) -> World {
    setup_with(kind, shape, seed, traced, |coord| coord)
}

/// [`setup`] with the coordination service replaced by `wrap(service)`,
/// so tests can put a faulty service under the agents.
pub fn setup_with(
    kind: Kind,
    shape: Shape,
    seed: u64,
    traced: bool,
    wrap: impl FnOnce(Arc<dyn CoordinationService>) -> Arc<dyn CoordinationService>,
) -> World {
    let config = kind.config();
    let setup_start = Instant::now();
    let env = build_env(kind, seed, traced, wrap);
    let files = initial_files(kind, shape, seed);

    let mut mounts: Vec<MountState> = (0..shape.mounts())
        .map(|m| {
            let team = m / shape.mounts_per_team;
            let account = match kind {
                Kind::MetaStorm => format!("u{team}"),
                _ => format!("team{team}"),
            };
            let agent = ScfsAgent::mount(
                account.as_str().into(),
                config.clone(),
                env.storage.clone(),
                Some(env.coord.clone()),
                seed.wrapping_mul(31).wrapping_add(0xA11CE + m as u64),
            )
            .expect("a coordinated mode with a coordinator mounts");
            let mut rng = DetRng::new(seed ^ (m as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut order: Vec<usize> = (0..shape.files_per_team).collect();
            rng.shuffle(&mut order);
            MountState {
                agent,
                rng,
                team,
                remaining: shape.ops_per_mount,
                order,
                cursor: 0,
                copies: 0,
                dirs_made: 0,
                own_version: 0,
                step_start: SimInstant::EPOCH,
                recent: Vec::new(),
            }
        })
        .collect();

    // Population: each team's first mount creates every shared file (and,
    // in `coc_docs`, every copy destination), so it owns them and its
    // garbage collector prunes their old versions. Mounts of one account
    // number new objects independently, so a second creator per account
    // would reuse the first one's storage ids.
    let mut copies = Vec::new();
    for team in 0..shape.teams {
        let st = &mut mounts[team * shape.mounts_per_team];
        if kind == Kind::MetaStorm {
            for dir in [format!("/u{team}"), team_dir(kind, team)] {
                st.agent.mkdir(&dir).expect("fresh home directory");
            }
            st.agent
                .write_file(&format!("/u{team}/own_v0"), b"private")
                .expect("fresh private file");
        }
        for f in &files[team * shape.files_per_team..(team + 1) * shape.files_per_team] {
            st.agent
                .write_file(&f.path, &f.content)
                .expect("population writes cannot conflict");
        }
        if kind == Kind::CocDocs {
            for m in team * shape.mounts_per_team..(team + 1) * shape.mounts_per_team {
                for slot in 0..COPY_SLOTS {
                    let path = copy_path(team, m, slot);
                    st.agent
                        .write_file(&path, b"placeholder")
                        .expect("population writes cannot conflict");
                    copies.push((path, 11));
                }
            }
        }
    }
    // The cache-fitting workload starts warm: every mount has read the
    // team's most popular files once, after the population is visible.
    if kind == Kind::NbFleet {
        let visible = population_epoch(&mounts);
        for st in mounts.iter_mut() {
            let wait = visible.duration_since(st.agent.now());
            st.agent.sleep(wait);
            let base = st.team * shape.files_per_team;
            for f in &files[base..base + WARM_FILES.min(shape.files_per_team)] {
                st.agent.read_file(&f.path).expect("populated files read");
            }
        }
    }
    let epoch = population_epoch(&mounts);
    for st in mounts.iter_mut() {
        let arrival =
            epoch
                .duration_since(st.agent.now())
                .saturating_add(SimDuration::from_secs_f64(
                    st.rng.exponential(shape.think.as_secs_f64()),
                ));
        st.agent.sleep(arrival);
    }
    let baseline_agent: Vec<AgentStats> = mounts.iter().map(|st| st.agent.stats()).collect();
    let baseline_cache: Vec<TieredStats> = mounts.iter().map(|st| st.agent.cache_stats()).collect();
    let usd_before: f64 = env
        .clouds
        .iter()
        .map(|c| c.ledger().grand_total().as_dollars())
        .sum();
    World {
        kind,
        shape,
        traced,
        env,
        files,
        copies,
        mounts,
        baseline_agent,
        baseline_cache,
        usd_before,
        setup_s: setup_start.elapsed().as_secs_f64(),
    }
}

impl World {
    /// Runs the timed closed-loop phase.
    pub fn run(self) -> Pass {
        let World {
            kind,
            shape,
            traced,
            env,
            mut files,
            copies,
            mut mounts,
            baseline_agent,
            baseline_cache,
            usd_before,
            setup_s,
        } = self;
        if traced {
            seams::reset();
        }
        let timed_start = Instant::now();
        let mut driver = Driver {
            kind,
            shape,
            traced,
            expiry: kind.config().metadata_cache_expiry,
            files: &mut files,
            copies,
            latencies: Default::default(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            lock_refusals: 0,
            trace_hash: 0xcbf2_9ce4_8422_2325,
        };
        let zipf = Zipf::new(shape.files_per_team, 0.99);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = mounts
            .iter()
            .enumerate()
            .map(|(i, st)| Reverse((st.agent.now().as_nanos(), i)))
            .collect();
        let mut root = |driver: &mut Driver<'_>, mounts: &mut Vec<MountState>| {
            while let Some(Reverse((_, idx))) = heap.pop() {
                let st = &mut mounts[idx];
                st.step_start = st.agent.now();
                driver.step(idx, st, &zipf);
                let now = st.agent.now();
                let end = now.max(st.agent.background_drain_instant());
                let window = now.as_nanos().saturating_sub(driver.expiry.as_nanos());
                st.recent.retain(|(_, until)| until.as_nanos() > window);
                st.recent.push((st.step_start, end));
                st.remaining -= 1;
                if st.remaining > 0 {
                    let think = st.rng.exponential(shape.think.as_secs_f64());
                    st.agent.sleep(SimDuration::from_secs_f64(think));
                    heap.push(Reverse((st.agent.now().as_nanos(), idx)));
                }
            }
        };
        if traced {
            seams::span(Layer::Driver, || root(&mut driver, &mut mounts));
        } else {
            root(&mut driver, &mut mounts);
        }
        let timed_s = timed_start.elapsed().as_secs_f64();
        let trace = if traced {
            seams::take()
        } else {
            seams::Trace::default()
        };

        let mut agent = AgentStats::default();
        let mut cache = TieredStats::default();
        for (i, st) in mounts.iter().enumerate() {
            add_agent_stats(&mut agent, &st.agent.stats(), &baseline_agent[i]);
            let mut delta = st.agent.cache_stats();
            sub_cache_stats(&mut delta, &baseline_cache[i]);
            cache.merge(&delta);
        }
        let usd_after: f64 = env
            .clouds
            .iter()
            .map(|c| c.ledger().grand_total().as_dollars())
            .sum();
        let stored_bytes = env
            .clouds
            .iter()
            .map(|c| c.stored_bytes_all_versions().get())
            .sum();
        let live_bytes = driver
            .files
            .iter()
            .map(|f| f.content.len() as u64)
            .chain(driver.copies.iter().map(|c| c.1))
            .sum();
        let Driver {
            latencies,
            attempted,
            failed,
            mismatches,
            lock_refusals,
            trace_hash,
            ..
        } = driver;
        Pass {
            result: PassResult {
                latencies: latencies.map(sorted_ns),
                attempted,
                failed,
                mismatches,
                lock_refusals,
                cloud_usd: usd_after - usd_before,
                stored_bytes,
                live_bytes,
                agent,
                cache,
                trace_hash,
            },
            setup_s,
            timed_s,
            trace,
        }
    }
}

/// The closed loop's per-operation logic and its bookkeeping.
struct Driver<'a> {
    kind: Kind,
    shape: Shape,
    traced: bool,
    /// How long an agent may serve metadata from its cache.
    expiry: SimDuration,
    files: &'a mut Vec<FileModel>,
    /// Live copies: (path, logical bytes).
    copies: Vec<(String, u64)>,
    latencies: [Vec<u64>; CLASSES],
    attempted: u64,
    failed: u64,
    mismatches: u64,
    lock_refusals: u64,
    trace_hash: u64,
}

/// Save attempts before a `Locked` refusal counts as a failure.
const LOCK_RETRIES: usize = 20;
/// Virtual back-off between save attempts refused with `Locked`.
const LOCK_BACKOFF: SimDuration = SimDuration::from_millis(250);

/// Runs `f` as one agent call (an `agent` span when traced).
fn call<R>(traced: bool, f: impl FnOnce() -> R) -> R {
    if traced {
        seams::span(Layer::Agent, f)
    } else {
        f()
    }
}

impl Driver<'_> {
    fn record(&mut self, class: Class, st: &MountState, start: SimInstant, ok: bool) {
        self.attempted += 1;
        let now = st.agent.now();
        if ok {
            self.latencies[class as usize].push(now.duration_since(start).as_nanos());
        } else {
            self.failed += 1;
        }
        fnv_mix(&mut self.trace_hash, class as u64 * 2 + u64::from(ok));
        fnv_mix(&mut self.trace_hash, now.as_nanos());
    }

    /// One closed-loop iteration of mount `idx`.
    fn step(&mut self, idx: usize, st: &mut MountState, zipf: &Zipf) {
        let shape = self.shape;
        let base = st.team * shape.files_per_team;
        fnv_mix(&mut self.trace_hash, idx as u64);
        match self.kind {
            Kind::CocDocs => {
                // Uniform without replacement: each mount cycles through a
                // fresh shuffle of its team's documents, so the working set
                // is the whole team directory.
                if st.cursor == st.order.len() {
                    st.rng.shuffle(&mut st.order);
                    st.cursor = 0;
                }
                let file = base + st.order[st.cursor];
                st.cursor += 1;
                // The document browser's lookup precedes every action.
                self.stat(st, file);
                let u = st.rng.next_f64();
                if u < 0.50 {
                    self.read(st, file);
                } else if u < 0.85 {
                    let len = log_uniform(&mut st.rng, 1 << 10, 64 << 10);
                    self.save(st, file, Edit::InPlace(len));
                } else if u < 0.95 {
                    let len = log_uniform(&mut st.rng, 1 << 10, 16 << 10);
                    self.save(st, file, Edit::Insert(len));
                } else {
                    self.copy(idx, st, file);
                }
            }
            Kind::NbFleet => {
                // Reads follow popularity; edits spread evenly over the
                // team's files (popular files are read-mostly).
                let file = base + zipf.sample(&mut st.rng);
                let u = st.rng.next_f64();
                if u < 0.85 {
                    self.read(st, file);
                } else if u < 0.95 {
                    let file = base + st.rng.next_below(shape.files_per_team as u64) as usize;
                    let len = log_uniform(&mut st.rng, 256, 4 << 10);
                    self.save(st, file, Edit::InPlace(len));
                } else if u < 0.98 {
                    self.stat(st, file);
                } else {
                    self.readdir(st);
                }
            }
            Kind::MetaStorm => {
                let file = base + zipf.sample(&mut st.rng);
                let u = st.rng.next_f64();
                if u < 0.58 {
                    self.stat(st, file);
                } else if u < 0.77 {
                    self.open_close(st, file);
                } else if u < 0.86 {
                    self.mkdir(st);
                } else if u < 0.91 {
                    self.rename(st);
                } else if u < 0.96 {
                    self.readdir(st);
                } else if u < 0.98 {
                    self.read(st, file);
                } else {
                    let len = log_uniform(&mut st.rng, 16, 256);
                    self.save(st, file, Edit::InPlace(len));
                }
            }
        }
    }

    fn stat(&mut self, st: &mut MountState, file: usize) {
        let start = st.agent.now();
        let path = &self.files[file].path;
        let ok = call(self.traced, || st.agent.stat(path)).is_ok();
        self.record(Class::Meta, st, start, ok);
    }

    fn readdir(&mut self, st: &mut MountState) {
        let start = st.agent.now();
        let dir = team_dir(self.kind, st.team);
        let ok = call(self.traced, || st.agent.readdir(&dir)).is_ok();
        self.record(Class::Meta, st, start, ok);
    }

    fn mkdir(&mut self, st: &mut MountState) {
        let start = st.agent.now();
        // Outside the listed directory, so `readdir` cost stays flat.
        let path = format!("/u{}/d{}", st.team, st.dirs_made);
        st.dirs_made += 1;
        let ok = call(self.traced, || st.agent.mkdir(&path)).is_ok();
        self.record(Class::Meta, st, start, ok);
    }

    fn rename(&mut self, st: &mut MountState) {
        let start = st.agent.now();
        let from = format!("/u{}/own_v{}", st.team, st.own_version);
        let to = format!("/u{}/own_v{}", st.team, st.own_version + 1);
        let ok = call(self.traced, || st.agent.rename(&from, &to)).is_ok();
        if ok {
            st.own_version += 1;
        }
        self.record(Class::Meta, st, start, ok);
    }

    fn open_close(&mut self, st: &mut MountState, file: usize) {
        let start = st.agent.now();
        let path = &self.files[file].path;
        let ok = call(self.traced, || st.agent.open(path, OpenFlags::read_only()))
            .and_then(|h| call(self.traced, || st.agent.close(h)))
            .is_ok();
        self.record(Class::Meta, st, start, ok);
    }

    fn read(&mut self, st: &mut MountState, file: usize) {
        let start = st.agent.now();
        let path = &self.files[file].path;
        let out = (|| {
            let h = call(self.traced, || st.agent.open(path, OpenFlags::read_only()))?;
            let size = call(self.traced, || st.agent.handle_size(h))?;
            let data = call(self.traced, || st.agent.read(h, 0, size as usize))?;
            call(self.traced, || st.agent.close(h))?;
            Ok::<_, ScfsError>(data)
        })();
        let ok = match out {
            Ok(data) => {
                let horizon = read_horizon(st, start, self.expiry);
                let matched = self.files[file].history.admits(checksum(&data), horizon);
                self.mismatches += u64::from(!matched);
                matched
            }
            Err(_) => false,
        };
        self.record(Class::Read, st, start, ok);
    }

    /// Rewrites the whole file from the driver's latest contents with one
    /// edit applied. An open refused with `Locked` (another mount is
    /// committing the file) is retried after a back-off; the latency sample
    /// is the attempt that got the lock, the refusals are counted apart.
    fn save(&mut self, st: &mut MountState, file: usize, edit: Edit) {
        let model = &mut self.files[file];
        match edit {
            Edit::InPlace(len) => {
                let len = len.min(model.content.len());
                let at = st.rng.next_below((model.content.len() - len + 1) as u64) as usize;
                st.rng.fill_bytes(&mut model.content[at..at + len]);
            }
            Edit::Insert(len) => {
                let at = st.rng.next_below(model.content.len() as u64 + 1) as usize;
                let fresh = st.rng.bytes(len);
                model.content.splice(at..at, fresh);
            }
        }
        let mut attempts = 0;
        let mut start = st.agent.now();
        let handle = loop {
            match call(self.traced, || {
                st.agent.open(&model.path, OpenFlags::create_truncate())
            }) {
                Err(ScfsError::Locked { .. }) if attempts < LOCK_RETRIES => {
                    attempts += 1;
                    self.lock_refusals += 1;
                    st.agent.sleep(LOCK_BACKOFF);
                    start = st.agent.now();
                }
                other => break other,
            }
        };
        let content = &model.content;
        let ok = handle
            .and_then(|h| {
                call(self.traced, || st.agent.write(h, 0, content))?;
                // Recorded before the close: a close that fails half-way may
                // still have made this version visible.
                let version = model.history.closing(checksum(content), st.agent.now());
                call(self.traced, || st.agent.close(h))?;
                // A non-blocking close returns before its commit: the
                // version is visible once the background upload committed it.
                let now = st.agent.now();
                let at = st
                    .agent
                    .upload_token(&model.path)
                    .map_or(now, |t| t.ready_at().max(now));
                model.history.committed(version, at);
                Ok(())
            })
            .is_ok();
        self.record(Class::Write, st, start, ok);
    }

    /// Copies a document to one of the mount's four rotating copy names.
    fn copy(&mut self, idx: usize, st: &mut MountState, file: usize) {
        let start = st.agent.now();
        let to = copy_path(st.team, idx, st.copies % COPY_SLOTS);
        st.copies += 1;
        let from = &self.files[file].path;
        let ok = call(self.traced, || st.agent.copy_file(from, &to)).is_ok();
        if ok {
            let len = self.files[file].content.len() as u64;
            if let Some(c) = self.copies.iter_mut().find(|c| c.0 == to) {
                c.1 = len;
            }
        }
        self.record(Class::Copy, st, start, ok);
    }
}

/// The instant before which every commit must show in a read that `st`
/// starts at `start`. Each iteration runs to its end before the next one
/// (of any mount) starts, so what an agent fetches during an iteration
/// reflects every commit made before the iteration started; metadata it
/// cached in an earlier iteration may be served for up to `expiry`.
fn read_horizon(st: &MountState, start: SimInstant, expiry: SimDuration) -> SimInstant {
    let window = SimInstant::from_nanos(start.as_nanos().saturating_sub(expiry.as_nanos()));
    st.recent
        .iter()
        .filter(|(_, end)| *end > window)
        .fold(window.min(st.step_start), |h, (begun, _)| h.min(*begun))
}

#[derive(Debug, Clone, Copy)]
enum Edit {
    InPlace(usize),
    Insert(usize),
}

impl PassResult {
    /// Folds another pass's results into this one: latency samples are
    /// pooled, counts and charges summed.
    pub fn absorb(&mut self, other: &PassResult) {
        for (mine, theirs) in self.latencies.iter_mut().zip(&other.latencies) {
            mine.extend_from_slice(theirs);
            mine.sort_unstable();
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.lock_refusals += other.lock_refusals;
        self.cloud_usd += other.cloud_usd;
        self.stored_bytes += other.stored_bytes;
        self.live_bytes += other.live_bytes;
        add_agent_stats(&mut self.agent, &other.agent, &AgentStats::default());
        self.cache.merge(&other.cache);
        fnv_mix(&mut self.trace_hash, other.trace_hash);
    }
}

fn add_agent_stats(acc: &mut AgentStats, now: &AgentStats, base: &AgentStats) {
    macro_rules! add {
        ($($f:ident),*) => { $(acc.$f += now.$f - base.$f;)* };
    }
    add!(
        syscalls,
        cloud_uploads,
        cloud_downloads,
        chunk_uploads,
        chunk_downloads,
        bytes_uploaded,
        bytes_downloaded,
        cache_served_reads,
        anchor_retries,
        gc_runs,
        gc_reclaimed_versions,
        gc_errors,
        gc_retried,
        gc_orphans_reclaimed,
        dedup_hits_cross_file,
        transfer_waves,
        range_reads,
        prefetched_chunks,
        backpressure_stalls
    );
}

fn sub_cache_stats(acc: &mut TieredStats, base: &TieredStats) {
    for (a, b) in [(&mut acc.memory, &base.memory), (&mut acc.disk, &base.disk)] {
        a.hits -= b.hits;
        a.misses -= b.misses;
        a.evictions -= b.evictions;
        a.invalidations -= b.invalidations;
        a.bytes_hit -= b.bytes_hit;
        a.bytes_evicted -= b.bytes_evicted;
        a.admission_rejects -= b.admission_rejects;
        a.policy_steps -= b.policy_steps;
    }
    acc.promotions -= base.promotions;
    acc.demotions -= base.demotions;
}
