//! Integration tests of the process-wide payload table under the agents'
//! two-tier caches (`scfs::cache::payload`):
//!
//! * mounts caching the same chunk share one allocation, and the table
//!   forgets it exactly when the last cache or transient copy holding it
//!   lets go — under random put / get / evict / remove / drop sequences over
//!   two or three agents' caches (property-tested), and end to end for 20
//!   mounts of one team reading one file;
//! * a corrupted cloud read fails closed and never enters the table, so it
//!   cannot poison other mounts.
//!
//! Parallel tests share the one table, so every test checks only hashes of
//! content unique to itself.

use std::sync::Arc;

use proptest::prelude::*;
use scfs_repro::cloud_store::providers::ProviderProfile;
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::coord::replication::{ReplicatedCoordinator, ReplicationConfig};
use scfs_repro::coord::service::CoordinationService;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::backend::{FileStorage, SingleCloudStorage};
use scfs_repro::scfs::cache::payload::{self, Payload};
use scfs_repro::scfs::cache::{CacheConfig, TieredCache, WriteMode};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::OpenFlags;
use scfs_repro::scfs_crypto::{sha256, ContentHash};
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::sim_core::units::Bytes;

/// `len` bytes no other test produces: a tag-seeded pseudo-random stream.
fn unique_bytes(tag: &str, len: usize) -> Vec<u8> {
    let seed = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = DetRng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Single-cloud storage plus one coordination service, with a handle on the
/// cloud for fault injection.
fn single_cloud_env(
    seed: u64,
) -> (
    Arc<SimulatedCloud>,
    Arc<dyn FileStorage>,
    Arc<dyn CoordinationService>,
) {
    let cloud = Arc::new(SimulatedCloud::new(ProviderProfile::amazon_s3(), seed));
    let storage: Arc<dyn FileStorage> = Arc::new(SingleCloudStorage::new(cloud.clone()));
    let coord: Arc<dyn CoordinationService> =
        Arc::new(ReplicatedCoordinator::new(ReplicationConfig::aws_single_ec2(), seed).unwrap());
    (cloud, storage, coord)
}

/// Small chunks, so a test file spans several.
fn config() -> ScfsConfig {
    ScfsConfig {
        chunk_size: Bytes::kib(16),
        ..ScfsConfig::test(Mode::Blocking)
    }
}

/// Virtual clocks start at zero and a write is visible from its instant, so
/// mounts that read what an earlier mount wrote start this much later.
const LATER: SimDuration = SimDuration::from_secs(60);

/// Mounts an agent whose clock starts at `start`.
fn mount(
    storage: &Arc<dyn FileStorage>,
    coord: &Arc<dyn CoordinationService>,
    seed: u64,
    start: SimDuration,
) -> ScfsAgent {
    let mut agent = ScfsAgent::mount(
        "team".into(),
        config(),
        storage.clone(),
        Some(coord.clone()),
        seed,
    )
    .unwrap();
    agent.sleep(start);
    agent
}

/// The chunk hashes and the manifest root of `data` under [`config`].
fn hashes_of(data: &[u8]) -> (Vec<ContentHash>, ContentHash) {
    let map = config().chunk_map(data);
    (map.chunks().to_vec(), map.root_hash())
}

#[test]
fn a_team_of_20_mounts_shares_one_copy_of_each_chunk() {
    let (_cloud, storage, coord) = single_cloud_env(1);
    let data = unique_bytes("team-of-20", 40 << 10);
    let (chunks, root) = hashes_of(&data);
    assert_eq!(chunks.len(), 3);

    let mut writer = mount(&storage, &coord, 100, SimDuration::ZERO);
    writer.write_file("/team/shared.doc", &data).unwrap();
    drop(writer);
    for hash in chunks.iter().chain([&root]) {
        assert!(!payload::is_interned(hash), "the writer's cache is gone");
    }

    let readers: Vec<ScfsAgent> = (0..20)
        .map(|i| {
            let mut reader = mount(&storage, &coord, 200 + i, LATER);
            assert_eq!(reader.read_file("/team/shared.doc").unwrap(), data);
            reader
        })
        .collect();
    // Each reader caches every chunk and the manifest in its memory tier;
    // all twenty entries are the table's one allocation.
    for hash in chunks.iter().chain([&root]) {
        assert_eq!(payload::holders(hash), 20, "one shared copy per hash");
    }
    for reader in &readers {
        let stats = reader.cache_stats();
        assert_eq!(stats.memory.evictions, 0);
    }

    drop(readers);
    for hash in chunks.iter().chain([&root]) {
        assert!(!payload::is_interned(hash), "released with the last mount");
    }
}

#[test]
fn a_corrupted_cloud_read_fails_closed_and_never_enters_the_table() {
    let (cloud, storage, coord) = single_cloud_env(2);
    let data = unique_bytes("poisoning", 40 << 10);
    let (chunks, root) = hashes_of(&data);

    let mut writer = mount(&storage, &coord, 300, SimDuration::ZERO);
    writer.write_file("/team/target.doc", &data).unwrap();
    drop(writer);

    // The victim loads the manifest from a healthy cloud; then every read
    // the cloud serves comes back corrupted.
    let mut victim = mount(&storage, &coord, 301, LATER);
    let handle = victim
        .open("/team/target.doc", OpenFlags::read_only())
        .unwrap();
    cloud.set_fault_plan(FaultPlan::always_byzantine(), 7);
    assert!(
        victim.read(handle, 0, data.len()).is_err(),
        "a chunk that fails verification must fail the read"
    );
    victim.close(handle).unwrap();
    for hash in &chunks {
        assert!(!payload::is_interned(hash), "corrupted bytes were interned");
    }
    assert!(
        payload::is_interned(&root),
        "the verified manifest stays cached"
    );

    // Once the cloud is healthy again, a fresh mount and the victim both read
    // the correct content.
    cloud.set_fault_plan(FaultPlan::none(), 0);
    let mut healthy = mount(&storage, &coord, 302, LATER);
    assert_eq!(healthy.read_file("/team/target.doc").unwrap(), data);
    assert_eq!(victim.read_file("/team/target.doc").unwrap(), data);
    assert_eq!(payload::holders(&chunks[0]), 2);
}

/// Number of distinct contents the property test cycles through.
const CONTENTS: usize = 8;

proptest! {
    /// Exact release over two or three agents' caches: after every step a
    /// hash is in the table exactly when some cache entry or held transient
    /// copy has it, and interning it again returns the very allocation the
    /// caches serve. Once every cache and copy is dropped the table holds
    /// none of the hashes.
    #[test]
    fn prop_the_table_holds_a_hash_exactly_while_a_cache_does(
        agents in 2usize..4,
        ops in collection::vec(any::<u16>(), 1..160),
    ) {
        let contents: Vec<(ContentHash, Vec<u8>)> = (0..CONTENTS)
            .map(|i| {
                let bytes = unique_bytes(&format!("prop-content-{i}"), 200 + i * 173);
                (sha256(&bytes), bytes)
            })
            .collect();
        // Tiny tiers, so puts evict and demote, and the three largest
        // contents bypass the memory tier.
        let cache_config = CacheConfig::default()
            .with_capacities(Bytes::new(1_000), Bytes::new(3_000));
        let new_cache = |seed: u64| TieredCache::new(&cache_config, seed);
        let mut caches: Vec<TieredCache> = (0..agents).map(|a| new_cache(a as u64)).collect();
        // Transient copies, with the index of their content.
        let mut held: Vec<(usize, Payload)> = Vec::new();
        let mut clock = Clock::new();
        let key = |i: usize| format!("chunk/{i}");

        for &op in &ops {
            let agent = op as usize % agents;
            let i = (op >> 2) as usize % CONTENTS;
            let (hash, bytes) = &contents[i];
            match (op >> 5) % 7 {
                0 | 1 => {
                    let mode = match (op >> 8) % 3 {
                        0 => WriteMode::CacheOnly,
                        1 => WriteMode::Through,
                        _ => WriteMode::DiskOnly,
                    };
                    let data = payload::intern(*hash, &bytes[..]);
                    caches[agent].put(&mut clock, &key(i), data, Some(*hash), mode);
                }
                2 => {
                    caches[agent].get(&mut clock, &key(i), Some(hash));
                }
                3 => caches[agent].remove(&key(i)),
                4 => {
                    if let Some(data) = caches[agent].get(&mut clock, &key(i), Some(hash)) {
                        held.push((i, data));
                    }
                }
                5 => {
                    if !held.is_empty() {
                        held.swap_remove(op as usize % held.len());
                    }
                }
                _ => caches[agent] = new_cache(op as u64),
            }

            for (i, (hash, bytes)) in contents.iter().enumerate() {
                let cached_by: Vec<usize> = (0..agents)
                    .filter(|&a| caches[a].contains(&key(i), Some(hash)))
                    .collect();
                let held_copy = held.iter().find(|(c, _)| *c == i).map(|(_, p)| p);
                let expected = !cached_by.is_empty() || held_copy.is_some();
                prop_assert_eq!(payload::is_interned(hash), expected, "content {}", i);
                if !expected {
                    continue;
                }
                let again = payload::intern(*hash, &bytes[..]);
                if let Some(copy) = held_copy {
                    prop_assert_eq!(again.as_ptr(), copy.as_ptr());
                }
                for a in cached_by {
                    let served = caches[a].get(&mut clock, &key(i), Some(hash));
                    prop_assert_eq!(served.map(|p| p.as_ptr()), Some(again.as_ptr()));
                }
            }
        }

        drop(caches);
        drop(held);
        for (hash, _) in &contents {
            prop_assert!(!payload::is_interned(hash));
        }
    }
}
