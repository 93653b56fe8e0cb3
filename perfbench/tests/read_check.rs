//! The read check must catch a system that serves superseded versions. A
//! coordination service that answers every metadata lookup with the value
//! the key held before its latest update (a stale metadata cache) makes
//! reads return the previous version of a file long after a newer one was
//! committed, and the driver must count those reads as mismatches.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cloud_store::store::OpCtx;
use cloud_store::types::Acl;
use coord::error::CoordError;
use coord::service::{CoordinationService, Entry, SessionId};
use perfbench::scenario::{setup, setup_with, Class, History, Kind, Shape};
use sim_core::time::{SimDuration, SimInstant};

/// Forwards everything, but a `get` of a file's metadata returns the
/// entry the key held before the newest one this service has seen.
struct StaleMetadata {
    inner: Arc<dyn CoordinationService>,
    /// Per key: (newest entry seen, the one before it).
    seen: Mutex<BTreeMap<String, (Entry, Option<Entry>)>>,
}

impl CoordinationService for StaleMetadata {
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, value: Vec<u8>) -> Result<u64, CoordError> {
        self.inner.put(ctx, key, value)
    }

    fn cas(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        expected: Option<u64>,
        value: Vec<u8>,
    ) -> Result<u64, CoordError> {
        self.inner.cas(ctx, key, expected, value)
    }

    fn create_ephemeral(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Vec<u8>,
        session: &SessionId,
        lease: SimDuration,
    ) -> Result<(), CoordError> {
        self.inner.create_ephemeral(ctx, key, value, session, lease)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError> {
        let entry = self.inner.get(ctx, key)?;
        if !key.starts_with("/scfs/meta/") {
            return Ok(entry);
        }
        let mut seen = self.seen.lock().expect("not poisoned");
        let slot = seen
            .entry(key.to_string())
            .or_insert_with(|| (entry.clone(), None));
        if slot.0.version != entry.version {
            let newest = std::mem::replace(&mut slot.0, entry);
            slot.1 = Some(newest);
        }
        Ok(slot.1.clone().unwrap_or_else(|| slot.0.clone()))
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), CoordError> {
        self.inner.delete(ctx, key)
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError> {
        self.inner.list(ctx, prefix)
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), CoordError> {
        self.inner.set_acl(ctx, key, acl)
    }

    fn rename_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        old_prefix: &str,
        new_prefix: &str,
    ) -> Result<usize, CoordError> {
        self.inner.rename_prefix(ctx, old_prefix, new_prefix)
    }

    fn access_count(&self) -> u64 {
        self.inner.access_count()
    }

    fn entry_count(&self) -> usize {
        self.inner.entry_count()
    }
}

/// A few teams sharing a few files, long enough for most files to be
/// rewritten and then read again.
fn small_fleet() -> Shape {
    let mut shape = Kind::NbFleet.shape();
    shape.teams = 2;
    shape.mounts_per_team = 4;
    shape.files_per_team = 8;
    shape.ops_per_mount = 60;
    shape
}

#[test]
fn a_healthy_fleet_passes_the_read_check() {
    let pass = setup(Kind::NbFleet, small_fleet(), 3, false).run();
    assert!(pass.result.attempted > 0);
    assert_eq!(pass.result.mismatches, 0);
}

#[test]
fn serving_the_previous_version_fails_the_read_check() {
    let pass = setup_with(Kind::NbFleet, small_fleet(), 3, false, |inner| {
        Arc::new(StaleMetadata {
            inner,
            seen: Mutex::new(BTreeMap::new()),
        })
    })
    .run();
    assert!(
        pass.result.mismatches > 0,
        "all {} reads passed the check under a stale coordination service",
        pass.result.latencies[Class::Read as usize].len()
    );
}

#[test]
fn history_admits_the_current_version_or_a_later_one() {
    let at = SimInstant::from_secs;
    let mut h = History::new(10);
    let v1 = h.closing(11, at(4));
    h.committed(v1, at(5));
    // A close that failed stays admissible, and supersedes nothing.
    h.closing(12, at(6));
    // Two commits that overlap in time: either may have taken effect last.
    let v3 = h.closing(13, at(7));
    let v4 = h.closing(14, at(8));
    h.committed(v4, at(9));
    h.committed(v3, at(10));

    // Before the first commit is visible: everything admissible.
    for sum in [10, 11, 12, 13, 14] {
        assert!(h.admits(sum, at(5)), "{sum} at 5 s");
    }
    // After it: the initial version is stale.
    assert!(!h.admits(10, at(6)));
    assert!(h.admits(11, at(6)));
    assert!(h.admits(12, at(6)));
    // After both overlapping commits only they remain, in either order.
    assert!(!h.admits(11, at(11)));
    assert!(h.admits(12, at(11)));
    assert!(h.admits(13, at(11)));
    assert!(h.admits(14, at(11)));
    // Checksums of other files never pass.
    assert!(!h.admits(99, at(6)));
}
