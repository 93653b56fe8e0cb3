//! Timing decorators over the three trait seams the SCFS agent is built
//! from — [`FileStorage`], [`CoordinationService`] and [`ObjectStore`] —
//! plus the span accounting that turns their wall times into per-layer
//! *self* times.
//!
//! Spans nest: the driver's timed phase is the root, every `FileSystem` call
//! the driver makes is an `agent` span, and the decorators open `backend`,
//! `coord` and `cloud` spans inside it. A layer's self time is its span
//! durations minus the child spans they contain, so the five self times sum
//! to the root span's wall time exactly (attribution closes by
//! construction; the benchmark still checks it).
//!
//! The decorators are transparent: they forward every trait method the
//! wrapped type implements, and they leave `begin_write_version`,
//! `begin_read_chunks` and `read_version` on their default bodies so that
//! background commits and chunk fetches re-enter the decorator through
//! `write_version` / `read_chunk`. They never touch a clock, so a traced run
//! produces the same virtual-time results as an untraced one.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use cloud_store::error::StorageError;
use cloud_store::providers::ProviderProfile;
use cloud_store::store::{ObjectStore, OpCtx};
use cloud_store::types::{Acl, ObjectMeta};
use coord::error::CoordError;
use coord::service::{CoordinationService, Entry, SessionId};
use scfs::backend::{FileStorage, WriteOutcome};
use scfs::chunkstore::{JournalOpts, ReplayReport};
use scfs::durability::DurabilityLevel;
use scfs::error::ScfsError;
use scfs::invariant::InvariantViolation;
use scfs::transfer::TransferOptions;
use scfs::types::ChunkMap;
use scfs_crypto::ContentHash;
use sim_core::schedule::ControllerSlot;
use sim_core::time::{SimDuration, SimInstant};

/// The layers wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop: op generation, content checks, bookkeeping.
    Driver,
    /// `ScfsAgent`'s `FileSystem` calls, minus the seams below.
    Agent,
    /// The `FileStorage` backend, minus its cloud calls.
    Backend,
    /// The simulated clouds (`ObjectStore`).
    Cloud,
    /// The coordination service.
    Coord,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Driver,
        Layer::Agent,
        Layer::Backend,
        Layer::Cloud,
        Layer::Coord,
    ];

    /// Stable metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Agent => "agent",
            Layer::Backend => "backend",
            Layer::Cloud => "cloud",
            Layer::Coord => "coord",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Object-store operations, in counter order.
pub const CLOUD_OPS: [&str; 6] = ["put", "get", "head", "list", "delete", "acl"];
/// Coordination operations, in counter order.
pub const COORD_OPS: [&str; 8] = [
    "get",
    "put",
    "cas",
    "create_ephemeral",
    "delete",
    "list",
    "rename_prefix",
    "set_acl",
];
/// Backend operations, in counter order (`gc` covers version pruning, full
/// deletion and journal replay; `set_acl` is ACL fan-out).
pub const BACKEND_OPS: [&str; 6] = [
    "write_version",
    "read_chunk",
    "read_manifest",
    "copy_version",
    "gc",
    "set_acl",
];

/// Everything one traced run records.
#[derive(Debug, Default)]
pub struct Trace {
    stack: Vec<Frame>,
    /// Self wall nanoseconds per layer.
    pub self_ns: [u64; 5],
    /// Spans closed per layer.
    pub spans: [u64; 5],
    /// Object-store calls by operation.
    pub cloud_ops: [u64; 6],
    /// Bytes handed to `put`.
    pub cloud_bytes_up: u64,
    /// Bytes returned by successful `get`s.
    pub cloud_bytes_down: u64,
    /// `get`s that returned an object.
    pub cloud_gets_found: u64,
    /// Object-store calls that returned an error (not-found included).
    pub cloud_errors: u64,
    /// Virtual duration of every object-store call, in nanoseconds.
    pub cloud_virt_ns: Vec<u64>,
    /// Coordination calls by operation.
    pub coord_ops: [u64; 8],
    /// `cas` calls that succeeded.
    pub coord_cas_ok: u64,
    /// Coordination calls that returned an error (not-found included).
    pub coord_errors: u64,
    /// Virtual duration of every coordination call, in nanoseconds.
    pub coord_virt_ns: Vec<u64>,
    /// Backend calls by operation.
    pub backend_ops: [u64; 6],
    /// Backend calls that returned an error.
    pub backend_errors: u64,
    /// Virtual duration of every `write_version`, in nanoseconds.
    pub write_version_virt_ns: Vec<u64>,
}

impl Trace {
    /// Folds another phase's trace into this one.
    pub fn absorb(&mut self, other: &Trace) {
        fn add<const N: usize>(a: &mut [u64; N], b: &[u64; N]) {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        }
        add(&mut self.self_ns, &other.self_ns);
        add(&mut self.spans, &other.spans);
        add(&mut self.cloud_ops, &other.cloud_ops);
        add(&mut self.coord_ops, &other.coord_ops);
        add(&mut self.backend_ops, &other.backend_ops);
        self.cloud_bytes_up += other.cloud_bytes_up;
        self.cloud_bytes_down += other.cloud_bytes_down;
        self.cloud_gets_found += other.cloud_gets_found;
        self.cloud_errors += other.cloud_errors;
        self.coord_cas_ok += other.coord_cas_ok;
        self.coord_errors += other.coord_errors;
        self.backend_errors += other.backend_errors;
        self.cloud_virt_ns.extend_from_slice(&other.cloud_virt_ns);
        self.coord_virt_ns.extend_from_slice(&other.coord_virt_ns);
        self.write_version_virt_ns
            .extend_from_slice(&other.write_version_virt_ns);
    }

    /// The seed-determined part of the trace: every count and virtual
    /// duration, without the wall times.
    pub fn counts(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            (&self.spans, &self.cloud_ops, self.cloud_bytes_up),
            (
                self.cloud_bytes_down,
                self.cloud_gets_found,
                self.cloud_errors,
            ),
            (&self.cloud_virt_ns, &self.coord_ops, self.coord_cas_ok),
            (self.coord_errors, &self.coord_virt_ns, &self.backend_ops),
            (self.backend_errors, &self.write_version_virt_ns),
        )
    }
}

#[derive(Debug)]
struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static TRACE: RefCell<Trace> = RefCell::new(Trace::default());
}

/// Clears the recorder before a traced phase.
pub(crate) fn reset() {
    TRACE.with(|t| *t.borrow_mut() = Trace::default());
}

/// Takes the recorder's contents after a traced phase.
///
/// # Panics
///
/// Panics if a span is still open (a span leaked past its call).
pub(crate) fn take() -> Trace {
    let trace = TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()));
    assert!(trace.stack.is_empty(), "span left open at end of phase");
    trace
}

fn record(f: impl FnOnce(&mut Trace)) {
    TRACE.with(|t| f(&mut t.borrow_mut()));
}

/// Runs `f` inside a span of `layer`, charging its wall time to the layer's
/// self time minus whatever nested spans claim.
pub(crate) fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    record(|t| {
        t.stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    record(|t| {
        let frame = t.stack.pop().expect("span stack is balanced");
        debug_assert_eq!(frame.layer, layer);
        let total = end.duration_since(frame.start).as_nanos() as u64;
        t.self_ns[layer.index()] += total.saturating_sub(frame.child_ns);
        t.spans[layer.index()] += 1;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += total;
        }
    });
    out
}

fn virt_ns(before: SimInstant, after: SimInstant) -> u64 {
    after.duration_since(before).as_nanos()
}

/// Times one object-store call.
fn cloud_call<T>(
    ctx: &mut OpCtx<'_>,
    op: usize,
    f: impl FnOnce(&mut OpCtx<'_>) -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let before = ctx.clock.now();
    let out = span(Layer::Cloud, || f(ctx));
    let virt = virt_ns(before, ctx.clock.now());
    record(|t| {
        t.cloud_ops[op] += 1;
        t.cloud_errors += u64::from(out.is_err());
        t.cloud_virt_ns.push(virt);
    });
    out
}

/// An [`ObjectStore`] that times every call.
pub(crate) struct TimedStore {
    inner: Arc<dyn ObjectStore>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub(crate) fn new(inner: Arc<dyn ObjectStore>) -> Self {
        TimedStore { inner }
    }
}

impl ObjectStore for TimedStore {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn profile(&self) -> &ProviderProfile {
        self.inner.profile()
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        record(|t| t.cloud_bytes_up += data.len() as u64);
        cloud_call(ctx, 0, |ctx| self.inner.put(ctx, key, data))
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        let out = cloud_call(ctx, 1, |ctx| self.inner.get(ctx, key));
        if let Ok(data) = &out {
            record(|t| {
                t.cloud_gets_found += 1;
                t.cloud_bytes_down += data.len() as u64;
            });
        }
        out
    }

    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError> {
        cloud_call(ctx, 2, |ctx| self.inner.head(ctx, key))
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, StorageError> {
        cloud_call(ctx, 3, |ctx| self.inner.list(ctx, prefix))
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError> {
        cloud_call(ctx, 4, |ctx| self.inner.delete(ctx, key))
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), StorageError> {
        cloud_call(ctx, 5, |ctx| self.inner.set_acl(ctx, key, acl))
    }

    fn get_acl(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Acl, StorageError> {
        cloud_call(ctx, 5, |ctx| self.inner.get_acl(ctx, key))
    }
}

/// Times one coordination call.
fn coord_call<T>(
    ctx: &mut OpCtx<'_>,
    op: usize,
    f: impl FnOnce(&mut OpCtx<'_>) -> Result<T, CoordError>,
) -> Result<T, CoordError> {
    let before = ctx.clock.now();
    let out = span(Layer::Coord, || f(ctx));
    let virt = virt_ns(before, ctx.clock.now());
    record(|t| {
        t.coord_ops[op] += 1;
        t.coord_errors += u64::from(out.is_err());
        t.coord_virt_ns.push(virt);
    });
    out
}

/// A [`CoordinationService`] that times every call.
pub(crate) struct TimedCoord {
    inner: Arc<dyn CoordinationService>,
}

impl TimedCoord {
    /// Wraps `inner`.
    pub(crate) fn new(inner: Arc<dyn CoordinationService>) -> Self {
        TimedCoord { inner }
    }
}

impl CoordinationService for TimedCoord {
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, value: Vec<u8>) -> Result<u64, CoordError> {
        coord_call(ctx, 1, |ctx| self.inner.put(ctx, key, value))
    }

    fn cas(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        expected: Option<u64>,
        value: Vec<u8>,
    ) -> Result<u64, CoordError> {
        let out = coord_call(ctx, 2, |ctx| self.inner.cas(ctx, key, expected, value));
        if out.is_ok() {
            record(|t| t.coord_cas_ok += 1);
        }
        out
    }

    fn create_ephemeral(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Vec<u8>,
        session: &SessionId,
        lease: SimDuration,
    ) -> Result<(), CoordError> {
        coord_call(ctx, 3, |ctx| {
            self.inner.create_ephemeral(ctx, key, value, session, lease)
        })
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError> {
        coord_call(ctx, 0, |ctx| self.inner.get(ctx, key))
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), CoordError> {
        coord_call(ctx, 4, |ctx| self.inner.delete(ctx, key))
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError> {
        coord_call(ctx, 5, |ctx| self.inner.list(ctx, prefix))
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), CoordError> {
        coord_call(ctx, 7, |ctx| self.inner.set_acl(ctx, key, acl))
    }

    fn rename_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        old_prefix: &str,
        new_prefix: &str,
    ) -> Result<usize, CoordError> {
        coord_call(ctx, 6, |ctx| {
            self.inner.rename_prefix(ctx, old_prefix, new_prefix)
        })
    }

    fn access_count(&self) -> u64 {
        self.inner.access_count()
    }

    fn entry_count(&self) -> usize {
        self.inner.entry_count()
    }
}

/// Times one backend call.
fn backend_call<T>(op: usize, f: impl FnOnce() -> Result<T, ScfsError>) -> Result<T, ScfsError> {
    let out = span(Layer::Backend, f);
    record(|t| {
        t.backend_ops[op] += 1;
        t.backend_errors += u64::from(out.is_err());
    });
    out
}

/// A [`FileStorage`] backend that times every call.
pub(crate) struct TimedStorage {
    inner: Arc<dyn FileStorage>,
}

impl TimedStorage {
    /// Wraps `inner`.
    pub(crate) fn new(inner: Arc<dyn FileStorage>) -> Self {
        TimedStorage { inner }
    }
}

impl FileStorage for TimedStorage {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn write_version(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
        is_new: bool,
        acl: Option<&Acl>,
        opts: &TransferOptions,
    ) -> Result<WriteOutcome, ScfsError> {
        let before = ctx.clock.now();
        let out = backend_call(0, || {
            self.inner
                .write_version(ctx, id, data, map, prev, is_new, acl, opts)
        });
        let virt = virt_ns(before, ctx.clock.now());
        record(|t| t.write_version_virt_ns.push(virt));
        out
    }

    fn read_manifest(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<ChunkMap, ScfsError> {
        backend_call(2, || self.inner.read_manifest(ctx, id, hash))
    }

    fn read_chunk(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, ScfsError> {
        backend_call(1, || self.inner.read_chunk(ctx, id, hash))
    }

    fn copy_version(
        &self,
        ctx: &mut OpCtx<'_>,
        src_id: &str,
        dst_id: &str,
        root: &ContentHash,
        acl: Option<&Acl>,
    ) -> Result<Option<WriteOutcome>, ScfsError> {
        backend_call(3, || {
            self.inner.copy_version(ctx, src_id, dst_id, root, acl)
        })
    }

    fn cloud_durability(&self) -> DurabilityLevel {
        self.inner.cloud_durability()
    }

    fn delete_old_versions(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        keep: usize,
    ) -> Result<usize, ScfsError> {
        backend_call(4, || self.inner.delete_old_versions(ctx, id, keep))
    }

    fn delete_all(&self, ctx: &mut OpCtx<'_>, id: &str) -> Result<(), ScfsError> {
        backend_call(4, || self.inner.delete_all(ctx, id))
    }

    fn replay_release_journal(
        &self,
        ctx: &mut OpCtx<'_>,
        opts: &JournalOpts,
    ) -> Result<ReplayReport, ScfsError> {
        backend_call(4, || self.inner.replay_release_journal(ctx, opts))
    }

    fn pending_releases(&self) -> usize {
        self.inner.pending_releases()
    }

    fn install_schedule_controller(&self, slot: ControllerSlot) {
        self.inner.install_schedule_controller(slot);
    }

    fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        self.inner.check_invariants(out);
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, id: &str, acl: &Acl) -> Result<(), ScfsError> {
        backend_call(5, || self.inner.set_acl(ctx, id, acl))
    }
}
