//! The process-wide content-addressed payload table.
//!
//! Every SCFS mount keeps its own two-tier cache (paper §2.5.1), and
//! [`super::TieredCache`] models exactly that: per-mount capacity, policy,
//! latency and statistics. A simulation, however, runs many mounts in one
//! process, and mounts that read the same file would each keep a private
//! copy of every chunk of it. This table removes the copies, not the caches:
//! it maps a [`ContentHash`] to one shared allocation, and every mount that
//! caches that content holds a [`Payload`] referring to it.
//! Each tier still counts capacity and charges latency by payload length, so
//! hits, evictions and every virtual-time figure are what they would be with
//! private copies; only physical memory is shared.
//!
//! Release is exact and driven by reference counts. The table owns one
//! reference per hash; every interned [`Payload`] owns another. When a
//! payload is dropped — tier eviction, removal, replacement in place,
//! oversize bypass, a disk eviction during demotion, a tier or a whole cache
//! being dropped, or a transient copy going out of scope — and it was the
//! last holder besides the table, the table forgets the hash and the bytes
//! are freed. The check and the release happen under the table's lock, so
//! two holders dropping at once cannot both see the other as still alive.
//! Raw `Arc`s never leave this module: a reference the table cannot see
//! would defeat the count.
//!
//! Only verified bytes may be interned: a payload poisoned under a hash
//! would be served to every mount that later caches that hash. Callers
//! intern bytes the storage backend has just verified against their hash,
//! or bytes whose hash they have just computed; debug builds re-hash every
//! interned payload to catch a caller that does not.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use scfs_crypto::{sha256, ContentHash};

/// One interned payload: its content hash and its bytes.
#[derive(Debug)]
struct Interned {
    hash: ContentHash,
    bytes: Box<[u8]>,
}

/// The table's handle on an interned payload, compared and hashed by its
/// content hash so the table is a set of pointers looked up by hash.
#[derive(Debug)]
struct Shared(Arc<Interned>);

impl PartialEq for Shared {
    fn eq(&self, other: &Self) -> bool {
        self.0.hash == other.0.hash
    }
}

impl Eq for Shared {}

impl Hash for Shared {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash.hash(state);
    }
}

impl Borrow<ContentHash> for Shared {
    fn borrow(&self) -> &ContentHash {
        &self.0.hash
    }
}

/// Hashes a table key by its first eight bytes: the keys are SHA-256
/// digests, already uniformly distributed.
#[derive(Debug, Default)]
struct DigestPrefix(u64);

impl Hasher for DigestPrefix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().take(8) {
            self.0 = (self.0 << 8) | b as u64;
        }
    }
}

type Table = HashSet<Shared, BuildHasherDefault<DigestPrefix>>;

/// The table: one shared allocation per content hash held by any cache.
static TABLE: Mutex<Table> = Mutex::new(HashSet::with_hasher(BuildHasherDefault::new()));

fn table() -> MutexGuard<'static, Table> {
    // Every critical section is a single set operation, so a holder that
    // panicked left the set consistent and a poisoned lock is still usable.
    TABLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The bytes of one cached entry, shared through the table with every other
/// holder of the same content. Dereferences to the bytes.
#[derive(Debug)]
pub struct Payload {
    /// Always `Some` outside `drop`, which takes it to release it under the
    /// table's lock.
    shared: Option<Arc<Interned>>,
}

/// Returns the shared payload for `hash`, storing `bytes` first if nothing
/// holds that hash yet: an owned buffer is kept without a copy, a borrowed
/// one is copied once. `bytes` must hash to `hash`: the caller has verified
/// them (a cloud read) or just computed the hash from them.
pub fn intern<B>(hash: ContentHash, bytes: B) -> Payload
where
    B: AsRef<[u8]> + Into<Box<[u8]>>,
{
    debug_assert_eq!(
        sha256(bytes.as_ref()),
        hash,
        "interned bytes must hash to their key"
    );
    let mut table = table();
    let shared = match table.get(&hash) {
        Some(shared) => shared.0.clone(),
        None => {
            let fresh = Arc::new(Interned {
                hash,
                bytes: bytes.into(),
            });
            table.insert(Shared(fresh.clone()));
            fresh
        }
    };
    Payload {
        shared: Some(shared),
    }
}

/// Whether the table currently holds `hash`.
pub fn is_interned(hash: &ContentHash) -> bool {
    table().contains(hash)
}

/// How many live payloads share the table's copy of `hash` (0 when the
/// table does not hold it).
pub fn holders(hash: &ContentHash) -> usize {
    table()
        .get(hash)
        .map_or(0, |shared| Arc::strong_count(&shared.0) - 1)
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.shared
            .as_deref()
            .map_or(&[], |interned| &interned.bytes)
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        // No lock needed: cloning needs a live holder, and a live holder
        // keeps the count above the table's own reference, so no concurrent
        // drop can decide to release the entry meanwhile.
        Payload {
            shared: self.shared.clone(),
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return;
        };
        let mut table = table();
        // The table's reference plus this one: no other holder is left, and
        // none can appear without taking the lock.
        if Arc::strong_count(&shared) == 2 {
            table.remove(&shared.hash);
        }
        // Released while the lock is held, so the next holder to drop sees
        // the count without this reference.
        drop(shared);
    }
}

/// Interns bytes whose hash the caller does not have at hand, hashing them
/// first.
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        intern(sha256(bytes), bytes)
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(bytes: Arc<[u8]>) -> Self {
        Payload::from(&bytes[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes unique to one test, so parallel tests sharing the table never
    /// intern the same hash.
    fn unique(tag: &str, n: usize) -> (ContentHash, Vec<u8>) {
        let mut bytes = format!("payload-table unit test {tag}:").into_bytes();
        bytes.resize(n, 0xa5);
        (sha256(&bytes), bytes)
    }

    #[test]
    fn interning_twice_shares_one_allocation() {
        let (hash, bytes) = unique("share", 4096);
        let a = intern(hash, &bytes[..]);
        let b = intern(hash, &bytes[..]);
        assert_eq!(a.as_ptr(), b.as_ptr(), "second intern must not copy");
        assert_eq!(&a[..], &bytes[..]);
        assert_eq!(holders(&hash), 2);
    }

    #[test]
    fn an_owned_buffer_is_kept_without_a_copy() {
        let (hash, bytes) = unique("owned", 4096);
        let owned = bytes.clone();
        let at = owned.as_ptr();
        let kept = intern(hash, owned);
        assert_eq!(kept.as_ptr(), at);
        // Once interned, a second owned buffer is dropped, not kept.
        let again = intern(hash, bytes);
        assert_eq!(again.as_ptr(), at);
    }

    #[test]
    fn the_last_holder_releases_the_entry() {
        let (hash, bytes) = unique("release", 100);
        let a = intern(hash, &bytes[..]);
        let b = a.clone();
        assert_eq!(holders(&hash), 2);
        drop(a);
        assert!(is_interned(&hash), "a clone still holds it");
        assert_eq!(holders(&hash), 1);
        drop(b);
        assert!(!is_interned(&hash));
        assert_eq!(holders(&hash), 0);
    }

    #[test]
    fn reinterning_after_release_stores_a_fresh_copy() {
        let (hash, bytes) = unique("again", 64);
        drop(intern(hash, &bytes[..]));
        assert!(!is_interned(&hash));
        let again = intern(hash, &bytes[..]);
        assert!(is_interned(&hash));
        assert_eq!(&again[..], &bytes[..]);
        drop(again);
        assert!(!is_interned(&hash));
    }

    #[test]
    fn conversions_hash_and_intern() {
        let (hash, bytes) = unique("from", 32);
        let from_slice = Payload::from(&bytes[..]);
        let from_arc = Payload::from(Arc::<[u8]>::from(&bytes[..]));
        assert_eq!(from_slice.as_ptr(), from_arc.as_ptr());
        assert_eq!(holders(&hash), 2);
        drop((from_slice, from_arc));
        assert!(!is_interned(&hash));
    }

    #[test]
    fn empty_payloads_intern_too() {
        let empty = Payload::from(&[][..]);
        assert!(empty.is_empty());
        assert!(is_interned(&sha256(&[])));
    }

    #[test]
    fn concurrent_drops_release_exactly_once() {
        let (hash, bytes) = unique("threads", 256);
        for _ in 0..50 {
            let first = intern(hash, &bytes[..]);
            let holders_per_thread: Vec<Vec<Payload>> = (0..2)
                .map(|_| (0..8).map(|_| first.clone()).collect())
                .collect();
            drop(first);
            std::thread::scope(|s| {
                for held in holders_per_thread {
                    s.spawn(move || drop(held));
                }
            });
            assert!(!is_interned(&hash), "a racing release leaked the entry");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "interned bytes must hash to their key")]
    fn debug_builds_refuse_bytes_that_do_not_match_their_hash() {
        let (hash, _) = unique("poison", 16);
        let _ = intern(hash, &b"not the bytes that hash"[..]);
    }
}
