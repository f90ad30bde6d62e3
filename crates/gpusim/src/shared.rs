//! Shared, immutable, content-keyed bytes: the one representation of an
//! array's contents from the host through device memory to the launch
//! memo and back.
//!
//! A [`SharedBytes`] is an `Arc` around the bytes and their lazily
//! computed [`ContentKey`]. Cloning it shares the allocation; nothing
//! writes through it. A host array, the device buffer it was uploaded
//! into, a memo snapshot and the array handed back after the run can all
//! be one allocation, so a warm run moves handles instead of bytes.
//!
//! The key lives inside the allocation, not beside a handle: whoever
//! asks first (the server's request key, a launch key, a snapshot being
//! recorded) hashes the bytes, and every other holder of the allocation
//! — on any thread — reads that key. A byte is hashed once per
//! allocation, not once per launch that reads it.
//!
//! Writing needs a unique `Vec<u8>`: `SharedBytes::into_vec` takes the
//! allocation back when no one else holds it and copies it otherwise.
//! That is the only place bytes are copied.
//!
//! Beside the key the allocation keeps one more set-once slot: a digest
//! of its bytes under a caller's tag (the server's reply digest under an
//! element type). This module stores that value and never computes it;
//! since the bytes behind a handle never change, a recorded digest
//! cannot go stale.

use crate::content::{ContentHasher, ContentKey};
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The content key of `bytes`, hashed on the spot and counted nowhere.
pub(crate) fn bytes_key(bytes: &[u8]) -> ContentKey {
    let mut h = ContentHasher::default();
    h.bytes(bytes);
    h.key()
}

std::thread_local! {
    static KEYED: Cell<u64> = const { Cell::new(0) };
}

/// Bytes this thread has hashed into the content keys of arrays and
/// buffers so far (an exact counter: the launch memo's `bytes_hashed`
/// counters are differences of it).
pub fn bytes_keyed() -> u64 {
    KEYED.with(Cell::get)
}

/// [`bytes_key`], counted in [`bytes_keyed`].
pub(crate) fn counted_key(bytes: &[u8]) -> ContentKey {
    KEYED.with(|n| n.set(n.get() + bytes.len() as u64));
    bytes_key(bytes)
}

struct Alloc {
    bytes: Vec<u8>,
    /// Set at most once, to the key of `bytes`.
    key: OnceLock<ContentKey>,
    /// Set at most once, by [`SharedBytes::record_digest`]: a tag and
    /// the digest its caller computed of `bytes` under it.
    digest: OnceLock<(u8, u64)>,
}

/// An immutable byte array shared by handle, carrying its content key
/// once somebody has asked for it. Equality compares contents.
#[derive(Clone)]
pub struct SharedBytes(Arc<Alloc>);

impl SharedBytes {
    /// The content key of these bytes: hashed by the first caller on
    /// any holder of this allocation, read by everyone after.
    pub fn key(&self) -> ContentKey {
        *self.0.key.get_or_init(|| counted_key(&self.0.bytes))
    }

    /// The digest some holder recorded for these bytes under `tag`, if
    /// one did.
    pub fn recorded_digest(&self, tag: u8) -> Option<u64> {
        self.0.digest.get().and_then(|&(t, digest)| (t == tag).then_some(digest))
    }

    /// Record `digest` as the digest of these bytes under `tag`, for
    /// every holder of the allocation. The slot is set once: a later
    /// record, under any tag, is dropped.
    pub fn record_digest(&self, tag: u8, digest: u64) {
        let _ = self.0.digest.set((tag, digest));
    }

    /// The key, if some holder has already asked for it.
    #[cfg(test)]
    pub(crate) fn known_key(&self) -> Option<ContentKey> {
        self.0.key.get().copied()
    }

    /// True when both handles are one allocation.
    pub fn ptr_eq(a: &SharedBytes, b: &SharedBytes) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The bytes as a `Vec` to write: the allocation itself when this
    /// is its only handle, else a copy.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).map_or_else(|shared| shared.bytes.clone(), |alloc| alloc.bytes)
    }

}

/// Moves the `Vec` in: no byte is copied.
impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        SharedBytes(Arc::new(Alloc { bytes, key: OnceLock::new(), digest: OnceLock::new() }))
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_allocation_and_one_key() {
        let a = SharedBytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert!(SharedBytes::ptr_eq(&a, &b));
        assert_eq!(b.known_key(), None);
        let before = bytes_keyed();
        let key = a.key();
        assert_eq!(b.known_key(), Some(key), "a key asked through one handle is seen by all");
        assert_eq!(b.key(), key);
        assert_eq!(bytes_keyed() - before, 4, "hashed once");
        assert_eq!(key, bytes_key(&[1, 2, 3, 4]));
    }

    #[test]
    fn into_vec_copies_only_a_shared_allocation() {
        let v = vec![7u8; 64];
        let at = v.as_ptr();
        let back = SharedBytes::from(v).into_vec();
        assert_eq!(back.as_ptr(), at, "moved in and out");
        let a = SharedBytes::from(vec![7u8; 64]);
        let held = a.clone();
        let mut written = a.into_vec();
        written[0] = 0;
        assert_eq!(held[0], 7, "the other holder keeps its bytes");
        assert_ne!(written.as_ptr(), held.as_ptr());
    }

    #[test]
    fn equality_is_content_not_identity() {
        let a = SharedBytes::from(vec![1u8, 2]);
        assert_eq!(a, SharedBytes::from(vec![1, 2]));
        assert_ne!(a, SharedBytes::from(vec![1, 3]));
        assert_eq!(format!("{a:?}"), "[1, 2]");
    }

    #[test]
    fn a_recorded_digest_is_seen_by_every_holder_under_its_tag_only() {
        let a = SharedBytes::from(vec![9u8; 4]);
        let b = a.clone();
        assert_eq!(b.recorded_digest(1), None);
        a.record_digest(1, 0xabc);
        assert_eq!(b.recorded_digest(1), Some(0xabc));
        assert_eq!(b.recorded_digest(2), None, "another tag is another digest");
        b.record_digest(2, 0xdef);
        assert_eq!((a.recorded_digest(1), a.recorded_digest(2)), (Some(0xabc), None), "set once");
        assert_eq!(SharedBytes::from(vec![9u8; 4]).recorded_digest(1), None, "another allocation");
    }
}
