//! Refcounted byte slices for the zero-copy datapath.
//!
//! [`MpfaBytes`] is a cheap, clonable view into shared immutable bytes —
//! the same idea as timely-dataflow's `bytes` crate, sized down to what
//! the message path needs. A view is `(ptr, len)` plus a refcounted
//! *backing* keeping the underlying storage alive: a `Vec<u8>` moved in
//! with `From<Vec<u8>>`, a pooled buffer returned to its [`BufPool`] on
//! drop, or (for the shared-memory transport) a mapped ring region whose
//! guard releases ring space when the last view drops.
//!
//! Slicing ([`MpfaBytes::slice`]) and cloning never copy payload bytes;
//! they bump a refcount. The only copies on the message path are the
//! ones a backend genuinely requires (out of the socket staging buffer)
//! or the typed API boundary demands (`Vec<T>` out of `wait`), and
//! those are counted by the `bytes_copied` obs counter at the site of
//! the memcpy.

use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, Weak};

/// Storage that a [`MpfaBytes`] view keeps alive. The trait is a pure
/// lifetime anchor: dropping the last `Arc<dyn BytesBacking>` releases
/// the storage (frees the Vec, returns the pooled buffer, advances the
/// ring head).
pub trait BytesBacking: Send + Sync {}

/// A `Vec<u8>` backing: the common owned case.
struct VecBacking(#[allow(dead_code)] Vec<u8>);
impl BytesBacking for VecBacking {}

/// A static backing for the empty view (no allocation).
struct StaticBacking;
impl BytesBacking for StaticBacking {}

/// A cheaply clonable, immutable view into refcounted bytes.
///
/// `Deref<Target = [u8]>`, so a view reads like a slice. Equality
/// compares contents, not identity.
pub struct MpfaBytes {
    ptr: *const u8,
    len: usize,
    hold: Arc<dyn BytesBacking>,
}

// SAFETY: the view is immutable — it only ever reads `ptr[..len]` — and
// the backing (which owns the storage) is itself Send + Sync. Backings
// over shared memory must guarantee the producer does not mutate the
// viewed region while views exist; the SPSC ring protocol does (the
// consumer head only advances past a region once its views drop).
unsafe impl Send for MpfaBytes {}
unsafe impl Sync for MpfaBytes {}

impl MpfaBytes {
    /// The empty view.
    pub fn empty() -> MpfaBytes {
        MpfaBytes {
            ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
            len: 0,
            hold: Arc::new(StaticBacking),
        }
    }

    /// View `bytes[range]` of storage kept alive by `hold`.
    ///
    /// # Safety
    /// `ptr[..len]` must stay valid and unmutated for as long as `hold`
    /// (or any clone of it) is alive.
    pub unsafe fn from_raw(ptr: *const u8, len: usize, hold: Arc<dyn BytesBacking>) -> MpfaBytes {
        MpfaBytes { ptr, len, hold }
    }

    /// Copy `bytes` into a fresh owned backing. This is a real memcpy —
    /// callers on the message path pair it with the `bytes_copied`
    /// counter.
    pub fn copy_from(bytes: &[u8]) -> MpfaBytes {
        MpfaBytes::from(bytes.to_vec())
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `range`, sharing the same backing (no copy).
    ///
    /// # Panics
    /// Panics when `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> MpfaBytes {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds of {} bytes",
            self.len
        );
        MpfaBytes {
            // SAFETY: in-bounds offset of a live allocation.
            ptr: unsafe { self.ptr.add(range.start) },
            len: range.end - range.start,
            hold: self.hold.clone(),
        }
    }

    /// The bytes as an owned `Vec<u8>`. Always copies; pair with the
    /// `bytes_copied` counter on the message path.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for MpfaBytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `hold` keeps ptr[..len] alive and unmutated.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl AsRef<[u8]> for MpfaBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Clone for MpfaBytes {
    fn clone(&self) -> MpfaBytes {
        MpfaBytes {
            ptr: self.ptr,
            len: self.len,
            hold: self.hold.clone(),
        }
    }
}

impl From<Vec<u8>> for MpfaBytes {
    /// Move a `Vec<u8>` into a view without copying.
    fn from(v: Vec<u8>) -> MpfaBytes {
        let ptr = v.as_ptr();
        let len = v.len();
        MpfaBytes {
            ptr,
            len,
            hold: Arc::new(VecBacking(v)),
        }
    }
}

impl From<&[u8]> for MpfaBytes {
    /// Copying conversion (borrowed bytes must be owned to be shared).
    fn from(b: &[u8]) -> MpfaBytes {
        MpfaBytes::copy_from(b)
    }
}

impl PartialEq for MpfaBytes {
    fn eq(&self, other: &MpfaBytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for MpfaBytes {}

impl PartialEq<[u8]> for MpfaBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for MpfaBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::fmt::Debug for MpfaBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpfaBytes({} bytes)", self.len)
    }
}

impl Default for MpfaBytes {
    fn default() -> MpfaBytes {
        MpfaBytes::empty()
    }
}

// ---------------------------------------------------------------------
// Buffer pool: reusable buffers for the socket datapath.
// ---------------------------------------------------------------------

/// A pool of reusable `Vec<u8>` buffers.
///
/// The wire engine keeps two: one recycles the small frame *heads* its
/// TX queue writes from ([`BufPool::take`] on send, [`BufPool::put`]
/// once the frame is flushed), the other supplies the frame-sized
/// receive buffers that incomplete frames are read straight into
/// (`BufPool::take_sized`, then [`BufPool::freeze`]: the buffer comes
/// back when the last [`MpfaBytes`] view of the frame drops). Reusing
/// the large ones is what keeps the allocator from trimming and
/// re-faulting their pages on every bulk message.
pub struct BufPool {
    free: Mutex<VecDeque<Vec<u8>>>,
    /// Max buffers retained; excess returns are dropped.
    cap: usize,
}

impl BufPool {
    /// A pool retaining at most `cap` idle buffers.
    pub fn new(cap: usize) -> Arc<BufPool> {
        Arc::new(BufPool {
            free: Mutex::new(VecDeque::new()),
            cap,
        })
    }

    fn pop(&self) -> Option<Vec<u8>> {
        self.free.lock().expect("buffer pool poisoned").pop_front()
    }

    /// Check out an empty scratch buffer (reused when one is idle).
    pub fn take(&self) -> Vec<u8> {
        let mut buf = self.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Check out a buffer of exactly `len` bytes whose contents are
    /// unspecified (stale bytes of an earlier use, or zeros): for
    /// callers that overwrite all of it, which saves re-zeroing.
    pub(crate) fn take_sized(&self, len: usize) -> Vec<u8> {
        match self.pop() {
            Some(mut buf) => {
                buf.resize(len, 0);
                buf
            }
            None => vec![0; len],
        }
    }

    /// Number of idle buffers (for tests).
    pub fn idle(&self) -> usize {
        self.free.lock().expect("buffer pool poisoned").len()
    }

    /// Hand a buffer back for reuse (dropped when the pool is full).
    pub fn put(&self, buf: Vec<u8>) {
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() < self.cap {
            free.push_back(buf);
        }
    }

    /// Wrap a filled scratch buffer in a view that returns the buffer to
    /// this pool when the last clone drops.
    pub fn freeze(self: &Arc<BufPool>, buf: Vec<u8>) -> MpfaBytes {
        let ptr = buf.as_ptr();
        let len = buf.len();
        MpfaBytes {
            ptr,
            len,
            hold: Arc::new(PoolBuf {
                buf: Some(buf),
                pool: Arc::downgrade(self),
            }),
        }
    }
}

/// Backing of a pooled buffer: returns the Vec to its pool on drop (or
/// just frees it when the pool is gone).
struct PoolBuf {
    buf: Option<Vec<u8>>,
    pool: Weak<BufPool>,
}

impl BytesBacking for PoolBuf {}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let (Some(buf), Some(pool)) = (self.buf.take(), self.pool.upgrade()) {
            pool.put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_views_without_copy() {
        let v = vec![1u8, 2, 3, 4, 5];
        let ptr = v.as_ptr();
        let b = MpfaBytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "no copy on From<Vec<u8>>");
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }

    #[test]
    fn slice_shares_backing() {
        let b = MpfaBytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let s = b.slice(2..6);
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        // Sub-slicing composes.
        let ss = s.slice(1..3);
        assert_eq!(&ss[..], &[3, 4]);
        // The original stays valid after dropping the parent views.
        drop(b);
        drop(s);
        assert_eq!(&ss[..], &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = MpfaBytes::from(vec![1u8, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn equality_is_by_content() {
        let a = MpfaBytes::from(vec![9u8, 9]);
        let b = MpfaBytes::copy_from(&[9u8, 9]);
        assert_eq!(a, b);
        assert_eq!(a, vec![9u8, 9]);
        assert!(a == *[9u8, 9].as_slice());
        assert_ne!(a, MpfaBytes::empty());
    }

    #[test]
    fn empty_view_works() {
        let e = MpfaBytes::empty();
        assert!(e.is_empty());
        assert_eq!(e.to_vec(), Vec::<u8>::new());
        assert_eq!(MpfaBytes::default(), e);
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool = BufPool::new(4);
        let mut buf = pool.take();
        buf.extend_from_slice(b"hello");
        let cap = buf.capacity();
        let view = pool.freeze(buf);
        assert_eq!(&view[..], b"hello");
        let v2 = view.clone();
        drop(view);
        assert_eq!(pool.idle(), 0, "clone still holds the buffer");
        drop(v2);
        assert_eq!(pool.idle(), 1, "buffer returned when last view dropped");
        let again = pool.take();
        assert!(again.is_empty(), "recycled buffer comes back cleared");
        assert_eq!(again.capacity(), cap, "capacity retained across reuse");
    }

    #[test]
    fn pool_hands_out_sized_buffers_without_rezeroing() {
        let pool = BufPool::new(4);
        assert_eq!(pool.take_sized(5), vec![0u8; 5], "fresh buffers are zeroed");
        pool.put(vec![7u8; 8]);
        // A recycled buffer keeps its old bytes up to the new length and
        // is only zero-extended past them.
        assert_eq!(pool.take_sized(6), vec![7u8; 6]);
        pool.put(vec![7u8; 2]);
        assert_eq!(pool.take_sized(4), vec![7u8, 7, 0, 0]);
    }

    #[test]
    fn pool_cap_bounds_retention() {
        let pool = BufPool::new(1);
        let a = pool.freeze(vec![1u8]);
        let b = pool.freeze(vec![2u8]);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 1, "excess returns are dropped");
    }

    #[test]
    fn views_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MpfaBytes>();
    }
}
