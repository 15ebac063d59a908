//! Frame payload encoding for wire backends.
//!
//! The workspace builds fully offline (no serde), so message types that
//! want to cross a real socket implement [`FrameCodec`] by hand:
//! little-endian fixed-width integers, no implicit lengths (the frame
//! header already carries the payload size, so a trailing byte blob can
//! simply be "the rest of the payload"). The helpers here keep those
//! hand-rolled impls short and uniform.

use crate::bytes::MpfaBytes;

/// A message that can be serialized into (and parsed out of) a wire
/// frame's payload.
///
/// `decode` gets exactly the bytes `encode` appended — the frame layer
/// guarantees payload boundaries — and returns `None` on malformed
/// input (a protocol bug, not an I/O condition).
pub trait FrameCodec: Send + Sized + 'static {
    /// Append this message's payload bytes to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Scatter-gather encode: append the message's fixed fields to
    /// `head` and return its trailing byte view *uncopied*; `head`'s new
    /// bytes followed by the returned view are exactly what
    /// [`FrameCodec::encode`] appends. The socket backends queue the two
    /// parts and hand both to one `writev`, so a payload is never staged.
    /// The default (no trailing view) encodes everything into `head`.
    fn encode_split(&self, head: &mut Vec<u8>) -> Option<MpfaBytes> {
        self.encode(head);
        None
    }

    /// Parse a payload produced by [`FrameCodec::encode`].
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Parse a payload delivered as a refcounted view ([`MpfaBytes`]).
    ///
    /// The default delegates to [`FrameCodec::decode`] on the borrowed
    /// bytes, which copies any payload the message retains. Messages
    /// with large byte fields override this to *slice* the view instead
    /// — that is the zero-copy receive path: a shared-memory backend
    /// hands ring views straight through to the matched receive without
    /// a memcpy.
    fn decode_bytes(bytes: MpfaBytes) -> Option<Self> {
        Self::decode(&bytes)
    }

    /// Exact number of bytes [`FrameCodec::encode`] would append, when
    /// the message can compute it without encoding.
    ///
    /// Backends with preallocated frame space (the shared-memory ring)
    /// use this to reserve the frame in place and then call
    /// [`FrameCodec::encode_into`], skipping the staging buffer — the
    /// payload is memcpy'd exactly once, by the injection itself. The
    /// default `None` routes the message through the staged-encode
    /// fallback.
    fn encoded_len(&self) -> Option<usize> {
        None
    }

    /// Encode into exactly `buf` (whose length a caller obtained from
    /// [`FrameCodec::encoded_len`]). Implementors must fill the whole
    /// slice. Only called when `encoded_len` returned `Some`.
    fn encode_into(&self, _buf: &mut [u8]) {
        unreachable!("encode_into requires an encoded_len implementation");
    }
}

/// Raw byte payloads pass through unchanged (handy for tests and for
/// protocols that do their own packing).
impl FrameCodec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }

    fn encoded_len(&self) -> Option<usize> {
        Some(self.len())
    }

    fn encode_into(&self, buf: &mut [u8]) {
        buf.copy_from_slice(self);
    }
}

/// Refcounted views pass through without copying: decode keeps the
/// delivered view, the split encode is all trailing view. Only the
/// contiguous `encode` appends (the frame buffer is owned).
impl FrameCodec for MpfaBytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn encode_split(&self, _head: &mut Vec<u8>) -> Option<MpfaBytes> {
        Some(self.clone())
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(MpfaBytes::copy_from(bytes))
    }

    fn decode_bytes(bytes: MpfaBytes) -> Option<Self> {
        Some(bytes)
    }

    fn encoded_len(&self) -> Option<usize> {
        Some(self.len())
    }

    fn encode_into(&self, buf: &mut [u8]) {
        buf.copy_from_slice(self);
    }
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i32` little-endian.
pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a payload slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Option<i32> {
        let b = self.take(4)?;
        Some(i32::from_le_bytes(b.try_into().ok()?))
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Take everything that remains (possibly empty).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        put_u64(&mut buf, u64::MAX - 1);
        put_i32(&mut buf, -42);
        buf.extend_from_slice(b"tail");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.i32(), Some(-42));
        assert_eq!(r.rest(), b"tail");
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_return_none() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None);
        // A failed read consumes nothing.
        assert_eq!(r.take(3), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn vec_u8_passthrough() {
        let v = vec![9u8, 8, 7];
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf, v);
        // No trailing view: the default split is the contiguous encode.
        let mut head = Vec::new();
        assert!(v.encode_split(&mut head).is_none());
        assert_eq!(head, v);
        assert_eq!(<Vec<u8> as FrameCodec>::decode(&buf), Some(v));
    }

    #[test]
    fn mpfa_bytes_decode_is_zero_copy() {
        let view = MpfaBytes::from(vec![5u8, 6, 7, 8]);
        let mut buf = Vec::new();
        view.encode(&mut buf);
        assert_eq!(buf, vec![5u8, 6, 7, 8]);
        let ptr = view.as_ptr();
        let mut head = Vec::new();
        let tail = view.encode_split(&mut head).expect("all tail");
        assert!(head.is_empty());
        assert_eq!(tail.as_ptr(), ptr, "encode_split must not copy");
        let decoded = <MpfaBytes as FrameCodec>::decode_bytes(view).unwrap();
        assert_eq!(decoded.as_ptr(), ptr, "decode_bytes must not copy");
        // The borrowed-slice path still works (and copies).
        let copied = <MpfaBytes as FrameCodec>::decode(&buf).unwrap();
        assert_eq!(copied, decoded);
        assert_ne!(copied.as_ptr(), ptr);
    }
}
