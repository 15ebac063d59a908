//! Flow wire format: record batches and capability-delta gossip.
//!
//! Everything a flow sends — data records *and* progress gossip —
//! travels on the same per-`(source, flow-id)` channel of the reserved
//! flow control context, so MPI's non-overtaking guarantee orders a
//! capability drop *after* every record that was sent under that
//! capability. That in-band design is what makes `frontier()` exact:
//! a receiver can never apply the capability retirement before it has
//! queued the records the capability covered.
//!
//! ## Message layout (tag = flow id, little-endian)
//!
//! ```text
//! records:  [0u8] [count u32] count × ( [ts u64] [len u32] [payload] )
//! progress: [1u8] [n u32]     n     × ( [ts u64] [delta i64] )
//! ```

use crate::progress::Timestamp;

/// Message kind byte: a batch of timestamped records.
pub const MSG_RECORDS: u8 = 0;
/// Message kind byte: capability-delta gossip.
pub const MSG_PROGRESS: u8 = 1;

/// Largest encoded size of a single record's payload. Batches flush
/// before exceeding [`FLUSH_BYTES`], so with this bound no message can
/// outgrow [`LISTENER_CAPACITY`] (truncation is fatal at the matching
/// layer).
pub const MAX_RECORD_BYTES: usize = 32 * 1024;
/// Flush a destination's record batch once its buffer reaches this.
pub const FLUSH_BYTES: usize = 48 * 1024;
/// Capacity of the posted per-source flow receives.
pub const LISTENER_CAPACITY: usize = FLUSH_BYTES + MAX_RECORD_BYTES + 64;

/// A value that can ride a flow: self-describing encode/decode to
/// bytes. Each record is length-prefixed on the wire, so `decode` gets
/// exactly the bytes `encode` produced.
pub trait FlowData: Send + 'static + Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode a value from exactly the bytes a peer's `encode` wrote.
    fn decode(buf: &[u8]) -> Option<Self>;
}

impl FlowData for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(buf.get(..8)?.try_into().ok()?))
    }
}

impl FlowData for (u64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }
    fn decode(buf: &[u8]) -> Option<(u64, u64)> {
        Some((
            u64::from_le_bytes(buf.get(..8)?.try_into().ok()?),
            u64::from_le_bytes(buf.get(8..16)?.try_into().ok()?),
        ))
    }
}

impl FlowData for (u64, u64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
        out.extend_from_slice(&self.2.to_le_bytes());
    }
    fn decode(buf: &[u8]) -> Option<(u64, u64, u64)> {
        Some((
            u64::from_le_bytes(buf.get(..8)?.try_into().ok()?),
            u64::from_le_bytes(buf.get(8..16)?.try_into().ok()?),
            u64::from_le_bytes(buf.get(16..24)?.try_into().ok()?),
        ))
    }
}

impl FlowData for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(buf: &[u8]) -> Option<Vec<u8>> {
        Some(buf.to_vec())
    }
}

/// An accumulating per-destination record batch (the `count ×
/// (ts, len, payload)` body of a records message).
#[derive(Debug, Default)]
pub struct OutBatch {
    /// Records in `buf`.
    pub count: u32,
    /// Encoded record bodies.
    pub buf: Vec<u8>,
}

impl OutBatch {
    /// Append one record. Panics if a single record exceeds
    /// [`MAX_RECORD_BYTES`] (the protocol's framing bound).
    pub fn push<T: FlowData>(&mut self, ts: Timestamp, value: &T) {
        self.buf.extend_from_slice(&ts.to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        value.encode(&mut self.buf);
        let len = self.buf.len() - len_at - 4;
        assert!(
            len <= MAX_RECORD_BYTES,
            "flow record of {len} B exceeds the {MAX_RECORD_BYTES} B framing bound"
        );
        self.buf[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.count += 1;
    }

    /// True once the batch should be flushed to keep messages under the
    /// listener capacity.
    pub(crate) fn should_flush(&self, flush_records: usize) -> bool {
        self.buf.len() >= FLUSH_BYTES || self.count as usize >= flush_records
    }

    /// Drain into a complete records message, or `None` if empty.
    pub(crate) fn take_message(&mut self) -> Option<Vec<u8>> {
        if self.count == 0 {
            return None;
        }
        let mut msg = Vec::with_capacity(5 + self.buf.len());
        msg.push(MSG_RECORDS);
        msg.extend_from_slice(&self.count.to_le_bytes());
        msg.append(&mut self.buf);
        self.count = 0;
        Some(msg)
    }
}

/// Build a progress (capability-delta gossip) message.
pub(crate) fn progress_message(deltas: &[(Timestamp, i64)]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(5 + 16 * deltas.len());
    msg.push(MSG_PROGRESS);
    msg.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for &(t, d) in deltas {
        msg.extend_from_slice(&t.to_le_bytes());
        msg.extend_from_slice(&d.to_le_bytes());
    }
    msg
}

/// A decoded flow message.
#[derive(Debug, PartialEq, Eq)]
pub enum FlowMsg {
    /// Timestamped records, in send order.
    Records(Vec<(Timestamp, Vec<u8>)>),
    /// Capability deltas, in emission order.
    Progress(Vec<(Timestamp, i64)>),
}

/// Decode one flow message. `None` on malformed input (a protocol bug,
/// surfaced by the caller).
pub(crate) fn decode_message(data: &[u8]) -> Option<FlowMsg> {
    let kind = *data.first()?;
    let n = u32::from_le_bytes(data.get(1..5)?.try_into().ok()?) as usize;
    let mut pos = 5;
    match kind {
        MSG_RECORDS => {
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                let ts = u64::from_le_bytes(data.get(pos..pos + 8)?.try_into().ok()?);
                let len =
                    u32::from_le_bytes(data.get(pos + 8..pos + 12)?.try_into().ok()?) as usize;
                let payload = data.get(pos + 12..pos + 12 + len)?.to_vec();
                records.push((ts, payload));
                pos += 12 + len;
            }
            (pos == data.len()).then_some(FlowMsg::Records(records))
        }
        MSG_PROGRESS => {
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                let ts = u64::from_le_bytes(data.get(pos..pos + 8)?.try_into().ok()?);
                let d = i64::from_le_bytes(data.get(pos + 8..pos + 16)?.try_into().ok()?);
                deltas.push((ts, d));
                pos += 16;
            }
            (pos == data.len()).then_some(FlowMsg::Progress(deltas))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip() {
        let mut b = OutBatch::default();
        b.push(3, &(7u64, 9u64));
        b.push(5, &(1u64, 2u64));
        let msg = b.take_message().unwrap();
        assert_eq!(msg[0], MSG_RECORDS);
        let FlowMsg::Records(recs) = decode_message(&msg).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, 3);
        assert_eq!(<(u64, u64)>::decode(&recs[0].1), Some((7, 9)));
        assert_eq!(recs[1].0, 5);
        assert_eq!(<(u64, u64)>::decode(&recs[1].1), Some((1, 2)));
        // Batch is drained.
        assert!(b.take_message().is_none());
    }

    #[test]
    fn progress_roundtrip() {
        let msg = progress_message(&[(0, -1), (10, 1)]);
        assert_eq!(
            decode_message(&msg),
            Some(FlowMsg::Progress(vec![(0, -1), (10, 1)]))
        );
    }

    #[test]
    fn truncated_messages_decode_to_none() {
        let msg = progress_message(&[(0, -1)]);
        assert!(decode_message(&msg[..msg.len() - 1]).is_none());
        let mut b = OutBatch::default();
        b.push(1, &42u64);
        let msg = b.take_message().unwrap();
        assert!(decode_message(&msg[..msg.len() - 1]).is_none());
        assert!(decode_message(&[9, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn flush_thresholds() {
        let mut b = OutBatch::default();
        b.push(0, &vec![0u8; 1024]);
        assert!(!b.should_flush(1024));
        assert!(b.should_flush(1));
        for _ in 0..47 {
            b.push(0, &vec![0u8; 1024]);
        }
        assert!(b.should_flush(1024), "48 KiB of payload trips the flush");
        let msg = b.take_message().unwrap();
        assert!(msg.len() <= LISTENER_CAPACITY);
    }
}
