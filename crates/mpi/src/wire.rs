//! The wire protocol: what travels through the simulated fabric.
//!
//! The message modes map onto the paper's Figure 1:
//!
//! * [`WireMsg::Eager`] — buffered/lightweight and normal eager sends
//!   (Figure 1(a)/(b)): the payload rides along with the match header.
//! * [`WireMsg::Rts`] / [`WireMsg::Cts`] / [`WireMsg::Data`] — the
//!   rendezvous handshake (Figure 1(c)): the sender announces, the
//!   receiver clears, the data follows in one or more slices. On the sim
//!   fabric [`WireMsg::DataAck`] provides the pipeline-mode flow control
//!   with a bounded number of in-flight chunks; the byte transports are
//!   reliable and FIFO, so there the CTS alone is the flow control and
//!   nobody acks (see `protocol::DataPlan`).

use mpfa_transport::codec::{put_i32, put_u64, ByteReader};
use mpfa_transport::{FrameCodec, MpfaBytes};

/// Matching metadata carried by message-bearing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Communicator context id (unique per communicator, agreed by all
    /// ranks at communicator creation).
    pub context_id: u64,
    /// Sender's rank *within the communicator*.
    pub src_rank: i32,
    /// User tag.
    pub tag: i32,
}

/// A packet of the runtime's wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Complete message in one packet (buffered or eager mode).
    Eager {
        /// Match header.
        hdr: MsgHeader,
        /// Full payload — a refcounted view, so a send captures the
        /// caller's buffer without copying and a zero-copy receive can
        /// hand a transport ring view straight through to the match.
        data: MpfaBytes,
    },
    /// Ready-to-send: start of a rendezvous transfer.
    Rts {
        /// Match header.
        hdr: MsgHeader,
        /// Sender-side request id, echoed in the CTS.
        send_id: u64,
        /// Total payload size of the coming transfer.
        total: usize,
    },
    /// Clear-to-send: the receiver matched the RTS and is ready.
    Cts {
        /// Sender-side request id from the RTS.
        send_id: u64,
        /// Receiver-side request id, echoed in DATA packets.
        recv_id: u64,
    },
    /// One slice of a rendezvous payload (possibly empty: an empty
    /// payload still sends one).
    Data {
        /// Receiver-side request id from the CTS.
        recv_id: u64,
        /// Byte offset of this slice in the full payload.
        offset: usize,
        /// Slice bytes (a view of the sender's payload; no per-slice
        /// copy on the send side).
        data: MpfaBytes,
    },
    /// Receiver flow-control credit: one chunk landed; the sender may
    /// inject another (pipeline mode's bounded concurrency). Sent only
    /// on transports without `reliable_fifo`, i.e. the sim fabric.
    DataAck {
        /// Sender-side request id.
        send_id: u64,
    },
    /// Persistent-pair handshake (receiver → sender): `recv_init` ran,
    /// and the matching bucket for `key` is pinned to compact slot id
    /// `slot`. From here on the sender addresses fires by slot and the
    /// pair never touches tag matching again.
    PersistBind {
        /// The pair's identity: the wire context, the sender's comm
        /// rank, and the tag — the same triple an ordinary eager send
        /// would have been matched on.
        key: MsgHeader,
        /// Receiver-assigned slot id for all subsequent fires.
        slot: u64,
    },
    /// One eager re-fire of a bound persistent send: the full payload,
    /// addressed by slot — no match header, no tag matching.
    Refire {
        /// Receiver-side slot id from the [`WireMsg::PersistBind`].
        slot: u64,
        /// Re-fire generation (0 for the first start), for diagnostics
        /// and partitioned-round bookkeeping.
        gen: u64,
        /// Full payload view (sliced zero-copy on decode).
        data: MpfaBytes,
    },
    /// Rendezvous announce for a bound persistent send above the eager
    /// threshold. The receiver registers the transfer against the slot's
    /// armed buffer and replies with an ordinary [`WireMsg::Cts`]; the
    /// data then travels exactly like a one-shot rendezvous (it is
    /// already id-addressed and match-free).
    RefireRts {
        /// Receiver-side slot id.
        slot: u64,
        /// Re-fire generation.
        gen: u64,
        /// Sender-side request id, echoed in the CTS.
        send_id: u64,
        /// Total payload size of the coming transfer.
        total: usize,
    },
    /// One chunk of one *partition* of a partitioned persistent send.
    /// Partition readiness (`pready`) feeds these into the wire as the
    /// sweeps run; the receiver accounts arrival per partition so
    /// `parrived` can answer before the whole round lands.
    PartData {
        /// Receiver-side slot id.
        slot: u64,
        /// Byte offset of this chunk in the full (round) payload.
        offset: usize,
        /// Partition index this chunk belongs to.
        part: u32,
        /// Chunk bytes (a slice of the sender's payload view).
        data: MpfaBytes,
    },
}

impl WireMsg {
    /// The payload size the fabric should charge for. Control packets
    /// (RTS/CTS/ACK) are charged zero — they are header-sized, and the
    /// simulation models their cost as pure latency.
    pub fn wire_bytes(&self) -> usize {
        self.payload().map_or(0, MpfaBytes::len)
    }

    /// The trailing payload view of a byte-carrying variant.
    fn payload(&self) -> Option<&MpfaBytes> {
        match self {
            WireMsg::Eager { data, .. }
            | WireMsg::Data { data, .. }
            | WireMsg::Refire { data, .. }
            | WireMsg::PartData { data, .. } => Some(data),
            WireMsg::Rts { .. }
            | WireMsg::Cts { .. }
            | WireMsg::DataAck { .. }
            | WireMsg::PersistBind { .. }
            | WireMsg::RefireRts { .. } => None,
        }
    }

    /// Diagnostic kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Eager { .. } => "eager",
            WireMsg::Rts { .. } => "rts",
            WireMsg::Cts { .. } => "cts",
            WireMsg::Data { .. } => "data",
            WireMsg::DataAck { .. } => "ack",
            WireMsg::PersistBind { .. } => "bind",
            WireMsg::Refire { .. } => "refire",
            WireMsg::RefireRts { .. } => "refire-rts",
            WireMsg::PartData { .. } => "part",
        }
    }
}

// ---------------------------------------------------------------------
// Wire framing: how WireMsg crosses a real socket.
// ---------------------------------------------------------------------

/// Variant tags of the frame encoding (one byte on the wire).
const TAG_EAGER: u8 = 0;
const TAG_RTS: u8 = 1;
const TAG_CTS: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_DATA_ACK: u8 = 4;
const TAG_PERSIST_BIND: u8 = 5;
const TAG_REFIRE: u8 = 6;
const TAG_REFIRE_RTS: u8 = 7;
const TAG_PART_DATA: u8 = 8;

fn put_hdr(buf: &mut Vec<u8>, hdr: &MsgHeader) {
    put_u64(buf, hdr.context_id);
    put_i32(buf, hdr.src_rank);
    put_i32(buf, hdr.tag);
}

fn read_hdr(r: &mut ByteReader<'_>) -> Option<MsgHeader> {
    Some(MsgHeader {
        context_id: r.u64()?,
        src_rank: r.i32()?,
        tag: r.i32()?,
    })
}

impl WireMsg {
    /// Append the variant tag and the fixed-width fields: the whole
    /// encoding of a control packet, everything but the trailing
    /// [`WireMsg::payload`] of a byte-carrying one.
    fn put_fixed(&self, buf: &mut Vec<u8>) {
        match self {
            WireMsg::Eager { hdr, .. } => {
                buf.push(TAG_EAGER);
                put_hdr(buf, hdr);
            }
            WireMsg::Rts {
                hdr,
                send_id,
                total,
            } => {
                buf.push(TAG_RTS);
                put_hdr(buf, hdr);
                put_u64(buf, *send_id);
                put_u64(buf, *total as u64);
            }
            WireMsg::Cts { send_id, recv_id } => {
                buf.push(TAG_CTS);
                put_u64(buf, *send_id);
                put_u64(buf, *recv_id);
            }
            WireMsg::Data {
                recv_id, offset, ..
            } => {
                buf.push(TAG_DATA);
                put_u64(buf, *recv_id);
                put_u64(buf, *offset as u64);
            }
            WireMsg::DataAck { send_id } => {
                buf.push(TAG_DATA_ACK);
                put_u64(buf, *send_id);
            }
            WireMsg::PersistBind { key, slot } => {
                buf.push(TAG_PERSIST_BIND);
                put_hdr(buf, key);
                put_u64(buf, *slot);
            }
            WireMsg::Refire { slot, gen, .. } => {
                buf.push(TAG_REFIRE);
                put_u64(buf, *slot);
                put_u64(buf, *gen);
            }
            WireMsg::RefireRts {
                slot,
                gen,
                send_id,
                total,
            } => {
                buf.push(TAG_REFIRE_RTS);
                put_u64(buf, *slot);
                put_u64(buf, *gen);
                put_u64(buf, *send_id);
                put_u64(buf, *total as u64);
            }
            WireMsg::PartData {
                slot, offset, part, ..
            } => {
                buf.push(TAG_PART_DATA);
                put_u64(buf, *slot);
                put_u64(buf, *offset as u64);
                put_i32(buf, *part as i32);
            }
        }
    }
}

/// [`FrameCodec`] lets [`WireMsg`] cross the real TCP/UDS backends of
/// `mpfa-transport` unchanged: one leading variant byte, little-endian
/// fixed-width fields, and — for the byte-carrying variants — the
/// payload as the trailing rest of the frame (the frame header already
/// carries the length, so none is repeated here).
impl FrameCodec for WireMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.put_fixed(buf);
        if let Some(data) = self.payload() {
            buf.extend_from_slice(data);
        }
    }

    /// The payload is always last, so the split is free: fixed fields
    /// into `head`, the payload view handed over as it is.
    fn encode_split(&self, head: &mut Vec<u8>) -> Option<MpfaBytes> {
        self.put_fixed(head);
        self.payload().cloned()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = *r.take(1)?.first()?;
        let msg = match tag {
            TAG_EAGER => WireMsg::Eager {
                hdr: read_hdr(&mut r)?,
                data: MpfaBytes::copy_from(r.rest()),
            },
            TAG_RTS => WireMsg::Rts {
                hdr: read_hdr(&mut r)?,
                send_id: r.u64()?,
                total: r.u64()? as usize,
            },
            TAG_CTS => WireMsg::Cts {
                send_id: r.u64()?,
                recv_id: r.u64()?,
            },
            TAG_DATA => WireMsg::Data {
                recv_id: r.u64()?,
                offset: r.u64()? as usize,
                data: MpfaBytes::copy_from(r.rest()),
            },
            TAG_DATA_ACK => WireMsg::DataAck { send_id: r.u64()? },
            TAG_PERSIST_BIND => WireMsg::PersistBind {
                key: read_hdr(&mut r)?,
                slot: r.u64()?,
            },
            TAG_REFIRE => WireMsg::Refire {
                slot: r.u64()?,
                gen: r.u64()?,
                data: MpfaBytes::copy_from(r.rest()),
            },
            TAG_REFIRE_RTS => WireMsg::RefireRts {
                slot: r.u64()?,
                gen: r.u64()?,
                send_id: r.u64()?,
                total: r.u64()? as usize,
            },
            TAG_PART_DATA => WireMsg::PartData {
                slot: r.u64()?,
                offset: r.u64()? as usize,
                part: r.i32()? as u32,
                data: MpfaBytes::copy_from(r.rest()),
            },
            _ => return None,
        };
        // Fixed-size variants must consume the payload exactly; the
        // data-bearing ones drained it via rest().
        r.is_empty().then_some(msg)
    }

    /// Zero-copy decode: the data-bearing variants keep a *slice* of the
    /// delivered view as their payload instead of copying it out. This
    /// is how a shared-memory ring view flows through matching into the
    /// application's receive without a memcpy.
    fn decode_bytes(bytes: MpfaBytes) -> Option<Self> {
        // Three data-bearing layouts put the payload at byte 17:
        // Eager = tag(1) + header(16); Data = tag(1) + recv_id(8) +
        // offset(8); Refire = tag(1) + slot(8) + gen(8). PartData adds a
        // partition index, so its payload sits at byte 21.
        const PAYLOAD_AT: usize = 17;
        const PART_PAYLOAD_AT: usize = 21;
        match *bytes.first()? {
            TAG_EAGER if bytes.len() >= PAYLOAD_AT => {
                let mut r = ByteReader::new(&bytes[1..PAYLOAD_AT]);
                Some(WireMsg::Eager {
                    hdr: read_hdr(&mut r)?,
                    data: bytes.slice(PAYLOAD_AT..bytes.len()),
                })
            }
            TAG_DATA if bytes.len() >= PAYLOAD_AT => {
                let mut r = ByteReader::new(&bytes[1..PAYLOAD_AT]);
                Some(WireMsg::Data {
                    recv_id: r.u64()?,
                    offset: r.u64()? as usize,
                    data: bytes.slice(PAYLOAD_AT..bytes.len()),
                })
            }
            TAG_REFIRE if bytes.len() >= PAYLOAD_AT => {
                let mut r = ByteReader::new(&bytes[1..PAYLOAD_AT]);
                Some(WireMsg::Refire {
                    slot: r.u64()?,
                    gen: r.u64()?,
                    data: bytes.slice(PAYLOAD_AT..bytes.len()),
                })
            }
            TAG_PART_DATA if bytes.len() >= PART_PAYLOAD_AT => {
                let mut r = ByteReader::new(&bytes[1..PART_PAYLOAD_AT]);
                Some(WireMsg::PartData {
                    slot: r.u64()?,
                    offset: r.u64()? as usize,
                    part: r.i32()? as u32,
                    data: bytes.slice(PART_PAYLOAD_AT..bytes.len()),
                })
            }
            _ => Self::decode(&bytes),
        }
    }

    /// Every variant's size is known up front, so backends with
    /// preallocated frame space (the shared-memory ring) reserve the
    /// frame in place and encode straight into it — no staging buffer.
    fn encoded_len(&self) -> Option<usize> {
        Some(match self {
            WireMsg::Eager { data, .. } => 17 + data.len(),
            WireMsg::Rts { .. } => 33,
            WireMsg::Cts { .. } => 17,
            WireMsg::Data { data, .. } => 17 + data.len(),
            WireMsg::DataAck { .. } => 9,
            WireMsg::PersistBind { .. } => 25,
            WireMsg::Refire { data, .. } => 17 + data.len(),
            WireMsg::RefireRts { .. } => 33,
            WireMsg::PartData { data, .. } => 21 + data.len(),
        })
    }

    fn encode_into(&self, buf: &mut [u8]) {
        fn hdr_into(buf: &mut [u8], hdr: &MsgHeader) {
            buf[0..8].copy_from_slice(&hdr.context_id.to_le_bytes());
            buf[8..12].copy_from_slice(&hdr.src_rank.to_le_bytes());
            buf[12..16].copy_from_slice(&hdr.tag.to_le_bytes());
        }
        match self {
            WireMsg::Eager { hdr, data } => {
                buf[0] = TAG_EAGER;
                hdr_into(&mut buf[1..17], hdr);
                buf[17..].copy_from_slice(data);
            }
            WireMsg::Rts {
                hdr,
                send_id,
                total,
            } => {
                buf[0] = TAG_RTS;
                hdr_into(&mut buf[1..17], hdr);
                buf[17..25].copy_from_slice(&send_id.to_le_bytes());
                buf[25..33].copy_from_slice(&(*total as u64).to_le_bytes());
            }
            WireMsg::Cts { send_id, recv_id } => {
                buf[0] = TAG_CTS;
                buf[1..9].copy_from_slice(&send_id.to_le_bytes());
                buf[9..17].copy_from_slice(&recv_id.to_le_bytes());
            }
            WireMsg::Data {
                recv_id,
                offset,
                data,
            } => {
                buf[0] = TAG_DATA;
                buf[1..9].copy_from_slice(&recv_id.to_le_bytes());
                buf[9..17].copy_from_slice(&(*offset as u64).to_le_bytes());
                buf[17..].copy_from_slice(data);
            }
            WireMsg::DataAck { send_id } => {
                buf[0] = TAG_DATA_ACK;
                buf[1..9].copy_from_slice(&send_id.to_le_bytes());
            }
            WireMsg::PersistBind { key, slot } => {
                buf[0] = TAG_PERSIST_BIND;
                hdr_into(&mut buf[1..17], key);
                buf[17..25].copy_from_slice(&slot.to_le_bytes());
            }
            WireMsg::Refire { slot, gen, data } => {
                buf[0] = TAG_REFIRE;
                buf[1..9].copy_from_slice(&slot.to_le_bytes());
                buf[9..17].copy_from_slice(&gen.to_le_bytes());
                buf[17..].copy_from_slice(data);
            }
            WireMsg::RefireRts {
                slot,
                gen,
                send_id,
                total,
            } => {
                buf[0] = TAG_REFIRE_RTS;
                buf[1..9].copy_from_slice(&slot.to_le_bytes());
                buf[9..17].copy_from_slice(&gen.to_le_bytes());
                buf[17..25].copy_from_slice(&send_id.to_le_bytes());
                buf[25..33].copy_from_slice(&(*total as u64).to_le_bytes());
            }
            WireMsg::PartData {
                slot,
                offset,
                part,
                data,
            } => {
                buf[0] = TAG_PART_DATA;
                buf[1..9].copy_from_slice(&slot.to_le_bytes());
                buf[9..17].copy_from_slice(&(*offset as u64).to_le_bytes());
                buf[17..21].copy_from_slice(&(*part as i32).to_le_bytes());
                buf[21..].copy_from_slice(data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> MsgHeader {
        MsgHeader {
            context_id: 1,
            src_rank: 0,
            tag: 5,
        }
    }

    #[test]
    fn wire_bytes_charges_payload_only() {
        assert_eq!(
            WireMsg::Eager {
                hdr: hdr(),
                data: vec![0; 10].into()
            }
            .wire_bytes(),
            10
        );
        assert_eq!(
            WireMsg::Rts {
                hdr: hdr(),
                send_id: 1,
                total: 1000
            }
            .wire_bytes(),
            0
        );
        assert_eq!(
            WireMsg::Cts {
                send_id: 1,
                recv_id: 2
            }
            .wire_bytes(),
            0
        );
        assert_eq!(
            WireMsg::Data {
                recv_id: 2,
                offset: 0,
                data: vec![0; 7].into()
            }
            .wire_bytes(),
            7
        );
        assert_eq!(WireMsg::DataAck { send_id: 1 }.wire_bytes(), 0);
        assert_eq!(
            WireMsg::PersistBind {
                key: hdr(),
                slot: 3
            }
            .wire_bytes(),
            0
        );
        assert_eq!(
            WireMsg::Refire {
                slot: 3,
                gen: 4,
                data: vec![0; 12].into()
            }
            .wire_bytes(),
            12
        );
        assert_eq!(
            WireMsg::RefireRts {
                slot: 3,
                gen: 4,
                send_id: 5,
                total: 100
            }
            .wire_bytes(),
            0
        );
        assert_eq!(
            WireMsg::PartData {
                slot: 3,
                offset: 64,
                part: 1,
                data: vec![0; 9].into()
            }
            .wire_bytes(),
            9
        );
    }

    #[test]
    fn frame_codec_roundtrips_every_variant() {
        let msgs = vec![
            WireMsg::Eager {
                hdr: MsgHeader {
                    context_id: u64::MAX,
                    src_rank: -1,
                    tag: i32::MIN,
                },
                data: (0..=255).collect::<Vec<u8>>().into(),
            },
            WireMsg::Eager {
                hdr: hdr(),
                data: vec![].into(),
            },
            WireMsg::Rts {
                hdr: hdr(),
                send_id: 7,
                total: 1 << 40,
            },
            WireMsg::Cts {
                send_id: 7,
                recv_id: 9,
            },
            WireMsg::Data {
                recv_id: 9,
                offset: 123_456,
                data: vec![0xAB; 3].into(),
            },
            WireMsg::DataAck { send_id: 7 },
            WireMsg::PersistBind {
                key: MsgHeader {
                    context_id: 42,
                    src_rank: 3,
                    tag: 17,
                },
                slot: u64::MAX - 1,
            },
            WireMsg::Refire {
                slot: 11,
                gen: 1 << 33,
                data: (0..=255).collect::<Vec<u8>>().into(),
            },
            WireMsg::Refire {
                slot: 11,
                gen: 0,
                data: vec![].into(),
            },
            WireMsg::RefireRts {
                slot: 11,
                gen: 2,
                send_id: 77,
                total: 1 << 30,
            },
            WireMsg::PartData {
                slot: 11,
                offset: 4096,
                part: u32::MAX,
                data: vec![0xCD; 5].into(),
            },
            WireMsg::PartData {
                slot: 11,
                offset: 0,
                part: 0,
                data: vec![].into(),
            },
        ];
        for msg in msgs {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            assert_eq!(WireMsg::decode(&buf), Some(msg.clone()));
            // decode_bytes agrees with decode on every variant.
            assert_eq!(
                WireMsg::decode_bytes(MpfaBytes::copy_from(&buf)),
                Some(msg.clone())
            );
            // encoded_len/encode_into produce the exact same frame.
            let len = msg.encoded_len().expect("every variant sizes itself");
            assert_eq!(len, buf.len());
            let mut direct = vec![0u8; len];
            msg.encode_into(&mut direct);
            assert_eq!(direct, buf);
            // encode_split: head ++ tail is the same frame, and the tail
            // is the message's own payload view, not a copy.
            let mut head = Vec::new();
            let tail = msg.encode_split(&mut head);
            assert_eq!(
                tail.as_ref().map(|t| t.as_ptr()),
                msg.payload().map(|d| d.as_ptr())
            );
            head.extend_from_slice(tail.as_deref().unwrap_or_default());
            assert_eq!(head, buf);
        }
    }

    #[test]
    fn decode_bytes_slices_payload_without_copying() {
        let payload: Vec<u8> = (0..200).collect();
        let msg = WireMsg::Eager {
            hdr: hdr(),
            data: payload.clone().into(),
        };
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let view = MpfaBytes::from(buf);
        let base = view.as_ptr();
        match WireMsg::decode_bytes(view).unwrap() {
            WireMsg::Eager { data, .. } => {
                assert_eq!(&data[..], &payload[..]);
                // The payload is a slice of the delivered frame view, not
                // a fresh allocation: zero-copy receive.
                assert_eq!(data.as_ptr(), unsafe { base.add(17) });
            }
            other => panic!("wrong variant: {}", other.kind()),
        }
    }

    #[test]
    fn decode_bytes_slices_persist_payloads_without_copying() {
        let payload: Vec<u8> = (0..150).collect();
        for (msg, payload_at) in [
            (
                WireMsg::Refire {
                    slot: 9,
                    gen: 3,
                    data: payload.clone().into(),
                },
                17usize,
            ),
            (
                WireMsg::PartData {
                    slot: 9,
                    offset: 300,
                    part: 2,
                    data: payload.clone().into(),
                },
                21,
            ),
        ] {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let view = MpfaBytes::from(buf);
            let base = view.as_ptr();
            let decoded = WireMsg::decode_bytes(view).unwrap();
            let data = match &decoded {
                WireMsg::Refire { data, .. } => data,
                WireMsg::PartData { data, .. } => data,
                other => panic!("wrong variant: {}", other.kind()),
            };
            assert_eq!(&data[..], &payload[..]);
            assert_eq!(data.as_ptr(), unsafe { base.add(payload_at) });
        }
    }

    #[test]
    fn frame_codec_rejects_malformed_payloads() {
        // Unknown variant tag.
        assert_eq!(WireMsg::decode(&[99]), None);
        // Empty payload.
        assert_eq!(WireMsg::decode(&[]), None);
        // Truncated fixed-size variant.
        let mut buf = Vec::new();
        WireMsg::DataAck { send_id: 1 }.encode(&mut buf);
        assert_eq!(WireMsg::decode(&buf[..buf.len() - 1]), None);
        // Trailing garbage after a fixed-size variant.
        buf.push(0);
        assert_eq!(WireMsg::decode(&buf), None);
        // Truncated persist handshake / rendezvous announce.
        let mut bind = Vec::new();
        WireMsg::PersistBind {
            key: MsgHeader {
                context_id: 1,
                src_rank: 0,
                tag: 0,
            },
            slot: 1,
        }
        .encode(&mut bind);
        assert_eq!(WireMsg::decode(&bind[..bind.len() - 1]), None);
        bind.push(0);
        assert_eq!(WireMsg::decode(&bind), None);
        let mut rts = Vec::new();
        WireMsg::RefireRts {
            slot: 1,
            gen: 0,
            send_id: 2,
            total: 3,
        }
        .encode(&mut rts);
        assert_eq!(WireMsg::decode(&rts[..rts.len() - 1]), None);
    }

    #[test]
    fn kinds() {
        assert_eq!(
            WireMsg::Eager {
                hdr: hdr(),
                data: vec![].into()
            }
            .kind(),
            "eager"
        );
        assert_eq!(WireMsg::DataAck { send_id: 0 }.kind(), "ack");
        assert_eq!(
            WireMsg::PersistBind {
                key: hdr(),
                slot: 0
            }
            .kind(),
            "bind"
        );
        assert_eq!(
            WireMsg::Refire {
                slot: 0,
                gen: 0,
                data: vec![].into()
            }
            .kind(),
            "refire"
        );
        assert_eq!(
            WireMsg::RefireRts {
                slot: 0,
                gen: 0,
                send_id: 0,
                total: 0
            }
            .kind(),
            "refire-rts"
        );
        assert_eq!(
            WireMsg::PartData {
                slot: 0,
                offset: 0,
                part: 0,
                data: vec![].into()
            }
            .kind(),
            "part"
        );
    }
}
