//! Protocol selection: which of the paper's Figure 1 message modes a given
//! transfer uses, and how a granted rendezvous payload travels.
//!
//! Both decisions live here. [`ProtoConfig::mode_for`] picks the mode by
//! size. `ProtoConfig::data_plan` picks what follows a rendezvous CTS
//! from the transport's [`reliable_fifo`] answer: on the sim fabric, the
//! acknowledged pipeline of Figure 1's wait blocks; on a reliable FIFO
//! byte transport, the whole payload at once in unacknowledged slices.
//!
//! [`reliable_fifo`]: mpfa_transport::Transport::reliable_fifo

use std::ops::Range;

/// Which message mode a payload size selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Figure 1(a): payload copied and injected inside the initiation call;
    /// the request is born complete (MPICH's "lightweight send").
    Buffered,
    /// Figure 1(b): payload injected inside the initiation call; the
    /// request completes when the NIC signals TX completion (one wait
    /// block).
    Eager,
    /// Figure 1(c): RTS → CTS handshake, then the payload (two or more
    /// wait blocks; chunked payloads are the pipeline mode).
    Rendezvous,
}

/// Tunables of the point-to-point protocol engine (MPICH CVAR equivalents).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtoConfig {
    /// Largest payload sent in buffered/lightweight mode.
    pub buffered_max: usize,
    /// Largest payload sent in eager mode (above ⇒ rendezvous).
    pub eager_max: usize,
    /// Rendezvous chunk size on transports without
    /// `reliable_fifo` (pipeline mode kicks in for payloads larger than
    /// one chunk).
    pub chunk: usize,
    /// Maximum unacknowledged chunks per rendezvous transfer (pipeline
    /// depth) on those transports.
    pub depth: usize,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            buffered_max: 256,
            eager_max: 64 * 1024,
            chunk: 64 * 1024,
            depth: 4,
        }
    }
}

impl ProtoConfig {
    /// Select the send mode for a payload of `bytes` bytes.
    pub fn mode_for(&self, bytes: usize) -> SendMode {
        if bytes <= self.buffered_max {
            SendMode::Buffered
        } else if bytes <= self.eager_max {
            SendMode::Eager
        } else {
            SendMode::Rendezvous
        }
    }

    /// How a granted rendezvous travels over a transport whose
    /// `reliable_fifo` answer is `reliable_fifo`.
    pub(crate) fn data_plan(&self, reliable_fifo: Option<usize>) -> DataPlan {
        match reliable_fifo {
            Some(max) => DataPlan::Unacked { max: max.max(1) },
            None => DataPlan::Acked {
                chunk: self.chunk,
                depth: self.depth,
            },
        }
    }

    /// Validate invariants.
    pub fn validate(&self) {
        assert!(
            self.buffered_max <= self.eager_max,
            "buffered_max > eager_max"
        );
        assert!(self.chunk > 0, "chunk must be positive");
        assert!(self.depth > 0, "depth must be positive");
    }
}

/// How the bytes of a granted rendezvous travel after the CTS, as
/// `Data` slices of the sender's payload view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataPlan {
    /// Figure 1(c)'s pipeline mode: `chunk`-byte slices, at most `depth`
    /// of them unacknowledged. The receiver returns a `DataAck` per
    /// slice and the send completes on the last one, so every slice is
    /// a wait block only the receiver's progress clears.
    Acked {
        /// Slice size.
        chunk: usize,
        /// Slices in flight before the first ack.
        depth: usize,
    },
    /// The transport is reliable and FIFO per peer: every slice of at
    /// most `max` bytes goes out at the CTS, nobody acks, and the send
    /// completes there. The CTS is the flow control: no byte is queued
    /// before the receiver granted a buffer for it.
    Unacked {
        /// Slice size.
        max: usize,
    },
}

impl DataPlan {
    fn slice(self) -> usize {
        match self {
            DataPlan::Acked { chunk, .. } => chunk.max(1),
            DataPlan::Unacked { max } => max,
        }
    }

    /// Whether the receiver acknowledges each slice.
    pub(crate) fn acked(self) -> bool {
        matches!(self, DataPlan::Acked { .. })
    }

    /// Slices a `total`-byte payload travels as. An empty payload still
    /// sends one: the receiver completes on a `Data` arrival.
    pub(crate) fn slices(self, total: usize) -> usize {
        total.div_ceil(self.slice()).max(1)
    }

    /// Byte range of slice `k` of a `total`-byte payload, if it may go
    /// out now that `acked` slices have been acknowledged.
    pub(crate) fn next(self, total: usize, k: usize, acked: usize) -> Option<Range<usize>> {
        let window = match self {
            DataPlan::Acked { depth, .. } => acked.saturating_add(depth),
            DataPlan::Unacked { .. } => usize::MAX,
        };
        let s = self.slice();
        (k < self.slices(total) && k < window).then(|| (k * s).min(total)..((k + 1) * s).min(total))
    }

    /// Whether the sender is done once `sent` slices went out and
    /// `acked` came back.
    pub(crate) fn done(self, total: usize, sent: usize, acked: usize) -> bool {
        let finished = if self.acked() { acked } else { sent };
        finished >= self.slices(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_thresholds() {
        let c = ProtoConfig {
            buffered_max: 100,
            eager_max: 1000,
            chunk: 256,
            depth: 2,
        };
        assert_eq!(c.mode_for(0), SendMode::Buffered);
        assert_eq!(c.mode_for(100), SendMode::Buffered);
        assert_eq!(c.mode_for(101), SendMode::Eager);
        assert_eq!(c.mode_for(1000), SendMode::Eager);
        assert_eq!(c.mode_for(1001), SendMode::Rendezvous);
    }

    #[test]
    fn chunk_counts() {
        let c = ProtoConfig {
            chunk: 100,
            ..ProtoConfig::default()
        };
        for plan in [c.data_plan(None), c.data_plan(Some(100))] {
            assert_eq!(plan.slices(0), 1, "an empty payload still sends one slice");
            assert_eq!(plan.slices(1), 1);
            assert_eq!(plan.slices(100), 1);
            assert_eq!(plan.slices(101), 2);
            assert_eq!(plan.slices(1000), 10);
        }
    }

    #[test]
    fn acked_plan_holds_depth_slices_in_flight() {
        let plan = ProtoConfig {
            chunk: 10,
            depth: 2,
            ..ProtoConfig::default()
        }
        .data_plan(None);
        assert!(plan.acked());
        assert_eq!(plan.next(25, 0, 0), Some(0..10));
        assert_eq!(plan.next(25, 1, 0), Some(10..20));
        assert_eq!(plan.next(25, 2, 0), None, "window full until an ack");
        assert_eq!(plan.next(25, 2, 1), Some(20..25));
        assert_eq!(plan.next(25, 3, 3), None, "no slice past the end");
        assert!(!plan.done(25, 3, 2));
        assert!(plan.done(25, 3, 3));
        assert_eq!(plan.next(0, 0, 0), Some(0..0));
    }

    #[test]
    fn unacked_plan_sends_everything_at_the_cts() {
        let plan = ProtoConfig::default().data_plan(Some(10));
        assert!(!plan.acked());
        let sent: Vec<_> = (0..).map_while(|k| plan.next(25, k, 0)).collect();
        assert_eq!(sent, vec![0..10, 10..20, 20..25]);
        assert!(plan.done(25, 3, 0), "no ack is awaited");
        assert_eq!(plan.next(0, 0, 0), Some(0..0));
        assert!(plan.done(0, 1, 0));
    }

    #[test]
    fn default_is_valid() {
        ProtoConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "buffered_max")]
    fn inverted_thresholds_rejected() {
        ProtoConfig {
            buffered_max: 10,
            eager_max: 5,
            chunk: 1,
            depth: 1,
        }
        .validate();
    }
}
