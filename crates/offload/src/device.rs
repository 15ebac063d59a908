//! A simulated accelerator: device-resident buffers and an asynchronous
//! DMA copy engine whose completions are observed by a progress hook.
//!
//! The model: a copy of `n` bytes issued at time `t` completes at
//! `t + latency + n / bandwidth` (per-direction queues serialize like a
//! real copy engine's hardware queue). Data is actually moved when the
//! engine's hook *observes* the deadline — callers therefore must not
//! read the destination until the copy's request completes, exactly the
//! discipline real GPU streams impose.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::{
    wtime, AsyncPoll, Completer, ProgressHook, Request, Status, Stream, SubsystemClass,
};

/// Copy-engine timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Per-copy launch latency, seconds (kernel-launch-ish).
    pub latency: f64,
    /// Copy bandwidth, bytes/second (0.0 = infinite).
    pub bandwidth: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        // PCIe-ish: 10 µs launch, 16 GB/s.
        DeviceConfig {
            latency: 10e-6,
            bandwidth: 16.0e9,
        }
    }
}

impl DeviceConfig {
    /// An instant device (tests).
    pub fn instant() -> DeviceConfig {
        DeviceConfig {
            latency: 0.0,
            bandwidth: 0.0,
        }
    }

    fn copy_time(&self, bytes: usize) -> f64 {
        let bw = if self.bandwidth <= 0.0 {
            return self.latency;
        } else {
            self.bandwidth
        };
        self.latency + bytes as f64 / bw
    }
}

/// A device-resident byte buffer. Host code cannot read it directly —
/// data moves only through the copy engine (like real device memory).
#[derive(Clone)]
pub struct DeviceBuffer {
    data: Arc<Mutex<Vec<u8>>>,
}

impl DeviceBuffer {
    /// Allocate a zeroed device buffer of `len` bytes.
    pub fn alloc(len: usize) -> DeviceBuffer {
        DeviceBuffer {
            data: Arc::new(Mutex::new(vec![0; len])),
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.lock().len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test-only peek (a real device would not allow this; used by unit
    /// tests to verify engine behavior).
    pub fn debug_snapshot(&self) -> Vec<u8> {
        self.data.lock().clone()
    }
}

/// One pending DMA operation.
struct PendingCopy {
    done_at: f64,
    /// The actual data movement, deferred to observation time.
    apply: Box<dyn FnOnce() + Send>,
    completer: Completer,
    bytes: usize,
}

struct EngineState {
    queue: VecDeque<PendingCopy>,
    /// When the engine's single hardware queue frees up.
    next_free: f64,
}

/// The asynchronous copy engine. Its hook must be registered on a stream
/// ([`CopyEngine::register`]); copies complete when that stream's
/// progress observes their deadline. Cheap to clone (shared state).
#[derive(Clone)]
pub struct CopyEngine {
    config: DeviceConfig,
    stream: Stream,
    state: Arc<Mutex<EngineState>>,
    pending: Arc<AtomicUsize>,
    copied_bytes: Arc<AtomicUsize>,
}

struct CopyHook {
    state: Arc<Mutex<EngineState>>,
    pending: Arc<AtomicUsize>,
    copied_bytes: Arc<AtomicUsize>,
}

impl ProgressHook for CopyHook {
    fn name(&self) -> &str {
        "device-copy"
    }
    fn class(&self) -> SubsystemClass {
        // GPU copies ride with MPICH's async-copy machinery, which lives
        // alongside the datatype engine at the front of the collation.
        SubsystemClass::DatatypeEngine
    }
    fn has_work(&self) -> bool {
        self.pending.load(Ordering::Acquire) > 0
    }
    fn poll(&self) -> bool {
        let now = wtime();
        let mut finished = Vec::new();
        {
            let mut st = self.state.lock();
            while let Some(front) = st.queue.front() {
                if front.done_at <= now {
                    finished.push(st.queue.pop_front().expect("front exists"));
                } else {
                    break; // FIFO engine queue: later copies wait
                }
            }
        }
        if finished.is_empty() {
            return false;
        }
        let n = finished.len();
        for copy in finished {
            (copy.apply)();
            self.copied_bytes.fetch_add(copy.bytes, Ordering::Relaxed);
            copy.completer.complete(Status {
                source: -1,
                tag: -1,
                bytes: copy.bytes,
                cancelled: false,
            });
        }
        self.pending.fetch_sub(n, Ordering::Release);
        true
    }
}

impl CopyEngine {
    /// Create an engine and register its hook on `stream`.
    pub fn register(stream: &Stream, config: DeviceConfig) -> CopyEngine {
        let state = Arc::new(Mutex::new(EngineState {
            queue: VecDeque::new(),
            next_free: 0.0,
        }));
        let pending = Arc::new(AtomicUsize::new(0));
        let copied_bytes = Arc::new(AtomicUsize::new(0));
        stream.register_hook(CopyHook {
            state: state.clone(),
            pending: pending.clone(),
            copied_bytes: copied_bytes.clone(),
        });
        CopyEngine {
            config,
            stream: stream.clone(),
            state,
            pending,
            copied_bytes,
        }
    }

    /// The stream whose progress drives this engine.
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// Copies in flight.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Total bytes moved so far.
    pub fn copied_bytes(&self) -> usize {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    fn enqueue(&self, bytes: usize, apply: Box<dyn FnOnce() + Send>) -> Request {
        let (req, completer) = Request::pair(&self.stream);
        let now = wtime();
        {
            let mut st = self.state.lock();
            let start = now.max(st.next_free);
            let done_at = start + self.config.copy_time(bytes);
            st.next_free = done_at;
            st.queue.push_back(PendingCopy {
                done_at,
                apply,
                completer,
                bytes,
            });
        }
        self.pending.fetch_add(1, Ordering::Release);
        req
    }

    /// Asynchronous host→device copy. The request completes when the data
    /// is resident on the device.
    pub fn h2d(&self, src: &[u8], dst: &DeviceBuffer, offset: usize) -> Request {
        assert!(offset + src.len() <= dst.len(), "h2d out of bounds");
        let data = src.to_vec();
        let dst = dst.clone();
        self.enqueue(
            data.len(),
            Box::new(move || {
                dst.data.lock()[offset..offset + data.len()].copy_from_slice(&data);
            }),
        )
    }

    /// Asynchronous device→host copy into a shared landing buffer. The
    /// request completes when `dst` holds the data.
    pub fn d2h(
        &self,
        src: &DeviceBuffer,
        range: std::ops::Range<usize>,
        dst: Arc<Mutex<Vec<u8>>>,
    ) -> Request {
        assert!(range.end <= src.len(), "d2h out of bounds");
        let src = src.clone();
        let bytes = range.len();
        self.enqueue(
            bytes,
            Box::new(move || {
                let data = src.data.lock()[range.clone()].to_vec();
                *dst.lock() = data;
            }),
        )
    }
}

/// "GPU-aware send": D2H copy, then inject the message once the copy
/// completes — chained by an `MPIX_Async` task on the communicator's
/// stream (the copy hook and the netmod hook collate on that stream, so
/// one progress loop drives the whole pipeline). Returns the request of
/// the overall operation.
pub fn send_from_device(
    comm: &mpfa_mpi::Comm,
    engine: &CopyEngine,
    src: &DeviceBuffer,
    range: std::ops::Range<usize>,
    dst: i32,
    tag: i32,
) -> mpfa_mpi::MpiResult<Request> {
    comm.world_rank(dst)?; // validate early
    let staging: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let copy_req = engine.d2h(src, range, staging.clone());
    let (req, completer) = Request::pair(comm.stream());
    let comm2 = comm.clone();
    let mut completer = Some(completer);
    let mut inner: Option<Request> = None;
    comm.stream().async_start(move |_t| {
        if inner.is_none() {
            if !copy_req.is_complete() {
                return AsyncPoll::Pending;
            }
            let bytes = std::mem::take(&mut *staging.lock());
            inner = Some(
                comm2
                    .isend_bytes(bytes, dst, tag)
                    .expect("validated at initiation"),
            );
            return AsyncPoll::Progress;
        }
        if inner.as_ref().expect("set").is_complete() {
            let status = inner.as_ref().expect("set").status().expect("complete");
            completer.take().expect("once").complete(status);
            AsyncPoll::Done
        } else {
            AsyncPoll::Pending
        }
    });
    Ok(req)
}

/// "GPU-aware receive": receive into host staging, then H2D copy; the
/// returned request completes when the data is resident on the device.
pub fn recv_to_device(
    comm: &mpfa_mpi::Comm,
    engine: &CopyEngine,
    dst: &DeviceBuffer,
    offset: usize,
    count_bytes: usize,
    src: i32,
    tag: i32,
) -> mpfa_mpi::MpiResult<Request> {
    let recv = comm.irecv::<u8>(count_bytes, src, tag)?;
    let (req, completer) = Request::pair(comm.stream());
    let engine = engine.clone();
    let dst = dst.clone();
    let mut completer = Some(completer);
    let mut recv = Some(recv);
    let mut copy: Option<Request> = None;
    comm.stream().async_start(move |_t| {
        if copy.is_none() {
            if !recv.as_ref().expect("present").is_complete() {
                return AsyncPoll::Pending;
            }
            let (data, _) = recv.take().expect("present").take();
            copy = Some(engine.h2d(&data, &dst, offset));
            return AsyncPoll::Progress;
        }
        if copy.as_ref().expect("set").is_complete() {
            completer.take().expect("once").complete(Status::empty());
            AsyncPoll::Done
        } else {
            AsyncPoll::Pending
        }
    });
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h2d_then_d2h_roundtrip() {
        let stream = Stream::create();
        let engine = CopyEngine::register(&stream, DeviceConfig::instant());
        let buf = DeviceBuffer::alloc(16);
        let up = engine.h2d(&[1, 2, 3, 4], &buf, 4);
        assert!(!up.is_complete(), "copy needs a progress observation");
        up.wait();
        assert_eq!(&buf.debug_snapshot()[4..8], &[1, 2, 3, 4]);

        let landing = Arc::new(Mutex::new(Vec::new()));
        let down = engine.d2h(&buf, 4..8, landing.clone());
        down.wait();
        assert_eq!(*landing.lock(), vec![1, 2, 3, 4]);
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.copied_bytes(), 8);
    }

    #[test]
    fn copies_complete_in_fifo_order_with_latency() {
        let stream = Stream::create();
        let engine = CopyEngine::register(
            &stream,
            DeviceConfig {
                latency: 500e-6,
                bandwidth: 0.0,
            },
        );
        let buf = DeviceBuffer::alloc(4);
        let t0 = wtime();
        let first = engine.h2d(&[1], &buf, 0);
        let second = engine.h2d(&[2], &buf, 1);
        // Second must not complete before first (engine queue is FIFO).
        while !second.is_complete() {
            stream.progress();
            if first.is_complete() {
                break;
            }
        }
        assert!(first.is_complete());
        first.wait();
        second.wait();
        assert!(
            wtime() - t0 >= 1e-3,
            "two copies serialize to >= 2x latency"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn h2d_bounds_checked() {
        let stream = Stream::create();
        let engine = CopyEngine::register(&stream, DeviceConfig::instant());
        let buf = DeviceBuffer::alloc(2);
        engine.h2d(&[1, 2, 3], &buf, 0);
    }

    #[test]
    fn gpu_aware_send_recv_end_to_end() {
        use mpfa_mpi::{World, WorldConfig};
        let procs = World::init(WorldConfig::instant(2));
        let results: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = procs
                .into_iter()
                .map(|proc| {
                    s.spawn(move || {
                        let comm = proc.world_comm();
                        let engine = CopyEngine::register(comm.stream(), DeviceConfig::instant());
                        if comm.rank() == 0 {
                            // Device-resident payload.
                            let dev = DeviceBuffer::alloc(64);
                            engine.h2d(&[0xCD; 64], &dev, 0).wait();
                            let req = send_from_device(&comm, &engine, &dev, 0..64, 1, 7).unwrap();
                            req.wait();
                            Vec::new()
                        } else {
                            let dev = DeviceBuffer::alloc(64);
                            let req = recv_to_device(&comm, &engine, &dev, 0, 64, 0, 7).unwrap();
                            req.wait();
                            dev.debug_snapshot()
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[1], vec![0xCD; 64]);
    }
}
