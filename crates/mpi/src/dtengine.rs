//! The asynchronous datatype engine: incremental pack/unpack of
//! non-contiguous layouts, progressed by the first hook of the collated
//! progress function (paper Listing 1.1, `Datatype_engine_progress`).
//!
//! Packing a large strided buffer in one go would stall the progress loop
//! (exactly the poll-overhead problem of the paper's Figure 8), so jobs are
//! advanced one *segment* per poll and the engine reports progress
//! per-segment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;

use crate::datatype::{Layout, MpiType};

/// One step of an incremental job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStep {
    /// More segments remain.
    More,
    /// The job finished this step.
    Done,
}

/// A type-erased incremental job: each call processes one segment.
pub type Job = Box<dyn FnMut() -> JobStep + Send>;

/// The engine: a queue of incremental jobs with an O(1) idle check.
pub struct DtEngine {
    jobs: Mutex<Vec<Job>>,
    pending: AtomicUsize,
}

impl Default for DtEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DtEngine {
    /// An empty engine.
    pub fn new() -> DtEngine {
        DtEngine {
            jobs: Mutex::new(Vec::new()),
            pending: AtomicUsize::new(0),
        }
    }

    /// Shared handle.
    pub fn shared() -> Arc<DtEngine> {
        Arc::new(DtEngine::new())
    }

    /// Enqueue an incremental job.
    pub fn submit(&self, job: Job) {
        self.pending.fetch_add(1, Ordering::Release);
        self.jobs.lock().push(job);
    }

    /// Jobs not yet finished (one atomic read — the hook's `has_work`).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Advance every queued job by one segment. Returns true if any job
    /// ran (i.e. progress was made).
    pub fn poll(&self) -> bool {
        if self.pending() == 0 {
            return false;
        }
        let mut jobs = self.jobs.lock();
        if jobs.is_empty() {
            return false;
        }
        let mut finished = 0;
        let mut i = 0;
        while i < jobs.len() {
            match (jobs[i])() {
                JobStep::Done => {
                    let _finished_job = jobs.swap_remove(i);
                    finished += 1;
                }
                JobStep::More => i += 1,
            }
        }
        drop(jobs);
        if finished > 0 {
            self.pending.fetch_sub(finished, Ordering::Release);
        }
        true
    }
}

fn block_of(layout: &Layout, i: usize) -> (usize, usize) {
    match *layout {
        Layout::Contiguous { count } => (0, count),
        Layout::Vector {
            blocklen, stride, ..
        } => (i * stride, blocklen),
    }
}

fn blocks_in(layout: &Layout) -> usize {
    match *layout {
        Layout::Contiguous { count } => usize::from(count > 0),
        Layout::Vector { count, .. } => count,
    }
}

/// Build an incremental *pack* job: gather `layout`-selected elements of
/// `data` into a dense vector, `segment_blocks` blocks per step, then hand
/// the packed vector to `on_done`.
pub(crate) fn pack_job<T: MpiType>(
    data: Vec<T>,
    layout: Layout,
    segment_blocks: usize,
    on_done: impl FnOnce(Vec<T>) + Send + 'static,
) -> Job {
    layout.check(data.len());
    let segment_blocks = segment_blocks.max(1);
    let total_blocks = blocks_in(&layout);
    let mut packed: Vec<T> = Vec::with_capacity(layout.element_count());
    let mut next_block = 0usize;
    let mut on_done = Some(on_done);
    Box::new(move || {
        let end = (next_block + segment_blocks).min(total_blocks);
        while next_block < end {
            let (start, len) = block_of(&layout, next_block);
            packed.extend_from_slice(&data[start..start + len]);
            next_block += 1;
        }
        if next_block >= total_blocks {
            let done = on_done.take().expect("pack_job polled past Done");
            done(std::mem::take(&mut packed));
            JobStep::Done
        } else {
            JobStep::More
        }
    })
}

/// Build an incremental *unpack* job: scatter a dense `packed` vector into
/// a `layout`-shaped buffer of `extent` elements (zero-filled gaps), then
/// hand the result to `on_done`.
pub(crate) fn unpack_job<T: MpiType + Default>(
    packed: Vec<T>,
    layout: Layout,
    segment_blocks: usize,
    on_done: impl FnOnce(Vec<T>) + Send + 'static,
) -> Job {
    assert_eq!(
        packed.len(),
        layout.element_count(),
        "packed length mismatch"
    );
    let segment_blocks = segment_blocks.max(1);
    let total_blocks = blocks_in(&layout);
    let mut out: Vec<T> = vec![T::default(); layout.extent()];
    let mut next_block = 0usize;
    let mut packed_off = 0usize;
    let mut on_done = Some(on_done);
    Box::new(move || {
        let end = (next_block + segment_blocks).min(total_blocks);
        while next_block < end {
            let (start, len) = block_of(&layout, next_block);
            out[start..start + len].copy_from_slice(&packed[packed_off..packed_off + len]);
            packed_off += len;
            next_block += 1;
        }
        if next_block >= total_blocks {
            let done = on_done.take().expect("unpack_job polled past Done");
            done(std::mem::take(&mut out));
            JobStep::Done
        } else {
            JobStep::More
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn empty_engine_is_idle() {
        let e = DtEngine::new();
        assert_eq!(e.pending(), 0);
        assert!(!e.poll());
    }

    #[test]
    fn pack_job_runs_in_segments() {
        let e = DtEngine::new();
        let layout = Layout::Vector {
            count: 10,
            blocklen: 2,
            stride: 3,
        };
        let data: Vec<i32> = (0..30).collect();
        let result = Arc::new(Mutex::new(None));
        let r = result.clone();
        e.submit(pack_job(data, layout, 3, move |packed| {
            *r.lock() = Some(packed);
        }));
        assert_eq!(e.pending(), 1);
        // 10 blocks at 3 per step = 4 polls.
        let mut polls = 0;
        while e.pending() > 0 {
            assert!(e.poll());
            polls += 1;
            assert!(polls <= 4, "took too many polls");
        }
        assert_eq!(polls, 4);
        let packed = result.lock().take().unwrap();
        let expect = layout.pack(&(0..30).collect::<Vec<i32>>());
        assert_eq!(packed, expect);
    }

    #[test]
    fn unpack_job_restores_layout() {
        let e = DtEngine::new();
        let layout = Layout::Vector {
            count: 3,
            blocklen: 2,
            stride: 4,
        };
        let original: Vec<i32> = (0..10).collect();
        let packed = layout.pack(&original);
        let result = Arc::new(Mutex::new(None));
        let r = result.clone();
        e.submit(unpack_job(packed, layout, 1, move |out| {
            *r.lock() = Some(out);
        }));
        while e.pending() > 0 {
            e.poll();
        }
        let out = result.lock().take().unwrap();
        assert_eq!(out, vec![0, 1, 0, 0, 4, 5, 0, 0, 8, 9]);
    }

    #[test]
    fn contiguous_pack_single_step() {
        let e = DtEngine::new();
        let done = Arc::new(AtomicBool::new(false));
        let d = done.clone();
        e.submit(pack_job(
            vec![1i32, 2, 3],
            Layout::Contiguous { count: 3 },
            1,
            move |p| {
                assert_eq!(p, vec![1, 2, 3]);
                d.store(true, Ordering::Release);
            },
        ));
        assert!(e.poll());
        assert!(done.load(Ordering::Acquire));
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn multiple_jobs_advance_together() {
        let e = DtEngine::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = counter.clone();
            let layout = Layout::Vector {
                count: 4,
                blocklen: 1,
                stride: 2,
            };
            e.submit(pack_job(
                (0..8).collect::<Vec<i32>>(),
                layout,
                2,
                move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                },
            ));
        }
        assert_eq!(e.pending(), 5);
        e.poll(); // all advance 2 of 4 blocks
        assert_eq!(e.pending(), 5);
        e.poll(); // all finish
        assert_eq!(e.pending(), 0);
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }
}
