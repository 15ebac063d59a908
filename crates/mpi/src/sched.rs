//! Collective-schedule progression — the `Collective_sched_progress` entry
//! of the collated progress function (paper Listing 1.1).
//!
//! A nonblocking collective is a multi-stage task graph (Figure 2(c): a
//! task with multiple wait blocks). Here it is data: an algorithm is a
//! pure function from `(rank, size, counts, root, …)` to a [`Plan`] — a
//! list of [`Step`]s over one typed working buffer, cut into rounds by
//! [`Step::Barrier`] — and one interpreter, [`SchedTask`], runs every
//! plan. The interpreter owns what no algorithm should repeat: the
//! born-failed guard, request/future pairing, tag derivation from
//! `(seq, round)`, issuing a round, gating it with [`check_stage`],
//! landing its receives, and finishing or aborting.
//!
//! Round semantics: a round's sends and receives are issued together, in
//! list order, the sends reading the buffer as the round began. When all
//! of them have completed, the receives land and the local steps run, in
//! list order; then the next round is issued in the same `advance` call.
//! The first round is issued by the initiating call itself.
//! A round's tag is its index, so sender and receiver must place a
//! message in the same round: every rank's list for one algorithm has the
//! same rounds, empty where the rank sits one out.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::{AsyncPoll, Completer, Request, RequestError, Status};
use mpfa_transport::MpfaBytes;

use crate::collectives::{CollFuture, CollOutput};
use crate::comm::Comm;
use crate::datatype::{from_bytes, read_into, to_bytes, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::matching::RecvSlot;
use crate::op::{Op, Reducible};

/// How a landed payload, or a local range, combines into its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Land {
    /// Overwrite the destination.
    Copy,
    /// `dst = op(dst, incoming)` with the collective's reduction.
    Reduce,
}

/// One entry of a collective schedule. Ranges are element ranges of the
/// rank's working buffer; peers are communicator ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// Send `src` to rank `to`.
    Send { to: usize, src: Range<usize> },
    /// Receive `dst.len()` elements from rank `from` into `dst`.
    Recv {
        from: usize,
        dst: Range<usize>,
        land: Land,
    },
    /// Combine `src` into `dst` (equal lengths, disjoint).
    Local {
        src: Range<usize>,
        dst: Range<usize>,
        land: Land,
    },
    /// Close the round.
    Barrier,
}

impl Step {
    /// Send `src` to rank `to`.
    pub(crate) fn send(to: usize, src: Range<usize>) -> Step {
        Step::Send { to, src }
    }

    /// Receive into `dst` from rank `from`, overwriting it.
    pub(crate) fn recv(from: usize, dst: Range<usize>) -> Step {
        Step::Recv {
            from,
            dst,
            land: Land::Copy,
        }
    }

    /// Receive from rank `from` and reduce the payload into `dst`.
    pub(crate) fn recv_reduce(from: usize, dst: Range<usize>) -> Step {
        Step::Recv {
            from,
            dst,
            land: Land::Reduce,
        }
    }
}

/// One rank's schedule: the steps plus the shape of its working buffer.
#[derive(Debug)]
pub(crate) struct Plan {
    pub steps: Vec<Step>,
    /// Working-buffer length in elements.
    pub len: usize,
    /// Offset at which the caller's contribution is placed.
    pub at: usize,
    /// The part of the buffer that is this rank's result.
    pub out: Range<usize>,
}

impl Plan {
    /// A plan that works in place on the caller's `n` elements and yields
    /// all of them.
    pub(crate) fn in_place(steps: Vec<Step>, n: usize) -> Plan {
        Plan {
            steps,
            len: n,
            at: 0,
            out: 0..n,
        }
    }
}

/// Rewrite every peer through `f`: how an algorithm written for ranks
/// `0..n` of a sub-group (root-relative order, a node, the node leaders)
/// runs on the communicator's own ranks.
pub(crate) fn on_ranks(mut steps: Vec<Step>, f: impl Fn(usize) -> usize) -> Vec<Step> {
    for step in &mut steps {
        match step {
            Step::Send { to: peer, .. } | Step::Recv { from: peer, .. } => *peer = f(*peer),
            Step::Local { .. } | Step::Barrier => {}
        }
    }
    steps
}

/// Index of the barrier closing the round that starts at `pc`.
pub(crate) fn round_end(steps: &[Step], pc: usize) -> usize {
    steps[pc..]
        .iter()
        .position(|s| *s == Step::Barrier)
        .map_or(steps.len(), |i| pc + i)
}

/// The reduction of a schedule: the operator and its typed kernel
/// (`Op::apply::<T>`). Data-movement collectives have none, which is what
/// lets them run on any [`MpiType`].
pub(crate) type Reducer<T> = (Op, fn(Op, &mut [T], &[T]) -> MpiResult<()>);

fn combine<T>(reduce: Option<Reducer<T>>, inout: &mut [T], input: &[T]) {
    let (op, apply) = reduce.expect("reduce step in a data-movement schedule");
    apply(op, inout, input).expect("op validated at initiation");
}

/// One rank's working buffer.
pub(crate) struct Work<T> {
    /// `len` elements once it exists. A rank that contributes nothing (a
    /// bcast or scatter non-root) has no buffer until something lands.
    buf: Vec<T>,
    len: usize,
    /// The wire form of a range, from its last send until the buffer is
    /// next written: a fan-out serializes its range once.
    packed: Option<(Range<usize>, MpfaBytes)>,
}

impl<T: MpiType> Work<T> {
    /// The working buffer of `plan` holding `data` at `plan.at`, zero
    /// elsewhere.
    pub(crate) fn new(plan: &Plan, data: &[T]) -> Work<T> {
        let mut work = Work {
            buf: Vec::new(),
            len: plan.len,
            packed: None,
        };
        if data.len() == plan.len {
            work.buf = data.to_vec();
        } else if !data.is_empty() {
            work.buf()[plan.at..plan.at + data.len()].copy_from_slice(data);
        }
        work
    }

    fn buf(&mut self) -> &mut [T] {
        if self.buf.len() < self.len {
            let zero = T::read_from(&vec![0u8; T::SIZE]);
            self.buf.resize(self.len, zero);
        }
        &mut self.buf
    }

    /// The buffer, given up.
    pub(crate) fn take_buf(&mut self) -> Vec<T> {
        self.buf();
        std::mem::take(&mut self.buf)
    }

    /// The payload of a send of `src`.
    pub(crate) fn payload(&mut self, src: &Range<usize>) -> MpfaBytes {
        match &self.packed {
            Some((range, bytes)) if range == src => bytes.clone(),
            _ => {
                let bytes = MpfaBytes::from(to_bytes(&self.buf()[src.clone()]));
                self.packed = Some((src.clone(), bytes.clone()));
                bytes
            }
        }
    }

    /// Land one completed round: each receive takes the next payload of
    /// `landed` (in step order), local steps run in place.
    pub(crate) fn land_round(
        &mut self,
        round: &[Step],
        mut landed: impl Iterator<Item = Vec<u8>>,
        reduce: Option<Reducer<T>>,
    ) {
        self.packed = None;
        for step in round {
            match step {
                Step::Recv { dst, land, .. } => {
                    let bytes = landed.next().expect("one payload per receive");
                    match land {
                        // The whole buffer, and none yet: this is it.
                        Land::Copy if self.buf.is_empty() && dst.len() == self.len => {
                            self.buf = from_bytes(&bytes)
                        }
                        Land::Copy => read_into(&bytes, &mut self.buf()[dst.clone()]),
                        Land::Reduce => {
                            combine(reduce, &mut self.buf()[dst.clone()], &from_bytes(&bytes))
                        }
                    }
                }
                Step::Local { src, dst, land } => match land {
                    Land::Copy => self.buf().copy_within(src.clone(), dst.start),
                    Land::Reduce => {
                        let input = self.buf()[src.clone()].to_vec();
                        combine(reduce, &mut self.buf()[dst.clone()], &input);
                    }
                },
                Step::Send { .. } | Step::Barrier => {}
            }
        }
    }
}

const ROUND_BITS: u32 = 12;
const SEQ_BITS: u32 = 31 - ROUND_BITS;
/// Rounds one schedule may have: what the round field of a tag holds.
pub(crate) const MAX_ROUNDS: usize = 1 << ROUND_BITS;

/// Tag of round `round` of the collective with sequence number `seq`.
/// Collectives run on the dedicated collective context, so these never
/// meet user tags; `seq` wraps inside its field, so the tag stays
/// non-negative (never `ANY_TAG`) for the life of the communicator.
fn coll_tag(seq: u64, round: usize) -> i32 {
    debug_assert!(round < MAX_ROUNDS);
    (((seq & ((1 << SEQ_BITS) - 1)) as i32) << ROUND_BITS) | round as i32
}

/// Refuse a step list with more rounds than the tag field holds (ring
/// algorithms grow with the communicator), rather than alias tags.
pub(crate) fn check_rounds(steps: &[Step]) -> MpiResult<()> {
    let open = steps.last().is_some_and(|s| *s != Step::Barrier);
    let rounds = steps.iter().filter(|s| **s == Step::Barrier).count() + usize::from(open);
    if rounds > MAX_ROUNDS {
        return Err(MpiError::Protocol(format!(
            "collective schedule has {rounds} rounds, tags hold {MAX_ROUNDS}"
        )));
    }
    Ok(())
}

/// The verdict on a schedule stage's outstanding requests.
///
/// With fault tolerance enabled, a stage request can complete *in error*
/// (peer failure or revocation); a schedule gate must distinguish that
/// from success so it can abort — failing its collective's request —
/// instead of reading a receive slot that never filled.
pub(crate) enum StageCheck {
    /// Every request completed successfully.
    Ready,
    /// At least one request is still in flight (and none failed).
    Wait,
    /// A request completed in error: abort the schedule with this error.
    Failed(RequestError),
}

/// Check a stage's requests, dropping the ones that completed normally so
/// that each is examined once. An error wins over incompleteness: the
/// schedule can never make progress once any dependency has failed, so
/// abort eagerly rather than waiting out the stragglers.
pub(crate) fn check_stage(reqs: &mut Vec<Request>) -> StageCheck {
    let mut failed = None;
    reqs.retain(|r| {
        if !r.is_complete() {
            return true;
        }
        match r.error() {
            Some(err) => {
                failed.get_or_insert(err);
                true
            }
            None => false,
        }
    });
    match failed {
        Some(err) => StageCheck::Failed(err),
        None if reqs.is_empty() => StageCheck::Ready,
        None => StageCheck::Wait,
    }
}

/// The schedule interpreter: runs one rank's [`Plan`] to completion.
struct SchedTask<T: MpiType> {
    comm: Comm,
    seq: u64,
    steps: Vec<Step>,
    /// First step of the current round, and that round's index.
    pc: usize,
    round: usize,
    /// Whether the current round's messages are in flight in `reqs`;
    /// `slots` holds its receives' landing slots, in step order.
    issued: bool,
    reqs: Vec<Request>,
    slots: Vec<RecvSlot>,
    work: Work<T>,
    out: Range<usize>,
    reduce: Option<Reducer<T>>,
    output: CollOutput<T>,
    completer: Option<Completer>,
}

impl<T: MpiType> SchedTask<T> {
    fn issue(&mut self, end: usize) {
        let (ctx, tag) = (self.comm.coll_ctx(), coll_tag(self.seq, self.round));
        for step in &self.steps[self.pc..end] {
            match step {
                Step::Send { to, src } => {
                    let payload = self.work.payload(src);
                    let req = self.comm.isend_on_ctx(ctx, payload, *to as i32, tag);
                    self.reqs.push(req);
                }
                Step::Recv { from, dst, .. } => {
                    let (req, slot) =
                        self.comm
                            .irecv_on_ctx(ctx, dst.len() * T::SIZE, *from as i32, tag);
                    self.reqs.push(req);
                    self.slots.push(slot);
                }
                Step::Local { .. } | Step::Barrier => {}
            }
        }
        self.issued = true;
    }

    /// Complete the collective's request: with the result range of the
    /// buffer, or — a stage request failed (peer death, revocation) — with
    /// the error, so waiters unblock instead of reading a short buffer.
    fn finish(&mut self, result: Result<(), RequestError>) -> AsyncPoll {
        let completer = self.completer.take().expect("a schedule finishes once");
        match result {
            Ok(()) => {
                let mut buf = self.work.take_buf();
                buf.truncate(self.out.end);
                buf.drain(..self.out.start);
                self.output.deposit(buf);
                completer.complete(Status::empty());
            }
            Err(err) => completer.fail(err),
        }
        AsyncPoll::Done
    }
}

impl<T: MpiType> CollTask for SchedTask<T> {
    fn advance(&mut self) -> AsyncPoll {
        let mut progressed = false;
        loop {
            let end = round_end(&self.steps, self.pc);
            if !self.issued {
                if self.pc == self.steps.len() {
                    return self.finish(Ok(()));
                }
                self.issue(end);
                progressed = true;
            }
            match check_stage(&mut self.reqs) {
                StageCheck::Ready => {}
                StageCheck::Failed(err) => return self.finish(Err(err)),
                StageCheck::Wait if progressed => return AsyncPoll::Progress,
                StageCheck::Wait => return AsyncPoll::Pending,
            }
            let landed = self.slots.drain(..).map(|slot| slot.take());
            self.work
                .land_round(&self.steps[self.pc..end], landed, self.reduce);
            self.issued = false;
            self.pc = (end + 1).min(self.steps.len());
            self.round += 1;
            progressed = true;
        }
    }
}

impl Comm {
    /// Start a data-movement schedule on this rank's contribution `data`.
    pub(crate) fn start_sched<T: MpiType>(
        &self,
        plan: Plan,
        data: &[T],
    ) -> MpiResult<CollFuture<T>> {
        self.start(plan, data, None)
    }

    /// Start a reducing schedule; the op/type pairing (e.g. `Band` on
    /// floats) is refused here, before any message.
    pub(crate) fn start_reduce_sched<T: Reducible>(
        &self,
        plan: Plan,
        data: &[T],
        op: Op,
    ) -> MpiResult<CollFuture<T>> {
        op.apply::<T>(&mut [], &[])?;
        self.start(plan, data, Some((op, Op::apply::<T>)))
    }

    fn start<T: MpiType>(
        &self,
        plan: Plan,
        data: &[T],
        reduce: Option<Reducer<T>>,
    ) -> MpiResult<CollFuture<T>> {
        check_rounds(&plan.steps)?;
        // A revoked comm gets a born-failed future, so callers see the
        // error without a schedule ever touching the wire; peer failures
        // surface later, through the stage checks.
        let (req, completer) = match self.coll_fault() {
            Some(err) => (Request::failed(self.stream(), err), None),
            None => {
                let (req, completer) = Request::pair(self.stream());
                (req, Some(completer))
            }
        };
        let (fut, output) = CollFuture::pair(req);
        if completer.is_some() {
            // Collective calls are made by all ranks in the same order
            // (MPI semantics), so the per-rank counters agree.
            let seq = self.coll_seq.fetch_add(1, Ordering::AcqRel);
            let mut task = SchedTask {
                comm: self.clone(),
                seq,
                work: Work::new(&plan, data),
                steps: plan.steps,
                pc: 0,
                round: 0,
                issued: false,
                reqs: Vec::new(),
                slots: Vec::new(),
                out: plan.out,
                reduce,
                output,
                completer,
            };
            // Round 0 goes out in the initiating call, as a point-to-point
            // send does: a one-round collective (gather, scatter, alltoall)
            // is on the wire before the first sweep, and every other one
            // overlaps its first round with what the caller does next.
            if task.advance() != AsyncPoll::Done {
                self.bundle().sched.submit(Box::new(task));
            }
        }
        Ok(fut)
    }
}

/// A multi-stage collective state machine.
pub trait CollTask: Send {
    /// Advance if possible. Must be lightweight and must not block or
    /// recursively invoke progress; use `Request::is_complete` to check
    /// dependencies.
    fn advance(&mut self) -> AsyncPoll;
}

impl<F> CollTask for F
where
    F: FnMut() -> AsyncPoll + Send,
{
    fn advance(&mut self) -> AsyncPoll {
        self()
    }
}

/// The queue of active collective schedules for one VCI.
pub struct SchedQueue {
    tasks: Mutex<Vec<Box<dyn CollTask>>>,
    pending: AtomicUsize,
}

impl Default for SchedQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedQueue {
    /// An empty queue.
    pub fn new() -> SchedQueue {
        SchedQueue {
            tasks: Mutex::new(Vec::new()),
            pending: AtomicUsize::new(0),
        }
    }

    /// Shared handle.
    pub fn shared() -> Arc<SchedQueue> {
        Arc::new(SchedQueue::new())
    }

    /// Enqueue an active schedule.
    pub fn submit(&self, task: Box<dyn CollTask>) {
        self.pending.fetch_add(1, Ordering::Release);
        self.tasks.lock().push(task);
    }

    /// Active schedules (one atomic read — the hook's `has_work`).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Advance every active schedule once. Returns true if any schedule
    /// made progress or completed.
    pub fn poll(&self) -> bool {
        if self.pending() == 0 {
            return false;
        }
        let mut tasks = self.tasks.lock();
        let mut any = false;
        let mut finished = 0;
        let mut i = 0;
        while i < tasks.len() {
            match tasks[i].advance() {
                AsyncPoll::Done => {
                    tasks.swap_remove(i);
                    finished += 1;
                    any = true;
                }
                AsyncPoll::Progress => {
                    any = true;
                    i += 1;
                }
                AsyncPoll::Pending => i += 1,
            }
        }
        drop(tasks);
        if finished > 0 {
            self.pending.fetch_sub(finished, Ordering::Release);
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_stay_valid_and_distinct_across_seq_wrap() {
        let last_round = MAX_ROUNDS - 1;
        // A negative tag is a wildcard or reserved: no (seq, round) may
        // reach the sign bit, however far seq has counted.
        for seq in [
            0,
            1,
            0xFF_FFFF,
            (1 << SEQ_BITS) - 1,
            1 << SEQ_BITS,
            u64::MAX,
        ] {
            for round in [0, 255, 256, last_round] {
                assert!(coll_tag(seq, round) >= 0, "seq {seq:#x} round {round}");
            }
        }
        // A ring allreduce on 129 ranks has 256 rounds.
        assert_ne!(coll_tag(7, 0), coll_tag(7, 256));
        assert_ne!(coll_tag(7, last_round), coll_tag(8, 0));
        assert_eq!(coll_tag(7, last_round) + 1, coll_tag(8, 0));
        // seq wraps inside its field instead of spilling into the sign.
        assert_eq!(coll_tag(1 << SEQ_BITS, 3), coll_tag(0, 3));
        assert_eq!(coll_tag((1 << SEQ_BITS) - 1, last_round), i32::MAX);
    }

    #[test]
    fn a_step_list_with_more_rounds_than_tags_is_refused() {
        let full = vec![Step::Barrier; MAX_ROUNDS];
        assert!(check_rounds(&full).is_ok());
        let over = vec![Step::Barrier; MAX_ROUNDS + 1];
        assert!(matches!(check_rounds(&over), Err(MpiError::Protocol(_))));
        // Steps after the last barrier are one more round.
        let mut open = full;
        open.push(Step::send(1, 0..1));
        assert!(matches!(check_rounds(&open), Err(MpiError::Protocol(_))));
        open.remove(0);
        assert!(check_rounds(&open).is_ok());
    }

    #[test]
    fn landing_follows_step_order() {
        let sum: Reducer<i32> = (Op::Sum, Op::apply::<i32>);
        let mut work = Work::new(&Plan::in_place(Vec::new(), 4), &[1, 2, 0, 0]);
        let round = [
            Step::send(9, 0..2),
            Step::recv_reduce(9, 0..2),
            Step::Local {
                src: 0..2,
                dst: 2..4,
                land: Land::Copy,
            },
            Step::recv(9, 0..1),
            Step::Local {
                src: 0..2,
                dst: 2..4,
                land: Land::Reduce,
            },
        ];
        let landed = vec![to_bytes(&[10, 20]), to_bytes(&[5])];
        work.land_round(&round, landed.into_iter(), Some(sum));
        assert_eq!(work.take_buf(), vec![5, 22, 11 + 5, 22 + 22]);
    }

    #[test]
    fn a_range_is_packed_once_until_the_buffer_is_written() {
        let mut work = Work::new(&Plan::in_place(Vec::new(), 3), &[1u16, 2, 3]);
        let first = work.payload(&(0..2));
        assert_eq!(&first[..], &to_bytes(&[1u16, 2])[..]);
        assert_eq!(work.payload(&(0..2)).as_ptr(), first.as_ptr());
        let landed = vec![to_bytes(&[9u16])];
        work.land_round(&[Step::recv(7, 0..1)], landed.into_iter(), None);
        assert_eq!(&work.payload(&(0..2))[..], &to_bytes(&[9u16, 2])[..]);
    }

    #[test]
    fn a_rank_with_nothing_to_contribute_takes_its_buffer_from_the_receive() {
        let mut work = Work::<i64>::new(&Plan::in_place(Vec::new(), 2), &[]);
        assert!(work.buf.is_empty());
        let landed = vec![to_bytes(&[4i64, 5])];
        work.land_round(&[Step::recv(0, 0..2)], landed.into_iter(), None);
        assert_eq!(work.take_buf(), [4, 5]);
        // A receive of a part lands in a zeroed buffer.
        let mut work = Work::<i64>::new(&Plan::in_place(Vec::new(), 2), &[]);
        let landed = vec![to_bytes(&[6i64])];
        work.land_round(&[Step::recv(0, 1..2)], landed.into_iter(), None);
        assert_eq!(work.take_buf(), [0, 6]);
    }

    #[test]
    fn the_working_buffer_places_the_contribution() {
        let plan = Plan {
            steps: Vec::new(),
            len: 5,
            at: 2,
            out: 0..5,
        };
        assert_eq!(Work::new(&plan, &[7u8, 8]).take_buf(), [0, 0, 7, 8, 0]);
        let whole = Plan::in_place(Vec::new(), 2);
        assert_eq!(Work::new(&whole, &[1.5f64, 2.5]).take_buf(), [1.5, 2.5]);
        // Nothing contributed, nothing landed: still `len` elements.
        assert_eq!(Work::<i32>::new(&whole, &[]).take_buf(), [0, 0]);
    }

    #[test]
    fn empty_queue_idle() {
        let q = SchedQueue::new();
        assert!(!q.poll());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn stages_advance_then_complete() {
        let q = SchedQueue::new();
        let mut stage = 0;
        q.submit(Box::new(move || {
            stage += 1;
            match stage {
                1 => AsyncPoll::Progress,
                2 => AsyncPoll::Pending,
                _ => AsyncPoll::Done,
            }
        }));
        assert!(q.poll()); // Progress
        assert!(!q.poll()); // Pending: no progress
        assert!(q.poll()); // Done
        assert_eq!(q.pending(), 0);
        assert!(!q.poll());
    }

    #[test]
    fn multiple_schedules_interleave() {
        let q = SchedQueue::new();
        let done = Arc::new(AtomicUsize::new(0));
        for rounds in 1..=3 {
            let d = done.clone();
            let mut left = rounds;
            q.submit(Box::new(move || {
                left -= 1;
                if left == 0 {
                    d.fetch_add(1, Ordering::Relaxed);
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Progress
                }
            }));
        }
        let mut sweeps = 0;
        while q.pending() > 0 {
            q.poll();
            sweeps += 1;
            assert!(sweeps <= 3);
        }
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
