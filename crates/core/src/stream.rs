//! `MPIX_Stream`: an explicit serial execution context owning a progress
//! engine (paper Sections 3.1–3.2).
//!
//! All operations attached to a stream are serialized by the stream's engine
//! lock; distinct streams share nothing, so threads driving different
//! streams never contend (the fix for the paper's Figure 9 contention,
//! demonstrated flat in Figure 11).
//!
//! [`Stream::global`] plays the role of `MPIX_STREAM_NULL` for purely local
//! (non-MPI) use; a message-passing runtime such as `mpfa-mpi` gives each
//! rank its own default stream instead, since in-process ranks model what
//! would be separate OS processes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use crate::sync::InjectQueue;
use crate::sync::Mutex;

use crate::engine::{Engine, ProgressOutcome, ProgressState};
use crate::hook::{HookId, ProgressHook, SubsystemClass};
use crate::task::{AsyncTask, TaskId};
use crate::wtime::wtime;

/// Process-unique stream identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u64);

impl StreamId {
    /// Raw numeric value (stable for the life of the process).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Creation-time hints for a stream — the `MPI_Info` argument of
/// `MPIX_Stream_create`, reduced to the knobs this engine understands.
#[derive(Debug, Clone, Default)]
pub struct StreamHints {
    name: Option<String>,
    skip_mask: u8,
}

impl StreamHints {
    /// No hints: poll every subsystem class.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a diagnostic name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Permanently skip a subsystem class on this stream (e.g. skip
    /// [`SubsystemClass::Netmod`] for a stream that never touches
    /// inter-node communication — the paper's Section 3.2 example).
    #[must_use]
    pub fn skip(mut self, class: SubsystemClass) -> Self {
        self.skip_mask |= class.bit();
        self
    }

    fn to_state(&self) -> ProgressState {
        let mut st = ProgressState::default();
        for c in SubsystemClass::ALL {
            if self.skip_mask & c.bit() != 0 {
                st = st.skip(c);
            }
        }
        st
    }
}

pub(crate) struct StreamInner {
    id: StreamId,
    name: Option<String>,
    base_state: ProgressState,
    engine: Mutex<Engine>,
    /// Lock-free injection queue so `async_start` never blocks behind a
    /// progress call in flight on another thread.
    inject: InjectQueue<Box<dyn AsyncTask>>,
    /// Pending user tasks: queued + in-engine (not yet Done/poisoned).
    pending: AtomicUsize,
    /// Total progress invocations (diagnostics).
    progress_calls: AtomicU64,
    /// Ids for injected tasks (assigned before they reach the engine).
    next_injected: AtomicU64,
    /// Contended [`Stream::progress`] callers currently waiting for the
    /// lock holder to sweep on their behalf (flat combining).
    waiters: AtomicUsize,
    /// Count of completed sweeps, published after each one. A waiter that
    /// registered at epoch `e` is satisfied once it observes `e + 2`: the
    /// sweep that published `e + 2` *started* after `e + 1` was published,
    /// which in turn is after the waiter's registration — so one full
    /// drain + poll ran after everything the waiter did beforehand.
    sweep_epoch: AtomicU64,
    /// Packed [`ProgressOutcome`] of the most recent completed sweep (see
    /// [`pack_outcome`]); what a combined waiter reports to its caller.
    last_sweep: AtomicU64,
    /// Continuations of completed requests awaiting execution — the
    /// deferred-execution list of `MPIX_Continue`. Filled at request
    /// completion (which happens under the engine lock, inside a sweep),
    /// drained by every progress caller *after* releasing the lock, so a
    /// continuation observes the stream unlocked and may post operations,
    /// attach further continuations, or wait.
    ready_conts: InjectQueue<Box<dyn FnOnce() + Send>>,
    /// Queued-but-unexecuted continuations (diagnostics + drain gating).
    conts_pending: AtomicUsize,
}

/// An explicit progress stream — `MPIX_Stream`.
///
/// Cheap to clone (`Arc` handle). Dropping the last handle frees the stream
/// (`MPIX_Stream_free`); hooks and tasks still registered are dropped with
/// it.
#[derive(Clone)]
pub struct Stream {
    inner: Arc<StreamInner>,
}

/// A non-owning stream reference, used by requests to drive progress
/// without creating reference cycles.
#[derive(Clone)]
pub struct StreamRef {
    pub(crate) inner: Weak<StreamInner>,
}

impl StreamRef {
    /// Upgrade to a full handle if the stream is still alive.
    pub fn upgrade(&self) -> Option<Stream> {
        self.inner.upgrade().map(|inner| Stream { inner })
    }
}

fn next_stream_id() -> StreamId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    StreamId(NEXT.fetch_add(1, Ordering::Relaxed))
}

impl Stream {
    /// Create a stream with default hints — `MPIX_Stream_create(MPI_INFO_NULL, ..)`.
    pub fn create() -> Stream {
        Self::with_hints(StreamHints::new())
    }

    /// Create a stream with hints — `MPIX_Stream_create(info, ..)`.
    pub fn with_hints(hints: StreamHints) -> Stream {
        Stream {
            inner: Arc::new(StreamInner {
                id: next_stream_id(),
                base_state: hints.to_state(),
                name: hints.name,
                engine: Mutex::new(Engine::new()),
                inject: InjectQueue::new(),
                pending: AtomicUsize::new(0),
                progress_calls: AtomicU64::new(0),
                next_injected: AtomicU64::new(1 << 32),
                waiters: AtomicUsize::new(0),
                sweep_epoch: AtomicU64::new(0),
                last_sweep: AtomicU64::new(0),
                ready_conts: InjectQueue::new(),
                conts_pending: AtomicUsize::new(0),
            }),
        }
    }

    /// The process-global default stream — `MPIX_STREAM_NULL` for code that
    /// is not bound to a message-passing rank context.
    pub fn global() -> Stream {
        static GLOBAL: OnceLock<Stream> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Stream::with_hints(StreamHints::new().name("global")))
            .clone()
    }

    /// This stream's id.
    pub fn id(&self) -> StreamId {
        self.inner.id
    }

    /// Diagnostic name, if any.
    pub fn name(&self) -> Option<&str> {
        self.inner.name.as_deref()
    }

    /// A weak reference for storing inside requests/hooks without keeping
    /// the stream alive.
    pub(crate) fn weak(&self) -> StreamRef {
        StreamRef {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Register a subsystem progress hook. Returns an id usable with
    /// [`Stream::unregister_hook`].
    pub fn register_hook(&self, hook: impl ProgressHook + 'static) -> HookId {
        self.register_boxed_hook(Box::new(hook))
    }

    /// Register a boxed subsystem progress hook.
    pub(crate) fn register_boxed_hook(&self, hook: Box<dyn ProgressHook>) -> HookId {
        mpfa_obs::record(|| mpfa_obs::EventKind::HookRegistered {
            stream: self.inner.id.0,
            class: hook.class() as u8,
            name: mpfa_obs::NameId::intern(hook.name()),
        });
        self.inner.engine.lock().register_hook(hook)
    }

    /// Remove a previously registered hook. Returns false if unknown.
    pub fn unregister_hook(&self, id: HookId) -> bool {
        self.inner.engine.lock().unregister_hook(id)
    }

    /// Number of registered subsystem hooks.
    pub fn hook_count(&self) -> usize {
        self.inner.engine.lock().hook_count()
    }

    /// Install (or with `None`, remove) a deterministic-simulation hook
    /// deciding the order user async tasks are polled each sweep. See
    /// [`crate::engine::SweepOrder`]; production streams leave this unset
    /// and poll in registration order.
    pub fn set_sweep_order(&self, hook: Option<std::sync::Arc<dyn crate::engine::SweepOrder>>) {
        self.inner.engine.lock().set_sweep_order(hook)
    }

    /// Start a user async task on this stream — `MPIX_Async_start`.
    ///
    /// Never blocks behind an in-flight progress call: the task is pushed to
    /// a lock-free injection queue and spliced into the engine at the start
    /// of the next progress call.
    pub fn async_start<F>(&self, poll: F) -> TaskId
    where
        F: FnMut(&mut crate::task::AsyncThing) -> crate::task::AsyncPoll + Send + 'static,
    {
        self.async_start_task(poll)
    }

    /// [`Stream::async_start`] for non-closure [`AsyncTask`] values.
    pub fn async_start_task(&self, task: impl AsyncTask + 'static) -> TaskId {
        let id = TaskId(self.inner.next_injected.fetch_add(1, Ordering::Relaxed));
        self.inner.pending.fetch_add(1, Ordering::Release);
        // Recorded at injection (not at the drain inside a progress call)
        // so a task started on a never-polled stream is still visible to
        // the doctor's no-poller check.
        mpfa_obs::record(|| mpfa_obs::EventKind::TaskStart {
            stream: self.inner.id.0,
            task: id.0,
        });
        self.inner.inject.push(Box::new(task));
        id
    }

    /// Number of user tasks not yet completed (queued + live).
    pub fn pending_tasks(&self) -> usize {
        self.inner.pending.load(Ordering::Acquire)
    }

    /// Total progress invocations so far (diagnostics).
    pub fn progress_calls(&self) -> u64 {
        self.inner.progress_calls.load(Ordering::Relaxed)
    }

    /// Total user tasks discarded because their poll panicked.
    pub fn poisoned_tasks(&self) -> u64 {
        self.inner.engine.lock().poisoned_total()
    }

    /// Snapshot of the stream's cumulative progress counters.
    pub fn stats(&self) -> crate::engine::EngineStats {
        self.inner.engine.lock().stats()
    }

    /// Drive one collated progress sweep — `MPIX_Stream_progress(stream)`.
    ///
    /// Contention is turned into useful work instead of a lock convoy
    /// (flat combining): a caller that finds the engine lock held registers
    /// as a waiter and spins briefly, while the lock holder re-sweeps on
    /// behalf of registered waiters before releasing. The combined caller
    /// returns the outcome of a sweep that fully ran after it arrived. If
    /// the holder releases first, the spinning caller takes the lock
    /// itself; after a bounded spin it falls back to a blocking sweep, so
    /// the progress guarantee is unchanged.
    pub fn progress(&self) -> ProgressOutcome {
        let out = self.progress_inner();
        self.run_ready_continuations();
        out
    }

    /// The sweep itself; every return path has the [`ReentryGuard`] and the
    /// engine lock released, so the caller can drain continuations.
    fn progress_inner(&self) -> ProgressOutcome {
        let _reentry = ReentryGuard::enter(self.inner.id);
        if let Some(mut engine) = self.inner.engine.try_lock() {
            return self.sweep_holding(&mut engine, &self.inner.base_state.clone());
        }
        mpfa_obs::global_counters()
            .engine_lock_contended
            .fetch_add(1, Ordering::Relaxed);

        // Register, then read the epoch: the sweep that publishes
        // `target` is guaranteed to have started after this point.
        self.inner.waiters.fetch_add(1, Ordering::SeqCst);
        let target = self.inner.sweep_epoch.load(Ordering::Acquire) + 2;
        let mut spins = 0u32;
        loop {
            // The holder may release before serving us — take over.
            if let Some(mut engine) = self.inner.engine.try_lock() {
                self.inner.waiters.fetch_sub(1, Ordering::SeqCst);
                return self.sweep_holding(&mut engine, &self.inner.base_state.clone());
            }
            if self.inner.sweep_epoch.load(Ordering::Acquire) >= target {
                self.inner.waiters.fetch_sub(1, Ordering::SeqCst);
                mpfa_obs::global_counters()
                    .combining_handoffs
                    .fetch_add(1, Ordering::Relaxed);
                return unpack_outcome(self.inner.last_sweep.load(Ordering::Acquire));
            }
            spins += 1;
            if spins > COMBINING_SPIN_LIMIT {
                // Holder is wedged in a long sweep (or past its combining
                // budget): fall back to the blocking path.
                self.inner.waiters.fetch_sub(1, Ordering::SeqCst);
                let mut engine = self.inner.engine.lock();
                return self.sweep_holding(&mut engine, &self.inner.base_state.clone());
            }
            // Single-core friendly: let the holder run.
            std::thread::yield_now();
        }
    }

    /// Progress with an explicit per-call [`ProgressState`]. The stream's
    /// creation hints are still honored (a class skipped by hints stays
    /// skipped). Blocks on the engine lock if another thread is
    /// mid-progress (the pre-combining fallback semantics).
    ///
    /// # Panics
    ///
    /// Panics if called recursively from inside this stream's own progress
    /// (i.e. from a hook or a task's `poll`). The paper prohibits recursive
    /// progress ("invoking progress recursively inside the poll_fn is
    /// prohibited"); without this check the engine lock would deadlock.
    /// Use [`crate::Request::is_complete`] inside polls instead.
    pub fn progress_with(&self, state: &ProgressState) -> ProgressOutcome {
        let merged = merge_states(&self.inner.base_state, state);
        let out = {
            let _reentry = ReentryGuard::enter(self.inner.id);
            let mut engine = self.inner.engine.lock();
            self.sweep_holding(&mut engine, &merged)
        };
        self.run_ready_continuations();
        out
    }

    /// One sweep with the engine lock held, plus the flat-combining
    /// service loop: while contended `progress` callers are registered,
    /// re-sweep on their behalf (bounded) before releasing the lock.
    /// Extra sweeps use the stream's base state — that is what the
    /// combined callers asked for.
    fn sweep_holding(&self, engine: &mut Engine, state: &ProgressState) -> ProgressOutcome {
        self.inner.progress_calls.fetch_add(1, Ordering::Relaxed);
        self.drain_inject(engine);
        let out = engine.poll(state, self.inner.id);
        self.settle_pending(&out);
        self.publish_sweep(&out);
        let mut served = 0u32;
        while served < COMBINING_MAX_RESWEEPS && self.inner.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.progress_calls.fetch_add(1, Ordering::Relaxed);
            self.drain_inject(engine);
            let extra = engine.poll(&self.inner.base_state.clone(), self.inner.id);
            self.settle_pending(&extra);
            self.publish_sweep(&extra);
            served += 1;
        }
        out
    }

    /// Publish a completed sweep: outcome first, then the epoch bump that
    /// waiters gate on.
    fn publish_sweep(&self, out: &ProgressOutcome) {
        self.inner
            .last_sweep
            .store(pack_outcome(out), Ordering::Release);
        self.inner.sweep_epoch.fetch_add(1, Ordering::Release);
    }

    /// Reconcile the lock-free pending counter with a sweep's outcome.
    /// Spawned children are added before finished tasks are subtracted so
    /// the counter never transiently underflows.
    fn settle_pending(&self, out: &ProgressOutcome) {
        if out.tasks_spawned > 0 {
            self.inner
                .pending
                .fetch_add(out.tasks_spawned, Ordering::Release);
        }
        let finished = out.tasks_completed + out.tasks_poisoned;
        if finished > 0 {
            self.inner.pending.fetch_sub(finished, Ordering::Release);
        }
    }

    /// Like [`Stream::progress`] but returns `None` immediately when
    /// another thread holds the engine (no spinning, no combining wait).
    pub fn try_progress(&self) -> Option<ProgressOutcome> {
        let out = {
            let _reentry = ReentryGuard::enter(self.inner.id);
            let Some(mut engine) = self.inner.engine.try_lock() else {
                mpfa_obs::global_counters()
                    .engine_lock_contended
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            };
            self.sweep_holding(&mut engine, &self.inner.base_state.clone())
        };
        self.run_ready_continuations();
        Some(out)
    }

    fn drain_inject(&self, engine: &mut Engine) {
        while let Some(task) = self.inner.inject.pop() {
            engine.add_task(task);
        }
    }

    /// Queue a completed request's continuation for deferred execution.
    /// Lock-free push: completion happens inside a sweep, with the engine
    /// lock held, and must never block there.
    pub(crate) fn enqueue_continuation(&self, cb: Box<dyn FnOnce() + Send>) {
        self.inner.conts_pending.fetch_add(1, Ordering::Release);
        self.inner.ready_conts.push(cb);
    }

    /// Continuations queued but not yet executed (a nonzero value that
    /// never drains means nobody is progressing this stream — the
    /// doctor's "completed request with unfired continuation" pathology).
    pub(crate) fn pending_continuations(&self) -> usize {
        self.inner.conts_pending.load(Ordering::Acquire)
    }

    /// Run every queued continuation. Called with no locks held: a
    /// continuation may post operations, attach further continuations
    /// (which land back on this queue and run in the same loop if their
    /// request is already complete), or even progress this stream
    /// recursively — the pop-based loop makes each callback run exactly
    /// once regardless of nesting.
    fn run_ready_continuations(&self) {
        while let Some(cb) = self.inner.ready_conts.pop() {
            // Account before running so a panicking callback (which
            // propagates to the progress caller) can't wedge the pending
            // count that `drain` gates on.
            self.inner.conts_pending.fetch_sub(1, Ordering::Release);
            mpfa_obs::global_counters()
                .continuations_fired
                .fetch_add(1, Ordering::Relaxed);
            cb();
        }
    }

    /// Spin progress until no user tasks remain or `timeout_s` elapses.
    /// Returns true if drained. This is the `MPI_Finalize` behavior of the
    /// paper's Listing 1.2 ("MPI_Finalize will spin progress until all async
    /// tasks complete"), with a safety timeout.
    pub fn drain(&self, timeout_s: f64) -> bool {
        let deadline = wtime() + timeout_s;
        while self.pending_tasks() > 0 || self.pending_continuations() > 0 {
            self.progress();
            if wtime() >= deadline {
                return self.pending_tasks() == 0 && self.pending_continuations() == 0;
            }
        }
        true
    }

    /// Spin progress until `cond()` holds or `timeout_s` elapses. Returns
    /// true if the condition was observed. This is the explicit wait block
    /// of Listing 1.3 (`while (counter > 0) MPIX_Stream_progress(...)`).
    pub fn progress_until(&self, mut cond: impl FnMut() -> bool, timeout_s: f64) -> bool {
        let deadline = wtime() + timeout_s;
        let mut idle = 0u32;
        loop {
            if cond() {
                return true;
            }
            if wtime() >= deadline {
                return cond();
            }
            if self.progress().made_progress() {
                idle = 0;
            } else {
                idle = idle.saturating_add(1);
                crate::spin::idle_backoff(idle);
            }
        }
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("pending_tasks", &self.pending_tasks())
            .finish()
    }
}

/// Detects recursive progress on the same stream from the same thread and
/// converts the would-be deadlock into a panic (caught by the task sweep's
/// panic isolation, so an offending task is poisoned rather than hanging the
/// process).
struct ReentryGuard {
    id: StreamId,
}

thread_local! {
    static IN_PROGRESS: std::cell::RefCell<Vec<StreamId>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl ReentryGuard {
    fn enter(id: StreamId) -> ReentryGuard {
        IN_PROGRESS.with(|v| {
            let mut v = v.borrow_mut();
            assert!(
                !v.contains(&id),
                "recursive MPIX progress on stream {id:?} — progress must not \
                 be invoked from inside a progress hook or async task poll"
            );
            v.push(id);
        });
        ReentryGuard { id }
    }
}

impl Drop for ReentryGuard {
    fn drop(&mut self) {
        IN_PROGRESS.with(|v| {
            let mut v = v.borrow_mut();
            if let Some(pos) = v.iter().rposition(|s| *s == self.id) {
                v.remove(pos);
            }
        });
    }
}

/// Yields a contended `progress` caller performs before abandoning the
/// combining wait for a blocking lock. Generous: two sweeps normally
/// complete within a few yields, and the fallback only exists so a caller
/// can never be starved by a holder stuck inside a pathological hook.
const COMBINING_SPIN_LIMIT: u32 = 10_000;

/// Upper bound on extra sweeps a lock holder runs on behalf of waiters
/// before releasing, so one holder cannot be captured indefinitely by a
/// steady stream of contended callers.
const COMBINING_MAX_RESWEEPS: u32 = 4;

/// Pack the fields of a [`ProgressOutcome`] a combined waiter cares about
/// into one atomic word: bit 0 = subsystem progress, then three 21-bit
/// saturating task counts. `tasks_spawned` is deliberately dropped — the
/// holder already settled the pending counter for its own sweep.
fn pack_outcome(out: &ProgressOutcome) -> u64 {
    const MASK: u64 = (1 << 21) - 1;
    let completed = (out.tasks_completed as u64).min(MASK);
    let progressed = (out.tasks_progressed as u64).min(MASK);
    let poisoned = (out.tasks_poisoned as u64).min(MASK);
    (out.subsystem_progress as u64) | completed << 1 | progressed << 22 | poisoned << 43
}

fn unpack_outcome(packed: u64) -> ProgressOutcome {
    const MASK: u64 = (1 << 21) - 1;
    ProgressOutcome {
        subsystem_progress: packed & 1 != 0,
        tasks_completed: (packed >> 1 & MASK) as usize,
        tasks_progressed: (packed >> 22 & MASK) as usize,
        tasks_poisoned: (packed >> 43 & MASK) as usize,
        tasks_spawned: 0,
    }
}

fn merge_states(base: &ProgressState, call: &ProgressState) -> ProgressState {
    let mut merged = *call;
    for c in SubsystemClass::ALL {
        if base.skips(c) {
            merged = merged.skip(c);
        }
    }
    if !base.polls_tasks() {
        merged = merged.without_tasks();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AsyncPoll, AsyncThing};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn streams_have_unique_ids() {
        let a = Stream::create();
        let b = Stream::create();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn global_stream_is_singleton() {
        assert_eq!(Stream::global().id(), Stream::global().id());
    }

    #[test]
    fn clone_shares_state() {
        let a = Stream::create();
        let b = a.clone();
        a.async_start(|_t: &mut AsyncThing| AsyncPoll::Done);
        assert_eq!(b.pending_tasks(), 1);
        b.progress();
        assert_eq!(a.pending_tasks(), 0);
    }

    #[test]
    fn async_start_then_progress_completes() {
        let s = Stream::create();
        let deadline = wtime() + 0.001;
        s.async_start(move |_t: &mut AsyncThing| {
            if wtime() >= deadline {
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        assert_eq!(s.pending_tasks(), 1);
        assert!(s.drain(1.0));
        assert_eq!(s.pending_tasks(), 0);
        assert!(s.progress_calls() > 0);
    }

    #[test]
    fn progress_until_condition() {
        let s = Stream::create();
        let flag = Arc::new(AtomicBool::new(false));
        let f = flag.clone();
        let mut polls = 0;
        s.async_start(move |_t: &mut AsyncThing| {
            polls += 1;
            if polls >= 5 {
                f.store(true, Ordering::Release);
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        assert!(s.progress_until(|| flag.load(Ordering::Acquire), 1.0));
    }

    #[test]
    fn progress_until_times_out() {
        let s = Stream::create();
        assert!(!s.progress_until(|| false, 0.01));
    }

    #[test]
    fn hints_skip_subsystem_permanently() {
        use crate::hook::ProgressHook;
        struct Netmod(Arc<AtomicUsize>);
        impl ProgressHook for Netmod {
            fn name(&self) -> &str {
                "netmod"
            }
            fn class(&self) -> SubsystemClass {
                SubsystemClass::Netmod
            }
            fn poll(&self) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
        let polls = Arc::new(AtomicUsize::new(0));
        let s = Stream::with_hints(StreamHints::new().skip(SubsystemClass::Netmod));
        s.register_hook(Netmod(polls.clone()));
        s.progress();
        assert_eq!(polls.load(Ordering::Relaxed), 0);
        // An explicit per-call state cannot un-skip a hinted class.
        s.progress_with(&ProgressState::all());
        assert_eq!(polls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn try_progress_skips_when_contended() {
        let s = Stream::create();
        let guard = s.inner.engine.lock();
        assert!(s.try_progress().is_none());
        drop(guard);
        assert!(s.try_progress().is_some());
    }

    #[test]
    fn pending_count_tracks_spawned_children() {
        let s = Stream::create();
        s.async_start(|t: &mut AsyncThing| {
            t.spawn(|_t: &mut AsyncThing| AsyncPoll::Done);
            AsyncPoll::Done
        });
        assert_eq!(s.pending_tasks(), 1);
        s.progress(); // parent done (-1), child spawned (+1)
        assert_eq!(s.pending_tasks(), 1);
        assert!(s.drain(1.0));
        assert_eq!(s.pending_tasks(), 0);
    }

    #[test]
    fn weak_upgrade_while_alive_only() {
        let s = Stream::create();
        let w = s.weak();
        assert!(w.upgrade().is_some());
        drop(s);
        assert!(w.upgrade().is_none());
    }

    #[test]
    fn poisoned_task_counted() {
        let s = Stream::create();
        s.async_start(|_t: &mut AsyncThing| -> AsyncPoll { panic!("boom") });
        s.progress();
        assert_eq!(s.poisoned_tasks(), 1);
        assert_eq!(s.pending_tasks(), 0);
    }

    #[test]
    fn concurrent_progress_on_one_stream_is_safe() {
        let s = Stream::create();
        let n = 64;
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..n {
            let d = done.clone();
            let deadline = wtime() + 0.002;
            s.async_start(move |_t: &mut AsyncThing| {
                if wtime() >= deadline {
                    d.fetch_add(1, Ordering::Relaxed);
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Pending
                }
            });
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    while s.pending_tasks() > 0 {
                        s.progress();
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), n);
    }

    #[test]
    fn concurrent_streams_are_independent() {
        let streams: Vec<Stream> = (0..4).map(|_| Stream::create()).collect();
        std::thread::scope(|scope| {
            for s in &streams {
                let s = s.clone();
                scope.spawn(move || {
                    let deadline = wtime() + 0.002;
                    s.async_start(move |_t: &mut AsyncThing| {
                        if wtime() >= deadline {
                            AsyncPoll::Done
                        } else {
                            AsyncPoll::Pending
                        }
                    });
                    assert!(s.drain(1.0));
                });
            }
        });
        for s in &streams {
            assert_eq!(s.pending_tasks(), 0);
        }
    }

    #[test]
    fn recursive_progress_is_poisoned_not_deadlocked() {
        let s = Stream::create();
        let s2 = s.clone();
        s.async_start(move |_t: &mut AsyncThing| {
            // Prohibited: progress from inside a poll. Must panic (and be
            // isolated as a poisoned task), not deadlock.
            s2.progress();
            AsyncPoll::Done
        });
        s.progress();
        assert_eq!(s.poisoned_tasks(), 1);
        // Stream still usable afterwards.
        s.async_start(|_t: &mut AsyncThing| AsyncPoll::Done);
        assert!(s.drain(1.0));
    }

    #[test]
    fn nested_progress_on_different_streams_is_allowed() {
        let a = Stream::create();
        let b = Stream::create();
        let b2 = b.clone();
        let done = Arc::new(AtomicBool::new(false));
        let d = done.clone();
        b.async_start(move |_t: &mut AsyncThing| {
            d.store(true, Ordering::Release);
            AsyncPoll::Done
        });
        a.async_start(move |_t: &mut AsyncThing| {
            // Progressing a *different* stream from a poll is legal (if
            // inadvisable for latency).
            b2.progress();
            AsyncPoll::Done
        });
        a.progress();
        assert_eq!(a.poisoned_tasks(), 0);
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn injection_while_progressing_is_lock_free() {
        // async_start from thread B while thread A spins progress must not
        // deadlock and the task must eventually run.
        let s = Stream::create();
        let started = Arc::new(AtomicBool::new(false));
        let st = started.clone();
        std::thread::scope(|scope| {
            let s2 = s.clone();
            scope.spawn(move || {
                while !st.load(Ordering::Acquire) {
                    s2.progress();
                }
                // Finish off remaining tasks.
                assert!(s2.drain(1.0));
            });
            let flag = started.clone();
            s.async_start(move |_t: &mut AsyncThing| {
                flag.store(true, Ordering::Release);
                AsyncPoll::Done
            });
        });
        assert_eq!(s.pending_tasks(), 0);
    }
}
