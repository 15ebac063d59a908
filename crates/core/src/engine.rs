//! The collated progress engine (the paper's Listing 1.1, generalized).
//!
//! One [`Engine`] lives behind each stream's lock. It holds the runtime's
//! subsystem hooks (ordered by [`SubsystemClass`]) and the user's
//! `MPIX_Async` tasks. A single [`Engine::poll`]:
//!
//! 1. polls subsystem hooks in class order, **short-circuiting the rest of
//!    the subsystems at the first one that reports progress** — MPICH's
//!    `if (made_progress) goto fn_exit;` policy;
//! 2. then polls every user async task exactly once (the user extension of
//!    the engine; its poll is how the application observes completions, so
//!    it is never skipped), honoring deferred spawns and isolating panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::hook::{HookId, ProgressHook, SubsystemClass};
use crate::stream::StreamId;
use crate::task::{AsyncPoll, AsyncTask, AsyncThing, TaskId};

/// Decides the order user async tasks are polled within one progress
/// sweep — the deterministic-simulation scheduling hook.
///
/// MPI leaves the poll order of concurrently pending `MPIX_Async` tasks
/// unspecified, so a correct program must tolerate *any* order. A
/// deterministic-simulation harness installs one of these (via
/// [`crate::Stream::set_sweep_order`]) to make the order a pure function
/// of its seed and to deliberately explore adversarial orders.
///
/// `n` is the number of tasks pending at the start of the sweep and
/// `sweep` a per-engine sweep sequence number. The returned vector must
/// be a permutation of `0..n`; anything else is ignored and the engine
/// falls back to registration order. Subsystem hooks are *not*
/// permutable — their class order is the Listing-1.1 contract.
pub trait SweepOrder: Send + Sync {
    /// Produce the poll order for one sweep.
    fn order(&self, stream: StreamId, sweep: u64, n: usize) -> Vec<usize>;
}

/// True when `perm` is a permutation of `0..n`.
fn valid_perm(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &i in perm {
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// Per-call tuning of a progress invocation — MPICH's
/// `MPID_Progress_state`, surfaced.
///
/// The paper (Section 3.2) notes that stream hints may "skip Netmod progress
/// if the subsystem does not depend on inter-node communication"; a
/// `ProgressState` is how a caller (or a stream's hints) expresses such
/// skips for one call.
#[derive(Debug, Clone, Copy)]
pub struct ProgressState {
    skip_mask: u8,
    poll_tasks: bool,
}

impl Default for ProgressState {
    fn default() -> Self {
        ProgressState {
            skip_mask: 0,
            poll_tasks: true,
        }
    }
}

impl ProgressState {
    /// Poll everything (all subsystems + user tasks).
    pub fn all() -> Self {
        Self::default()
    }

    /// Skip one subsystem class.
    #[must_use]
    pub fn skip(mut self, class: SubsystemClass) -> Self {
        self.skip_mask |= class.bit();
        self
    }

    /// Poll *only* the given subsystem classes (user tasks still polled).
    #[must_use]
    pub fn only(classes: &[SubsystemClass]) -> Self {
        let mut mask = 0u8;
        for c in SubsystemClass::ALL {
            mask |= c.bit();
        }
        for c in classes {
            mask &= !c.bit();
        }
        ProgressState {
            skip_mask: mask,
            poll_tasks: true,
        }
    }

    /// Do not poll user async tasks on this call.
    #[must_use]
    pub(crate) fn without_tasks(mut self) -> Self {
        self.poll_tasks = false;
        self
    }

    /// Whether `class` is skipped by this state.
    #[inline]
    pub fn skips(&self, class: SubsystemClass) -> bool {
        self.skip_mask & class.bit() != 0
    }

    /// Whether user tasks are polled by this state.
    #[inline]
    pub(crate) fn polls_tasks(&self) -> bool {
        self.poll_tasks
    }
}

/// What one progress call accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressOutcome {
    /// A subsystem hook reported progress.
    pub subsystem_progress: bool,
    /// Number of user async tasks that returned [`AsyncPoll::Done`].
    pub tasks_completed: usize,
    /// Number of user async tasks that returned [`AsyncPoll::Progress`].
    pub tasks_progressed: usize,
    /// Number of user async tasks whose poll panicked and were discarded.
    pub tasks_poisoned: usize,
    /// Number of new tasks spawned via [`crate::AsyncThing::spawn`] during
    /// this sweep.
    pub tasks_spawned: usize,
}

impl ProgressOutcome {
    /// True if anything at all advanced.
    pub fn made_progress(&self) -> bool {
        self.subsystem_progress || self.tasks_completed > 0 || self.tasks_progressed > 0
    }
}

struct HookEntry {
    id: HookId,
    class: SubsystemClass,
    seq: u64,
    /// Interned hook name for event records (interning happens once at
    /// registration, never on the poll path).
    name: mpfa_obs::NameId,
    hook: Box<dyn ProgressHook>,
}

struct TaskEntry {
    id: TaskId,
    task: Box<dyn AsyncTask>,
}

/// Cumulative per-stream progress counters (diagnostics; see
/// [`crate::Stream::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Subsystem hook `poll` invocations, by [`SubsystemClass`] index.
    pub hook_polls: [u64; SubsystemClass::COUNT],
    /// Hook polls that reported progress, by class index.
    pub hook_progress: [u64; SubsystemClass::COUNT],
    /// Hook polls suppressed by a `has_work() == false` fast path.
    pub hook_idle_skips: u64,
    /// Hook polls skipped by the made-progress short-circuit.
    pub hook_short_circuits: u64,
    /// User task `poll` invocations.
    pub task_polls: u64,
    /// User tasks completed.
    pub task_completions: u64,
}

/// The collated progress engine of one stream. Always driven under the
/// stream's engine lock; not itself thread-safe.
pub(crate) struct Engine {
    hooks: Vec<HookEntry>,
    tasks: Vec<TaskEntry>,
    next_hook: u64,
    next_task: u64,
    /// Total user tasks ever poisoned (poll panicked).
    poisoned_total: u64,
    /// Consecutive sweeps that made no progress (for the no-progress
    /// streak high-water mark in the global counters).
    idle_streak: u64,
    /// Sweep sequence number (feeds the sweep-order hook).
    sweep_seq: u64,
    /// Deterministic-simulation task-order hook; `None` (production) uses
    /// the registration-order fast path.
    order_hook: Option<Arc<dyn SweepOrder>>,
    stats: EngineStats,
}

impl Engine {
    pub(crate) fn new() -> Self {
        Engine {
            hooks: Vec::new(),
            tasks: Vec::new(),
            next_hook: 0,
            next_task: 0,
            poisoned_total: 0,
            idle_streak: 0,
            sweep_seq: 0,
            order_hook: None,
            stats: EngineStats::default(),
        }
    }

    pub(crate) fn set_sweep_order(&mut self, hook: Option<Arc<dyn SweepOrder>>) {
        self.order_hook = hook;
    }

    pub(crate) fn stats(&self) -> EngineStats {
        self.stats
    }

    pub(crate) fn register_hook(&mut self, hook: Box<dyn ProgressHook>) -> HookId {
        let id = HookId(self.next_hook);
        self.next_hook += 1;
        let class = hook.class();
        let name = mpfa_obs::NameId::intern(hook.name());
        let entry = HookEntry {
            id,
            class,
            seq: id.0,
            name,
            hook,
        };
        // Keep hooks ordered by (class, registration order).
        let pos = self
            .hooks
            .partition_point(|h| (h.class, h.seq) <= (class, entry.seq));
        self.hooks.insert(pos, entry);
        id
    }

    pub(crate) fn unregister_hook(&mut self, id: HookId) -> bool {
        match self.hooks.iter().position(|h| h.id == id) {
            Some(pos) => {
                self.hooks.remove(pos);
                true
            }
            None => false,
        }
    }

    pub(crate) fn hook_count(&self) -> usize {
        self.hooks.len()
    }

    pub(crate) fn add_task(&mut self, task: Box<dyn AsyncTask>) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.tasks.push(TaskEntry { id, task });
        id
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    pub(crate) fn poisoned_total(&self) -> u64 {
        self.poisoned_total
    }

    /// Poll the task at `idx` once, recording its verdict. Returns true
    /// when the task is finished (Done or poisoned) and must be retired
    /// by the caller; removal is the caller's job so both the in-place
    /// fast path and the permuted deferred-removal path share this body.
    fn poll_one_task(
        &mut self,
        idx: usize,
        thing: &mut AsyncThing,
        stream: StreamId,
        out: &mut ProgressOutcome,
        sweep_task_polls: &mut u64,
    ) -> bool {
        use mpfa_obs::{EventKind, TaskVerdict};

        let entry = &mut self.tasks[idx];
        thing.task = entry.id;
        let task_id = entry.id.0;
        self.stats.task_polls += 1;
        *sweep_task_polls += 1;
        let polled = catch_unwind(AssertUnwindSafe(|| entry.task.poll(thing)));
        match polled {
            Ok(AsyncPoll::Done) => {
                out.tasks_completed += 1;
                self.stats.task_completions += 1;
                mpfa_obs::record(|| EventKind::TaskPoll {
                    stream: stream.0,
                    task: task_id,
                    verdict: TaskVerdict::Done,
                });
                true
            }
            Ok(AsyncPoll::Progress) => {
                out.tasks_progressed += 1;
                false
            }
            Ok(AsyncPoll::Pending) => false,
            Err(_) => {
                // A panicking poll poisons only its own task; the
                // engine and the other tasks stay healthy.
                out.tasks_poisoned += 1;
                self.poisoned_total += 1;
                mpfa_obs::record(|| EventKind::TaskPoll {
                    stream: stream.0,
                    task: task_id,
                    verdict: TaskVerdict::Poisoned,
                });
                true
            }
        }
    }

    /// One collated progress sweep. See the module docs for the policy.
    pub(crate) fn poll(&mut self, state: &ProgressState, stream: StreamId) -> ProgressOutcome {
        use mpfa_obs::{EventKind, PollVerdict};

        self.sweep_seq += 1;
        let mut out = ProgressOutcome::default();
        // Sweep-local tallies for the batched counter flush at the end —
        // one set of atomic adds per sweep, not per hook/task.
        let mut sweep_hook_polls = 0u64;
        let mut sweep_hook_progress = 0u64;
        let mut sweep_task_polls = 0u64;
        let sweep_t0 = if mpfa_obs::recording_enabled() {
            crate::wtime::wtime()
        } else {
            0.0
        };

        // Phase 1: subsystems in Listing 1.1 order with short-circuit.
        for (i, entry) in self.hooks.iter().enumerate() {
            if state.skips(entry.class) {
                continue;
            }
            if !entry.hook.has_work() {
                self.stats.hook_idle_skips += 1;
                continue;
            }
            self.stats.hook_polls[entry.class as usize] += 1;
            sweep_hook_polls += 1;
            let t0 = if mpfa_obs::recording_enabled() {
                crate::wtime::wtime()
            } else {
                0.0
            };
            let progressed = entry.hook.poll();
            mpfa_obs::record_at(t0, || EventKind::HookPoll {
                stream: stream.0,
                class: entry.class as u8,
                name: entry.name,
                verdict: if progressed {
                    PollVerdict::Progress
                } else {
                    PollVerdict::NoProgress
                },
                dur: crate::wtime::wtime() - t0,
            });
            if progressed {
                self.stats.hook_progress[entry.class as usize] += 1;
                sweep_hook_progress += 1;
                self.stats.hook_short_circuits += (self.hooks.len() - i).saturating_sub(1) as u64;
                out.subsystem_progress = true;
                break;
            }
        }

        // Phase 2: user async tasks (never short-circuited by subsystem
        // progress — this poll is how the user observes completion events).
        if state.polls_tasks() {
            // One reusable poll context for the whole sweep; its spawn
            // buffer is drained after the sweep.
            let mut thing = AsyncThing::new(stream);
            match self.order_hook.clone() {
                None => {
                    // Production fast path: registration order, retiring
                    // in place.
                    let mut i = 0;
                    while i < self.tasks.len() {
                        let retire = self.poll_one_task(
                            i,
                            &mut thing,
                            stream,
                            &mut out,
                            &mut sweep_task_polls,
                        );
                        if retire {
                            // Dropping the task value releases its state —
                            // the Rust equivalent of poll_fn freeing
                            // extra_state before returning MPIX_ASYNC_DONE.
                            self.tasks.swap_remove(i);
                        } else {
                            i += 1;
                        }
                    }
                }
                Some(hook) => {
                    // Simulation path: poll in the hook's order, deferring
                    // removals so every task is still polled exactly once
                    // per sweep regardless of the permutation.
                    let n = self.tasks.len();
                    let perm = hook.order(stream, self.sweep_seq, n);
                    let identity: Vec<usize>;
                    let order: &[usize] = if valid_perm(&perm, n) {
                        &perm
                    } else {
                        identity = (0..n).collect();
                        &identity
                    };
                    let mut dead = vec![false; n];
                    for &idx in order {
                        dead[idx] = self.poll_one_task(
                            idx,
                            &mut thing,
                            stream,
                            &mut out,
                            &mut sweep_task_polls,
                        );
                    }
                    let mut flags = dead.into_iter();
                    self.tasks.retain(|_| !flags.next().unwrap_or(false));
                }
            }
            // Splice deferred spawns in *after* the sweep (MPIX_Async_spawn:
            // "temporarily stored ... and processed after poll_fn returns").
            out.tasks_spawned = thing.spawned.len();
            for task in thing.spawned {
                let id = self.add_task(task);
                mpfa_obs::record(|| EventKind::TaskStart {
                    stream: stream.0,
                    task: id.0,
                });
            }
        }

        mpfa_obs::record_at(sweep_t0, || EventKind::StreamProgress {
            stream: stream.0,
            dur: crate::wtime::wtime() - sweep_t0,
            hook_polls: sweep_hook_polls.min(u16::MAX as u64) as u16,
            tasks_polled: sweep_task_polls.min(u32::MAX as u64) as u32,
            tasks_completed: (out.tasks_completed as u64).min(u16::MAX as u64) as u16,
            made_progress: out.made_progress(),
        });

        // Batched flush: one burst of atomic adds per sweep keeps the
        // always-on counters off the per-hook/per-task hot path.
        let counters = mpfa_obs::global_counters();
        counters.record_sweep(
            sweep_hook_polls,
            sweep_hook_progress,
            sweep_task_polls,
            out.tasks_completed as u64,
        );
        if out.made_progress() {
            self.idle_streak = 0;
        } else {
            self.idle_streak += 1;
            counters.observe_no_progress_streak(self.idle_streak);
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Hook that records whether it was polled and returns a configured
    /// progress result.
    struct Probe {
        name: &'static str,
        class: SubsystemClass,
        has_work: Arc<AtomicBool>,
        polled: Arc<AtomicUsize>,
        makes_progress: bool,
    }

    impl Probe {
        fn new(
            name: &'static str,
            class: SubsystemClass,
            makes_progress: bool,
        ) -> (Self, Arc<AtomicUsize>, Arc<AtomicBool>) {
            let polled = Arc::new(AtomicUsize::new(0));
            let has_work = Arc::new(AtomicBool::new(true));
            (
                Probe {
                    name,
                    class,
                    has_work: has_work.clone(),
                    polled: polled.clone(),
                    makes_progress,
                },
                polled,
                has_work,
            )
        }
    }

    impl ProgressHook for Probe {
        fn name(&self) -> &str {
            self.name
        }
        fn class(&self) -> SubsystemClass {
            self.class
        }
        fn has_work(&self) -> bool {
            self.has_work.load(Ordering::Relaxed)
        }
        fn poll(&self) -> bool {
            self.polled.fetch_add(1, Ordering::Relaxed);
            self.makes_progress
        }
    }

    fn sid() -> StreamId {
        StreamId(0)
    }

    #[test]
    fn hooks_polled_in_class_order_with_short_circuit() {
        let mut e = Engine::new();
        // Register out of order; engine must sort by class.
        let (netmod, netmod_polls, _) = Probe::new("netmod", SubsystemClass::Netmod, false);
        let (shmem, shmem_polls, _) = Probe::new("shmem", SubsystemClass::Shmem, true);
        let (dt, dt_polls, _) = Probe::new("dt", SubsystemClass::DatatypeEngine, false);
        e.register_hook(Box::new(netmod));
        e.register_hook(Box::new(shmem));
        e.register_hook(Box::new(dt));

        let out = e.poll(&ProgressState::default(), sid());
        assert!(out.subsystem_progress);
        // dt polled (no progress), shmem polled (progress), netmod skipped.
        assert_eq!(dt_polls.load(Ordering::Relaxed), 1);
        assert_eq!(shmem_polls.load(Ordering::Relaxed), 1);
        assert_eq!(netmod_polls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn netmod_polled_when_nothing_else_progresses() {
        let mut e = Engine::new();
        let (shmem, _, _) = Probe::new("shmem", SubsystemClass::Shmem, false);
        let (netmod, netmod_polls, _) = Probe::new("netmod", SubsystemClass::Netmod, false);
        e.register_hook(Box::new(shmem));
        e.register_hook(Box::new(netmod));
        let out = e.poll(&ProgressState::default(), sid());
        assert!(!out.subsystem_progress);
        assert_eq!(netmod_polls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn has_work_false_suppresses_poll() {
        let mut e = Engine::new();
        let (h, polls, has_work) = Probe::new("dt", SubsystemClass::DatatypeEngine, true);
        e.register_hook(Box::new(h));
        has_work.store(false, Ordering::Relaxed);
        let out = e.poll(&ProgressState::default(), sid());
        assert!(!out.subsystem_progress);
        assert_eq!(polls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn progress_state_skips_classes() {
        let mut e = Engine::new();
        let (netmod, polls, _) = Probe::new("netmod", SubsystemClass::Netmod, true);
        e.register_hook(Box::new(netmod));
        let st = ProgressState::default().skip(SubsystemClass::Netmod);
        let out = e.poll(&st, sid());
        assert!(!out.subsystem_progress);
        assert_eq!(polls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn progress_state_only_selects_classes() {
        let st = ProgressState::only(&[SubsystemClass::Shmem]);
        assert!(!st.skips(SubsystemClass::Shmem));
        assert!(st.skips(SubsystemClass::Netmod));
        assert!(st.skips(SubsystemClass::DatatypeEngine));
        assert!(st.polls_tasks());
    }

    #[test]
    fn unregister_hook_removes_it() {
        let mut e = Engine::new();
        let (h, polls, _) = Probe::new("dt", SubsystemClass::DatatypeEngine, true);
        let id = e.register_hook(Box::new(h));
        assert_eq!(e.hook_count(), 1);
        assert!(e.unregister_hook(id));
        assert!(!e.unregister_hook(id));
        assert_eq!(e.hook_count(), 0);
        e.poll(&ProgressState::default(), sid());
        assert_eq!(polls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tasks_polled_every_call_until_done() {
        let mut e = Engine::new();
        let polls = Arc::new(AtomicUsize::new(0));
        let p = polls.clone();
        let mut remaining = 3;
        e.add_task(Box::new(move |_t: &mut AsyncThing| {
            p.fetch_add(1, Ordering::Relaxed);
            if remaining == 0 {
                AsyncPoll::Done
            } else {
                remaining -= 1;
                AsyncPoll::Pending
            }
        }));
        for _ in 0..3 {
            let out = e.poll(&ProgressState::default(), sid());
            assert_eq!(out.tasks_completed, 0);
        }
        let out = e.poll(&ProgressState::default(), sid());
        assert_eq!(out.tasks_completed, 1);
        assert_eq!(e.task_count(), 0);
        assert_eq!(polls.load(Ordering::Relaxed), 4);
        // Subsequent polls do nothing.
        let out = e.poll(&ProgressState::default(), sid());
        assert!(!out.made_progress());
    }

    #[test]
    fn tasks_polled_even_when_subsystem_progresses() {
        let mut e = Engine::new();
        let (h, _, _) = Probe::new("shmem", SubsystemClass::Shmem, true);
        e.register_hook(Box::new(h));
        e.add_task(Box::new(|_t: &mut AsyncThing| AsyncPoll::Done));
        let out = e.poll(&ProgressState::default(), sid());
        assert!(out.subsystem_progress);
        assert_eq!(out.tasks_completed, 1);
    }

    #[test]
    fn without_tasks_skips_task_sweep() {
        let mut e = Engine::new();
        e.add_task(Box::new(|_t: &mut AsyncThing| AsyncPoll::Done));
        let out = e.poll(&ProgressState::default().without_tasks(), sid());
        assert_eq!(out.tasks_completed, 0);
        assert_eq!(e.task_count(), 1);
    }

    #[test]
    fn spawned_tasks_run_after_sweep_not_recursively() {
        let mut e = Engine::new();
        let child_polls = Arc::new(AtomicUsize::new(0));
        let cp = child_polls.clone();
        e.add_task(Box::new(move |t: &mut AsyncThing| {
            let cp = cp.clone();
            t.spawn(move |_t: &mut AsyncThing| {
                cp.fetch_add(1, Ordering::Relaxed);
                AsyncPoll::Done
            });
            AsyncPoll::Done
        }));
        let out = e.poll(&ProgressState::default(), sid());
        // Parent completed; child spliced but NOT yet polled.
        assert_eq!(out.tasks_completed, 1);
        assert_eq!(child_polls.load(Ordering::Relaxed), 0);
        assert_eq!(e.task_count(), 1);
        let out = e.poll(&ProgressState::default(), sid());
        assert_eq!(out.tasks_completed, 1);
        assert_eq!(child_polls.load(Ordering::Relaxed), 1);
        assert_eq!(e.task_count(), 0);
    }

    #[test]
    fn spawn_chain_terminates() {
        // A task spawning a task spawning a task — each poll call handles
        // exactly one generation.
        let mut e = Engine::new();
        fn chain(depth: u32) -> Box<dyn AsyncTask> {
            Box::new(move |t: &mut AsyncThing| {
                if depth > 0 {
                    let next = depth - 1;
                    t.spawn(move |t2: &mut AsyncThing| {
                        if next > 0 {
                            // Re-spawn handled by the generic closure below;
                            // keep it simple: just finish.
                            let _ = t2;
                        }
                        AsyncPoll::Done
                    });
                }
                AsyncPoll::Done
            })
        }
        e.add_task(chain(2));
        let mut total_done = 0;
        for _ in 0..5 {
            total_done += e.poll(&ProgressState::default(), sid()).tasks_completed;
        }
        assert_eq!(total_done, 2);
        assert_eq!(e.task_count(), 0);
    }

    #[test]
    fn panicking_task_is_poisoned_and_others_survive() {
        let mut e = Engine::new();
        let survivor_polls = Arc::new(AtomicUsize::new(0));
        let sp = survivor_polls.clone();
        e.add_task(Box::new(|_t: &mut AsyncThing| -> AsyncPoll {
            panic!("injected poll failure");
        }));
        e.add_task(Box::new(move |_t: &mut AsyncThing| {
            sp.fetch_add(1, Ordering::Relaxed);
            AsyncPoll::Pending
        }));
        let out = e.poll(&ProgressState::default(), sid());
        assert_eq!(out.tasks_poisoned, 1);
        assert_eq!(e.task_count(), 1);
        assert_eq!(e.poisoned_total(), 1);
        assert_eq!(survivor_polls.load(Ordering::Relaxed), 1);
        // Engine still functional.
        let out = e.poll(&ProgressState::default(), sid());
        assert_eq!(out.tasks_poisoned, 0);
        assert_eq!(survivor_polls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn many_tasks_all_complete() {
        let mut e = Engine::new();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let d = done.clone();
            let mut n = 2;
            e.add_task(Box::new(move |_t: &mut AsyncThing| {
                if n == 0 {
                    d.fetch_add(1, Ordering::Relaxed);
                    AsyncPoll::Done
                } else {
                    n -= 1;
                    AsyncPoll::Pending
                }
            }));
        }
        let mut sweeps = 0;
        while e.task_count() > 0 {
            e.poll(&ProgressState::default(), sid());
            sweeps += 1;
            assert!(sweeps < 10, "tasks did not drain");
        }
        assert_eq!(done.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn stats_count_hook_and_task_activity() {
        let mut e = Engine::new();
        let (shmem, _, _) = Probe::new("shmem", SubsystemClass::Shmem, true);
        let (netmod, _, _) = Probe::new("netmod", SubsystemClass::Netmod, false);
        e.register_hook(Box::new(shmem));
        e.register_hook(Box::new(netmod));
        e.add_task(Box::new(|_t: &mut AsyncThing| AsyncPoll::Done));
        e.poll(&ProgressState::default(), sid());
        let st = e.stats();
        assert_eq!(st.hook_polls[SubsystemClass::Shmem as usize], 1);
        assert_eq!(st.hook_progress[SubsystemClass::Shmem as usize], 1);
        // Netmod was short-circuited away.
        assert_eq!(st.hook_polls[SubsystemClass::Netmod as usize], 0);
        assert_eq!(st.hook_short_circuits, 1);
        assert_eq!(st.task_polls, 1);
        assert_eq!(st.task_completions, 1);
        assert_eq!(st.hook_polls.iter().sum::<u64>(), 1);
    }

    #[test]
    fn stats_count_idle_skips() {
        let mut e = Engine::new();
        let (h, _, has_work) = Probe::new("dt", SubsystemClass::DatatypeEngine, false);
        e.register_hook(Box::new(h));
        has_work.store(false, Ordering::Relaxed);
        e.poll(&ProgressState::default(), sid());
        e.poll(&ProgressState::default(), sid());
        assert_eq!(e.stats().hook_idle_skips, 2);
        assert_eq!(e.stats().hook_polls.iter().sum::<u64>(), 0);
    }

    struct ReverseOrder;
    impl SweepOrder for ReverseOrder {
        fn order(&self, _stream: StreamId, _sweep: u64, n: usize) -> Vec<usize> {
            (0..n).rev().collect()
        }
    }

    struct BogusOrder;
    impl SweepOrder for BogusOrder {
        fn order(&self, _stream: StreamId, _sweep: u64, _n: usize) -> Vec<usize> {
            vec![0, 0, 0] // not a permutation — must be ignored
        }
    }

    fn order_recorder(e: &mut Engine, label: usize, log: &Arc<std::sync::Mutex<Vec<usize>>>) {
        let log = log.clone();
        e.add_task(Box::new(move |_t: &mut AsyncThing| {
            log.lock().unwrap().push(label);
            AsyncPoll::Pending
        }));
    }

    #[test]
    fn sweep_order_hook_permutes_task_polls() {
        let mut e = Engine::new();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for label in 0..4 {
            order_recorder(&mut e, label, &log);
        }
        e.set_sweep_order(Some(Arc::new(ReverseOrder)));
        e.poll(&ProgressState::default(), sid());
        assert_eq!(*log.lock().unwrap(), vec![3, 2, 1, 0]);
        // Uninstalling restores registration order.
        e.set_sweep_order(None);
        log.lock().unwrap().clear();
        e.poll(&ProgressState::default(), sid());
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sweep_order_hook_with_retirements_polls_each_task_once() {
        let mut e = Engine::new();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        // Tasks 0 and 2 finish on the first poll; 1 and 3 keep pending.
        for label in 0..4usize {
            let log = log.clone();
            e.add_task(Box::new(move |_t: &mut AsyncThing| {
                log.lock().unwrap().push(label);
                if label % 2 == 0 {
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Pending
                }
            }));
        }
        e.set_sweep_order(Some(Arc::new(ReverseOrder)));
        let out = e.poll(&ProgressState::default(), sid());
        assert_eq!(out.tasks_completed, 2);
        assert_eq!(*log.lock().unwrap(), vec![3, 2, 1, 0]);
        assert_eq!(e.task_count(), 2);
        // Survivors still polled on later sweeps.
        log.lock().unwrap().clear();
        e.poll(&ProgressState::default(), sid());
        assert_eq!(*log.lock().unwrap(), vec![3, 1]);
    }

    #[test]
    fn invalid_permutation_falls_back_to_registration_order() {
        let mut e = Engine::new();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for label in 0..3 {
            order_recorder(&mut e, label, &log);
        }
        e.set_sweep_order(Some(Arc::new(BogusOrder)));
        e.poll(&ProgressState::default(), sid());
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn sweep_order_hook_isolates_panics() {
        let mut e = Engine::new();
        e.add_task(Box::new(|_t: &mut AsyncThing| -> AsyncPoll {
            panic!("injected");
        }));
        e.add_task(Box::new(|_t: &mut AsyncThing| AsyncPoll::Pending));
        e.set_sweep_order(Some(Arc::new(ReverseOrder)));
        let out = e.poll(&ProgressState::default(), sid());
        assert_eq!(out.tasks_poisoned, 1);
        assert_eq!(e.task_count(), 1);
        assert_eq!(e.poisoned_total(), 1);
    }

    #[test]
    fn made_progress_reflects_task_activity() {
        let mut e = Engine::new();
        let mut first = true;
        e.add_task(Box::new(move |_t: &mut AsyncThing| {
            if first {
                first = false;
                AsyncPoll::Progress
            } else {
                AsyncPoll::Pending
            }
        }));
        assert!(e.poll(&ProgressState::default(), sid()).made_progress());
        assert!(!e.poll(&ProgressState::default(), sid()).made_progress());
    }
}
