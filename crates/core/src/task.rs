//! The `MPIX_Async` extension: user-defined asynchronous tasks progressed by
//! the stream's collated progress engine (paper Section 3.3).
//!
//! A task is any [`AsyncTask`] value (most often a closure). Its
//! [`poll`](AsyncTask::poll) is invoked from inside stream progress along
//! with the runtime's internal subsystem hooks. The task's own value plays
//! the role of the C API's `extra_state` (there is no separate
//! `MPIX_Async_get_state`: Rust closures and structs carry their state).
//!
//! Inside a poll, the [`AsyncThing`] context allows spawning additional
//! tasks; spawned tasks are stashed and spliced into the engine *after* the
//! poll returns, which is exactly the paper's `MPIX_Async_spawn` design
//! ("the implementation [avoids] potential recursion and the need for global
//! queue protection before calling `poll_fn`").

use crate::stream::StreamId;

/// Result of polling an async task — the `MPIX_ASYNC_*` return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncPoll {
    /// The task is finished; the engine removes it. Before returning this,
    /// the task must have released/consumed whatever it owns (in Rust the
    /// engine simply drops the task value).
    ///
    /// Equivalent to `MPIX_ASYNC_DONE`.
    Done,
    /// The task is still pending and this poll made no observable progress.
    ///
    /// Equivalent to `MPIX_ASYNC_NOPROGRESS` (the listings) a.k.a.
    /// `MPIX_ASYNC_PENDING` (the text).
    Pending,
    /// The task is still pending but this poll advanced it (e.g. a protocol
    /// stage completed and the next stage was initiated). The engine counts
    /// this as stream progress.
    Progress,
}

impl AsyncPoll {
    /// Alias for [`AsyncPoll::Pending`], matching `MPIX_ASYNC_NOPROGRESS`.
    pub const NOPROGRESS: AsyncPoll = AsyncPoll::Pending;
}

/// Identifier of a started async task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub(crate) u64);

/// The context handed to [`AsyncTask::poll`] — the `MPIX_Async_thing`.
///
/// It exposes the owning stream's id and the deferred-spawn facility.
pub struct AsyncThing {
    pub(crate) stream: StreamId,
    pub(crate) task: TaskId,
    pub(crate) spawned: Vec<Box<dyn AsyncTask>>,
}

impl AsyncThing {
    /// Construct a fresh poll context (engine-internal).
    pub(crate) fn new(stream: StreamId) -> AsyncThing {
        AsyncThing {
            stream,
            task: TaskId(0),
            spawned: Vec::new(),
        }
    }
    /// The stream this task is attached to.
    pub fn stream_id(&self) -> StreamId {
        self.stream
    }

    /// This task's id.
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// Spawn an additional async task on the same stream
    /// (`MPIX_Async_spawn`). The new task is queued inside the engine and
    /// becomes pollable after the current poll sweep returns; it is *not*
    /// polled recursively.
    pub fn spawn<F>(&mut self, poll: F)
    where
        F: FnMut(&mut AsyncThing) -> AsyncPoll + Send + 'static,
    {
        self.spawn_task(poll);
    }

    /// [`AsyncThing::spawn`] for non-closure [`AsyncTask`] values.
    pub(crate) fn spawn_task(&mut self, task: impl AsyncTask + 'static) {
        self.spawned.push(Box::new(task));
    }
}

/// A user asynchronous task progressed by the stream engine.
///
/// Implemented for all `FnMut(&mut AsyncThing) -> AsyncPoll + Send`
/// closures, so the common form is:
///
/// ```
/// use mpfa_core::{Stream, AsyncPoll, wtime};
/// let stream = Stream::create();
/// let deadline = wtime() + 0.001;
/// stream.async_start(move |_thing| {
///     if wtime() >= deadline { AsyncPoll::Done } else { AsyncPoll::Pending }
/// });
/// while stream.pending_tasks() > 0 {
///     stream.progress();
/// }
/// ```
pub trait AsyncTask: Send {
    /// Advance the task; called from within stream progress.
    ///
    /// Must be lightweight (Section 4.2: heavy poll functions degrade the
    /// response latency of every other task collated on the stream) and must
    /// not invoke stream progress recursively.
    fn poll(&mut self, thing: &mut AsyncThing) -> AsyncPoll;
}

impl<F> AsyncTask for F
where
    F: FnMut(&mut AsyncThing) -> AsyncPoll + Send,
{
    fn poll(&mut self, thing: &mut AsyncThing) -> AsyncPoll {
        self(thing)
    }
}

/// Start an async task on `stream` — `MPIX_Async_start(poll_fn, state,
/// stream)`. Free-function form of [`crate::Stream::async_start`].
pub fn async_start<F>(stream: &crate::Stream, poll: F) -> TaskId
where
    F: FnMut(&mut AsyncThing) -> AsyncPoll + Send + 'static,
{
    stream.async_start(poll)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprogress_alias() {
        assert_eq!(AsyncPoll::NOPROGRESS, AsyncPoll::Pending);
    }

    #[test]
    fn closures_implement_async_task() {
        fn assert_task<T: AsyncTask>(_t: &T) {}
        let c = |_t: &mut AsyncThing| AsyncPoll::Done;
        assert_task(&c);
    }

    struct CountDown(u32);
    impl AsyncTask for CountDown {
        fn poll(&mut self, _thing: &mut AsyncThing) -> AsyncPoll {
            if self.0 == 0 {
                AsyncPoll::Done
            } else {
                self.0 -= 1;
                AsyncPoll::Progress
            }
        }
    }

    #[test]
    fn struct_tasks_implement_async_task() {
        let mut t = CountDown(1);
        let mut thing = AsyncThing::new(StreamId(0));
        thing.task = TaskId(7);
        assert_eq!(t.poll(&mut thing), AsyncPoll::Progress);
        assert_eq!(t.poll(&mut thing), AsyncPoll::Done);
        assert_eq!(thing.task_id(), TaskId(7));
        assert_eq!(thing.stream_id(), StreamId(0));
    }

    #[test]
    fn spawn_defers_into_vec() {
        let mut thing = AsyncThing::new(StreamId(0));
        thing.spawn(|_t| AsyncPoll::Done);
        thing.spawn_task(CountDown(3));
        assert_eq!(thing.spawned.len(), 2);
    }
}
