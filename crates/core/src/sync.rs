//! Minimal synchronization primitives used across the workspace.
//!
//! The build must work in fully-offline environments, so instead of
//! pulling in `parking_lot`/`crossbeam` this module wraps `std::sync`
//! with the two behaviors the codebase relies on:
//!
//! * [`Mutex::lock`] returns the guard directly and ignores poisoning —
//!   a panic inside a critical section (already contained by the
//!   engine's `catch_unwind`) must not wedge every later locker.
//! * [`InjectQueue`] is a lock-free multi-producer injection queue
//!   (Treiber stack on push, FIFO on the single-consumer drain side) so
//!   `async_start` never blocks behind a progress sweep.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` never returns a `Result`:
/// poisoning is ignored, matching the `parking_lot` semantics the
/// codebase was written against.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. A poisoned lock (a
    /// panic while held) is treated as unlocked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard for [`Mutex`]. The inner `Option` exists so
/// [`Condvar::wait_for`] can temporarily hand the underlying guard to
/// `std`'s condvar and put it back; it is `Some` at all other times.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + std::fmt::Display> std::fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&**self, f)
    }
}

/// Whether a [`Condvar::wait_for`] returned because time ran out.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable paired with [`Mutex`], `parking_lot`-style: the
/// guard is passed by `&mut` and remains valid after the wait.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and wait for a notification
    /// or for `timeout`, whichever comes first; the lock is re-acquired
    /// before returning.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard already taken");
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

struct Node<T> {
    value: T,
    next: *mut Node<T>,
}

/// A multi-producer injection queue with lock-free `push`.
///
/// Producers push onto an atomic intrusive stack (one allocation and a
/// CAS loop — never a lock), so task injection can't block behind a
/// progress sweep that holds the engine lock. The consumer side drains
/// the stack in batches and re-reverses it through a small buffer to
/// preserve FIFO order; `pop` is intended for a single consumer at a
/// time (in the engine it runs under the engine lock) but is safe — just
/// not scalable — if misused concurrently.
pub struct InjectQueue<T> {
    head: AtomicPtr<Node<T>>,
    drained: Mutex<VecDeque<T>>,
}

impl<T> InjectQueue<T> {
    /// Create an empty queue.
    pub fn new() -> InjectQueue<T> {
        InjectQueue {
            head: AtomicPtr::new(ptr::null_mut()),
            drained: Mutex::new(VecDeque::new()),
        }
    }

    /// Push a value. Lock-free: one heap allocation plus a CAS loop.
    pub fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            value,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // Safety: `node` was just allocated above and is not yet
            // visible to any other thread.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Pop the oldest value, if any.
    pub fn pop(&self) -> Option<T> {
        let mut drained = self.drained.lock();
        if let Some(v) = drained.pop_front() {
            return Some(v);
        }
        // Take the whole stack (newest first) and reverse it into the
        // FIFO buffer.
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        while !node.is_null() {
            // Safety: we own the detached chain exclusively — `swap`
            // removed it from all producers' view.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            drained.push_front(boxed.value);
        }
        drained.pop_front()
    }

    /// True when no value is immediately available.
    pub fn is_empty(&self) -> bool {
        self.drained.lock().is_empty() && self.head.load(Ordering::Acquire).is_null()
    }
}

impl<T> Default for InjectQueue<T> {
    fn default() -> InjectQueue<T> {
        InjectQueue::new()
    }
}

impl<T> Drop for InjectQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

// Safety: values travel between threads through the queue, so T must be
// Send; there is no way to get a &T out, so no Sync bound on T needed.
unsafe impl<T: Send> Send for InjectQueue<T> {}
unsafe impl<T: Send> Sync for InjectQueue<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: later lockers proceed normally.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakeup_and_timeout() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut started = lock.lock();
            *started = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut started = lock.lock();
        let mut timed_out = false;
        while !*started {
            timed_out = cv
                .wait_for(&mut started, Duration::from_secs(5))
                .timed_out();
            if timed_out {
                break;
            }
        }
        assert!(*started);
        assert!(!timed_out);
        t.join().unwrap();

        // Pure timeout path.
        let r = cv.wait_for(&mut started, Duration::from_millis(1));
        assert!(r.timed_out());
        // Guard is still usable after the wait.
        *started = false;
        assert!(!*started);
    }

    #[test]
    fn inject_queue_fifo() {
        let q = InjectQueue::new();
        for i in 0..10 {
            q.push(i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn inject_queue_interleaved_drains_stay_fifo() {
        let q = InjectQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        q.push(3);
        // 2 was already drained into the FIFO buffer; 3 is newer.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn inject_queue_concurrent_producers_lose_nothing() {
        const THREADS: usize = 8;
        const PER: usize = 1000;
        let q = Arc::new(InjectQueue::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push(t * PER + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = vec![false; THREADS * PER];
        while let Some(v) = q.pop() {
            assert!(!seen[v], "duplicate {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b), "lost items");
    }

    #[test]
    fn inject_queue_drop_frees_pending() {
        let q = InjectQueue::new();
        for i in 0..100 {
            q.push(Box::new(i));
        }
        drop(q); // must not leak (checked under miri/asan; here: no crash)
    }
}
