//! Busy-wait primitives used by wait blocks, benchmarks and failure
//! injection.
//!
//! The paper models a *wait block* as a busy poll loop (Section 2.1/2.2);
//! these helpers are the building blocks for such loops and for the
//! artificial poll-function delays of Figure 8.

use crate::wtime::wtime;

/// Busy-spin for `seconds` of wall-clock time by polling [`wtime`].
///
/// This is exactly how the paper implements the Figure 8 poll-function
/// delays ("The delay is implemented by busy-polling `MPI_Wtime`").
#[inline]
pub fn busy_wait(seconds: f64) {
    let deadline = wtime() + seconds;
    while wtime() < deadline {
        std::hint::spin_loop();
    }
}

/// Escalating backoff for a wait loop that has seen `idle` consecutive
/// progress sweeps with nothing to do.
///
/// A wait block that spins flat-out is right when completion is
/// microseconds away, but on an oversubscribed box (many ranks per
/// core) every spinning waiter steals the CPU from the rank that would
/// have produced its message — at 64 ranks per core the job becomes a
/// context-switch storm that makes *no* rank fast. So waiters escalate:
/// pure spin while fresh (latency unchanged for the common case), then
/// `yield_now` to hand the core to a runnable sibling, then real sleeps
/// capped at 1ms so a parked world costs ~1k wakeups/s per rank instead
/// of a saturated core. Any observed progress resets the caller's
/// counter back to the spin tier.
#[inline]
pub(crate) fn idle_backoff(idle: u32) {
    match idle {
        0..=63 => std::hint::spin_loop(),
        64..=255 => std::thread::yield_now(),
        256..=1023 => std::thread::sleep(std::time::Duration::from_micros(100)),
        _ => std::thread::sleep(std::time::Duration::from_millis(1)),
    }
}

/// Perform `units` of synthetic CPU work (a cheap multiply-add chain),
/// returning a value that depends on the computation so the optimizer cannot
/// remove it. Used as the "computation" in overlap experiments.
pub fn compute_units(units: u64) -> u64 {
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_wait_waits_at_least_requested() {
        let t0 = wtime();
        busy_wait(0.002);
        assert!(wtime() - t0 >= 0.002);
    }

    #[test]
    fn compute_units_depends_on_input() {
        assert_ne!(compute_units(10), compute_units(11));
    }

    #[test]
    fn compute_units_zero() {
        // Still returns the seed; must not panic.
        let _ = compute_units(0);
    }
}
