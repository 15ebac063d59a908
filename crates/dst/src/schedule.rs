//! The schedule controller: one object that owns every nondeterminism
//! point of a simulated run.
//!
//! A [`Schedule`] is installed into the runtime through the hooks the
//! production layers expose for exactly this purpose:
//!
//! * [`mpfa_core::SweepOrder`] — permutes the order a stream's engine
//!   polls its user tasks each sweep;
//! * [`mpfa_fabric::DeliveryHook`] — perturbs packet arrival times
//!   (cross-channel reorder; per-channel FIFO is preserved by the fabric
//!   no matter what the hook returns).
//!
//! Every decision draws from one seeded [`SimRng`] and is appended to the
//! shared [`Trace`], so a run's behavior — and its trace bytes — are a
//! pure function of the seed. The simulation is cooperative and
//! single-threaded, which is what makes the draw *order* deterministic;
//! the mutexes here only satisfy the hooks' `Send + Sync` bounds.

use std::collections::HashMap;
use std::sync::Mutex;

use mpfa_core::{StreamId, SweepOrder};
use mpfa_fabric::DeliveryHook;
use mpfa_obs::clock;

use crate::rng::SimRng;
use crate::trace::{Action, Trace};

/// Knobs for how aggressively the schedule perturbs the run.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleCfg {
    /// Probability that a packet gets an extra delivery delay.
    pub reorder_prob: f64,
    /// Maximum extra delay, seconds (uniform in `[0, max)`).
    pub delivery_jitter: f64,
    /// Permute user-task poll order each sweep.
    pub shuffle_sweeps: bool,
}

impl Default for ScheduleCfg {
    fn default() -> Self {
        ScheduleCfg {
            reorder_prob: 0.5,
            delivery_jitter: 5e-6,
            shuffle_sweeps: true,
        }
    }
}

/// The seeded controller. Shared (via `Arc`) between the simulation
/// driver and the runtime hooks.
pub struct Schedule {
    seed: u64,
    cfg: ScheduleCfg,
    rng: Mutex<SimRng>,
    trace: Mutex<Trace>,
    /// Stream → world rank, so trace lines name ranks, not stream ids.
    ranks: Mutex<HashMap<StreamId, usize>>,
}

impl Schedule {
    /// A controller whose every decision derives from `seed`.
    pub fn new(seed: u64, cfg: ScheduleCfg) -> Schedule {
        let mut master = SimRng::new(seed);
        let rng = master.fork();
        Schedule::with_rng(seed, cfg, rng)
    }

    /// A controller drawing from an externally-forked rng stream (the
    /// simulation driver keeps a sibling fork for action selection, so
    /// the two decision streams never perturb each other).
    pub(crate) fn with_rng(seed: u64, cfg: ScheduleCfg, rng: SimRng) -> Schedule {
        Schedule {
            seed,
            cfg,
            rng: Mutex::new(rng),
            trace: Mutex::new(Trace::new(seed)),
            ranks: Mutex::new(HashMap::new()),
        }
    }

    /// The generating seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Tell the controller which rank owns `stream` (for trace labels).
    pub(crate) fn register_stream(&self, stream: StreamId, rank: usize) {
        self.ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(stream, rank);
    }

    /// Append a decision to the trace at the current virtual time.
    pub fn record(&self, action: Action) {
        self.trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(clock::wtime(), action);
    }

    /// Render the trace so far (the determinism artifact).
    pub fn trace_string(&self) -> String {
        self.trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .render()
    }
}

impl SweepOrder for Schedule {
    fn order(&self, stream: StreamId, _sweep: u64, n: usize) -> Vec<usize> {
        if !self.cfg.shuffle_sweeps {
            return (0..n).collect();
        }
        let perm = self
            .rng
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shuffled(n);
        // Singleton sweeps carry no scheduling information; keep the
        // trace to the decisions that could matter.
        if n >= 2 {
            let rank = self
                .ranks
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&stream)
                .copied()
                .unwrap_or(usize::MAX);
            self.record(Action::SweepOrder {
                rank,
                order: perm.clone(),
            });
        }
        perm
    }
}

impl DeliveryHook for Schedule {
    fn arrival(&self, src: usize, dst: usize, seq: u64, arrival: f64, now: f64) -> f64 {
        let delay = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            if rng.chance(self.cfg.reorder_prob) {
                rng.f64() * self.cfg.delivery_jitter
            } else {
                0.0
            }
        };
        if delay > 0.0 {
            self.record(Action::Deliver {
                src,
                dst,
                seq,
                delay,
            });
        }
        (arrival + delay).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some_stream_id() -> StreamId {
        mpfa_core::Stream::create().id()
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            let s = Schedule::new(1234, ScheduleCfg::default());
            let sid = some_stream_id();
            s.register_stream(sid, 0);
            let orders: Vec<Vec<usize>> = (0..8).map(|i| s.order(sid, i, 5)).collect();
            let arrivals: Vec<f64> = (0..8).map(|i| s.arrival(0, 1, i, 1e-6, 0.0)).collect();
            (orders, arrivals)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let decisions = |seed| {
            let s = Schedule::new(seed, ScheduleCfg::default());
            let sid = some_stream_id();
            (0..8).map(|i| s.order(sid, i, 6)).collect::<Vec<_>>()
        };
        assert_ne!(decisions(1), decisions(2));
    }

    #[test]
    fn shuffle_off_means_identity_order() {
        let s = Schedule::new(
            7,
            ScheduleCfg {
                shuffle_sweeps: false,
                ..ScheduleCfg::default()
            },
        );
        assert_eq!(s.order(some_stream_id(), 0, 4), vec![0, 1, 2, 3]);
        assert!(s.trace_string().contains("steps=0"));
    }

    #[test]
    fn delivery_never_moves_before_now() {
        let s = Schedule::new(
            5,
            ScheduleCfg {
                reorder_prob: 1.0,
                delivery_jitter: 1e-3,
                ..ScheduleCfg::default()
            },
        );
        for seq in 0..64 {
            // Natural arrival is in the past; the hook must clamp to now.
            let a = s.arrival(0, 1, seq, 0.5, 1.0);
            assert!(a >= 1.0);
        }
    }

    #[test]
    fn trace_records_reorders_and_sweeps() {
        let s = Schedule::new(
            77,
            ScheduleCfg {
                reorder_prob: 1.0,
                ..ScheduleCfg::default()
            },
        );
        let sid = some_stream_id();
        s.register_stream(sid, 3);
        s.order(sid, 0, 3);
        s.arrival(1, 2, 9, 1e-6, 0.0);
        let text = s.trace_string();
        assert!(text.contains("sweep-order rank=3"), "{text}");
        assert!(text.contains("deliver 1->2 seq=9"), "{text}");
    }
}
