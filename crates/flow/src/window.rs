//! Multi-rank windowed aggregation on flows — the canonical pipeline.
//!
//! Every rank plays three roles at once over three flows:
//!
//! 1. **producer** — generates timestamped events (deterministically,
//!    from the config seed) and shuffles them **by key** to aggregators
//!    on the *events* flow;
//! 2. **aggregator** — reduces the events it receives into per-window
//!    partial sums, and forwards each window's partial to the window's
//!    *owner* on the *partials* flow **when the events frontier passes
//!    the window close** (a frontier callback, not a poll);
//! 3. **owner** — combines the partials for its windows (`owner(w) = w
//!    mod n`) and emits the final `(window, sum, count)` when the
//!    partials frontier passes the window — at which point, by frontier
//!    exactness, every contribution is provably present.
//!
//! Emitted window ids are additionally broadcast on a third *emitlog*
//! flow; its frontier reaching [`TS_CLOSED`] is the pipeline's
//! distributed termination signal.
//!
//! ## Timestamps
//!
//! Event slot `s` (a global sequence number) carries timestamp `s`;
//! window `w` covers slots `[w*E, (w+1)*E)` for `E =
//! events_per_window`. Partials and emitlog records for window `w`
//! carry timestamp `w`.
//!
//! ## Recovery (replay from the generator)
//!
//! Events are a pure function of `(seed, slot)`, so the generator *is*
//! the redo log. After a rank failure the survivors revoke → agree →
//! shrink (the ULFM cycle), [`crate::FlowContext::abandon_all`] the old
//! flows, take a bitwise-OR allreduce of their emitted-window masks
//! ([`union_emitted_mask`]), and rebuild the pipeline over the shrunk
//! communicator with the union as a *skip mask*: already-emitted
//! windows are not regenerated, and the remaining slots are
//! re-partitioned over the survivors. Output for windows the dead rank
//! had emitted died with it, so those windows are replayed — the union
//! of survivor outputs ends up covering every window **exactly once**
//! (see `docs/FLOW.md` for the output-commit caveat this encodes).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::wtime;
use mpfa_mpi::{Comm, Op};

use crate::engine::{FlowContext, FlowReceiver, FlowSender};
use crate::progress::TS_CLOSED;

/// Windowed-pipeline shape. Events are a pure function of this config,
/// so two runs with equal configs produce identical windows — the basis
/// of replay recovery.
#[derive(Debug, Clone, Copy)]
pub struct WindowCfg {
    /// Number of windows.
    pub windows: u64,
    /// Event slots per window (each slot is one event).
    pub events_per_window: u64,
    /// Key-space size (keys route events to aggregators).
    pub keys: u64,
    /// Generator seed.
    pub seed: u64,
    /// Events a producer sends per [`WindowWorker::step`] call.
    pub batch: usize,
}

impl Default for WindowCfg {
    fn default() -> WindowCfg {
        WindowCfg {
            windows: 16,
            events_per_window: 64,
            keys: 97,
            seed: 0x5eed,
            batch: 256,
        }
    }
}

impl WindowCfg {
    /// Total event slots.
    pub fn total_slots(&self) -> u64 {
        self.windows * self.events_per_window
    }

    /// The window that slot `s` belongs to.
    pub(crate) fn window_of(&self, s: u64) -> u64 {
        s / self.events_per_window
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The event at slot `s`: `(key, value)`. Pure — this function is the
/// redo log.
pub(crate) fn event_for(cfg: &WindowCfg, s: u64) -> (u64, u64) {
    let h = splitmix64(cfg.seed ^ s.wrapping_mul(0xa076_1d64_78bd_642f));
    (h % cfg.keys, (h >> 33) % 1024)
}

/// The ground-truth output: every window's `(sum, count)`, computed
/// serially. Independent of rank count or shuffling.
pub fn expected_output(cfg: &WindowCfg) -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    for s in 0..cfg.total_slots() {
        let (_, v) = event_for(cfg, s);
        let e = out.entry(cfg.window_of(s)).or_insert((0u64, 0u64));
        e.0 += v;
        e.1 += 1;
    }
    out
}

/// Which rank owns (emits) window `w` in an `n`-rank pipeline.
pub(crate) fn owner_of(w: u64, n: usize) -> usize {
    (w % n as u64) as usize
}

/// Bitwise-OR allreduce of each survivor's emitted-window set over the
/// shrunk communicator: the union skip mask for replay. (Windows only a
/// dead rank emitted are absent — their output is lost, so they must be
/// replayed.)
pub fn union_emitted_mask(
    shrunk: &Comm,
    emitted: &BTreeMap<u64, (u64, u64)>,
    windows: u64,
) -> Vec<bool> {
    let words = windows.div_ceil(64) as usize;
    let mut mine = vec![0i64; words];
    for &w in emitted.keys() {
        mine[(w / 64) as usize] |= 1i64 << (w % 64);
    }
    let all = shrunk
        .allreduce(&mine, Op::Bor)
        .expect("emitted-mask allreduce");
    (0..windows)
        .map(|w| all[(w / 64) as usize] & (1i64 << (w % 64)) != 0)
        .collect()
}

/// One rank's share of the windowed pipeline. Drive it by alternating
/// [`WindowWorker::step`] with progress on the rank's stream until
/// [`WindowWorker::done`].
pub struct WindowWorker {
    cfg: WindowCfg,
    n: usize,
    me: usize,

    ev_tx: FlowSender<(u64, u64)>,
    ev_rx: FlowReceiver<(u64, u64)>,
    pa_tx: FlowSender<(u64, u64, u64)>,
    pa_rx: FlowReceiver<(u64, u64, u64)>,
    em_tx: FlowSender<u64>,
    em_rx: FlowReceiver<u64>,

    /// Slots this rank produces, ascending; `next_slot` indexes it.
    my_slots: Vec<u64>,
    next_slot: usize,
    ev_closed: bool,

    /// Aggregation: per-window partial sums from events received here.
    sums: BTreeMap<u64, (u64, u64)>,
    /// Windows whose events-frontier callback has fired (ready to send
    /// the partial). Pushed from frontier callbacks, drained by `step`.
    agg_ready: Arc<Mutex<VecDeque<u64>>>,
    /// Replay windows still awaiting their partial send.
    agg_remaining: usize,
    pa_closed: bool,

    /// Ownership: per-window partial contributions `(sum, count,
    /// contributors)`.
    contribs: BTreeMap<u64, (u64, u64, usize)>,
    /// When window `w`'s last contribution arrived (for the
    /// frontier-advance latency measurement).
    full_at: BTreeMap<u64, f64>,
    /// Owned windows whose partials-frontier callback has fired.
    emit_ready: Arc<Mutex<VecDeque<u64>>>,
    /// Owned replay windows still awaiting emission.
    emit_remaining: usize,
    em_closed: bool,

    /// Final outputs emitted by this rank (survives recovery).
    emitted: BTreeMap<u64, (u64, u64)>,
    /// Window ids observed on the emitlog flow (any emitter).
    seen_emits: BTreeSet<u64>,
    /// Seconds between a window's last contribution arriving and its
    /// frontier callback firing, per emitted window.
    emit_latencies: Vec<f64>,
    /// False if any window was ever emitted with fewer than `n`
    /// contributions — the frontier lied. Checked by conformance.
    frontier_honest: bool,
}

impl WindowWorker {
    /// Build this rank's share of the pipeline over `comm`. Collective
    /// (creates three flows, same order everywhere). `skip[w]` marks
    /// windows already emitted before a recovery — their slots are not
    /// regenerated and no partials are exchanged for them. Pass
    /// `prior_emitted` to carry this rank's pre-recovery outputs into
    /// the rebuilt worker.
    pub fn new(
        fx: &FlowContext,
        comm: &Comm,
        cfg: WindowCfg,
        skip: &[bool],
        prior_emitted: BTreeMap<u64, (u64, u64)>,
    ) -> WindowWorker {
        assert_eq!(skip.len(), cfg.windows as usize, "skip mask shape");
        let n = comm.size();
        let me = comm.rank() as usize;
        let (ev_tx, ev_rx) = fx.create::<(u64, u64)>(comm);
        let (pa_tx, pa_rx) = fx.create::<(u64, u64, u64)>(comm);
        let (em_tx, em_rx) = fx.create::<u64>(comm);

        let replay: Vec<u64> = (0..cfg.windows).filter(|&w| !skip[w as usize]).collect();
        let my_slots: Vec<u64> = replay
            .iter()
            .flat_map(|&w| {
                (w * cfg.events_per_window..(w + 1) * cfg.events_per_window)
                    .filter(|s| (s % n as u64) as usize == me)
            })
            .collect();

        let agg_ready = Arc::new(Mutex::new(VecDeque::new()));
        let emit_ready = Arc::new(Mutex::new(VecDeque::new()));
        // Frontier callbacks, registered in window order so the ready
        // queues fill in ascending-window order (the frontier is
        // monotone and probes fire threshold-ordered).
        for &w in &replay {
            let q = agg_ready.clone();
            ev_rx.on_frontier_advance((w + 1) * cfg.events_per_window, move |ok| {
                if ok {
                    q.lock().push_back(w);
                }
            });
        }
        let my_windows: Vec<u64> = replay
            .iter()
            .copied()
            .filter(|&w| owner_of(w, n) == me)
            .collect();
        for &w in &my_windows {
            let q = emit_ready.clone();
            pa_rx.on_frontier_advance(w + 1, move |ok| {
                if ok {
                    q.lock().push_back(w);
                }
            });
        }

        WindowWorker {
            cfg,
            n,
            me,
            ev_tx,
            ev_rx,
            pa_tx,
            pa_rx,
            em_tx,
            em_rx,
            my_slots,
            next_slot: 0,
            ev_closed: false,
            sums: BTreeMap::new(),
            agg_ready,
            agg_remaining: replay.len(),
            pa_closed: false,
            contribs: BTreeMap::new(),
            full_at: BTreeMap::new(),
            emit_ready,
            emit_remaining: my_windows.len(),
            em_closed: false,
            emitted: prior_emitted,
            seen_emits: BTreeSet::new(),
            emit_latencies: Vec::new(),
            frontier_honest: true,
        }
    }

    /// One slice of work in every role. Interleave with progress on
    /// this rank's stream; returns `true` while anything remains.
    pub fn step(&mut self) -> bool {
        self.drain_receivers();
        self.produce_batch();
        self.send_ready_partials();
        self.emit_ready_windows();
        let _ = self.ev_tx.flush();
        let _ = self.pa_tx.flush();
        !self.done()
    }

    /// The distributed pipeline is complete: every flow's frontier hit
    /// [`TS_CLOSED`] (all capabilities dropped everywhere, all records
    /// consumed here).
    pub fn done(&self) -> bool {
        self.ev_rx.frontier() == TS_CLOSED
            && self.pa_rx.frontier() == TS_CLOSED
            && self.em_rx.frontier() == TS_CLOSED
    }

    fn drain_receivers(&mut self) {
        while let Some((s, (_key, v))) = self.ev_rx.try_recv() {
            let e = self.sums.entry(self.cfg.window_of(s)).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        while let Some((_, (w, sum, count))) = self.pa_rx.try_recv() {
            let e = self.contribs.entry(w).or_insert((0, 0, 0));
            e.0 += sum;
            e.1 += count;
            e.2 += 1;
            if e.2 == self.n {
                self.full_at.insert(w, wtime());
            }
        }
        while let Some((_, w)) = self.em_rx.try_recv() {
            self.seen_emits.insert(w);
        }
    }

    fn produce_batch(&mut self) {
        if self.ev_closed {
            return;
        }
        let end = (self.next_slot + self.cfg.batch).min(self.my_slots.len());
        for i in self.next_slot..end {
            let s = self.my_slots[i];
            let (key, value) = event_for(&self.cfg, s);
            let dst = (key % self.n as u64) as usize;
            self.ev_tx
                .send(dst, s, &(key, value))
                .expect("event send under held capability");
        }
        self.next_slot = end;
        if self.next_slot == self.my_slots.len() {
            self.ev_tx.close().expect("close events");
            self.ev_closed = true;
        } else {
            // Promise: nothing earlier than the next unproduced slot.
            let next_ts = self.my_slots[self.next_slot];
            self.ev_tx.advance_to(next_ts).expect("advance events");
        }
    }

    fn send_ready_partials(&mut self) {
        loop {
            let w = match self.agg_ready.lock().pop_front() {
                Some(w) => w,
                None => break,
            };
            let (sum, count) = self.sums.remove(&w).unwrap_or((0, 0));
            self.pa_tx
                .send(owner_of(w, self.n), w, &(w, sum, count))
                .expect("partial send under held capability");
            self.pa_tx.advance_to(w + 1).expect("advance partials");
            self.agg_remaining -= 1;
        }
        if !self.pa_closed && self.agg_remaining == 0 {
            self.pa_tx.close().expect("close partials");
            self.pa_closed = true;
        }
    }

    fn emit_ready_windows(&mut self) {
        loop {
            let w = match self.emit_ready.lock().pop_front() {
                Some(w) => w,
                None => break,
            };
            let (sum, count, contributors) = self.contribs.remove(&w).unwrap_or((0, 0, 0));
            // Frontier exactness says every rank's partial is in.
            if contributors != self.n {
                self.frontier_honest = false;
            }
            if let Some(t) = self.full_at.remove(&w) {
                self.emit_latencies.push(wtime() - t);
            }
            self.emitted.insert(w, (sum, count));
            for dst in 0..self.n {
                self.em_tx
                    .send(dst, w, &w)
                    .expect("emitlog send under held capability");
            }
            self.em_tx.advance_to(w + 1).expect("advance emitlog");
            self.emit_remaining -= 1;
        }
        if !self.em_closed && self.emit_remaining == 0 {
            self.em_tx.close().expect("close emitlog");
            self.em_closed = true;
        }
    }

    /// Final `(window → (sum, count))` outputs this rank emitted.
    pub fn emitted(&self) -> &BTreeMap<u64, (u64, u64)> {
        &self.emitted
    }

    /// Window ids observed on the emitlog flow.
    pub fn seen_emits(&self) -> &BTreeSet<u64> {
        &self.seen_emits
    }

    /// Per-emitted-window seconds between the last contribution landing
    /// and the frontier callback releasing the emission.
    pub fn emit_latencies(&self) -> &[f64] {
        &self.emit_latencies
    }

    /// True iff every emission had all `n` contributions present — the
    /// no-emit-before-frontier property.
    pub fn frontier_honest(&self) -> bool {
        self.frontier_honest
    }

    /// Events this rank produces (for throughput accounting).
    pub fn produced_events(&self) -> u64 {
        self.my_slots.len() as u64
    }

    /// This rank's index in the pipeline.
    pub fn rank(&self) -> usize {
        self.me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_mpi::{Proc, World, WorldConfig};

    /// Drive `workers[i]` against `procs[i]` round-robin to completion.
    fn drive(procs: &[Proc], workers: &mut [WindowWorker]) {
        for _ in 0..2_000_000 {
            let mut busy = false;
            for (p, w) in procs.iter().zip(workers.iter_mut()) {
                busy |= w.step();
                p.default_stream().progress();
            }
            if !busy {
                return;
            }
        }
        panic!("pipeline never completed");
    }

    fn union(workers: &[WindowWorker]) -> BTreeMap<u64, (u64, u64)> {
        let mut out = BTreeMap::new();
        for w in workers {
            for (&k, &v) in w.emitted() {
                assert!(out.insert(k, v).is_none(), "window {k} emitted twice");
            }
        }
        out
    }

    fn run(n: usize, cfg: WindowCfg, skip: &[bool]) -> Vec<WindowWorker> {
        let procs = World::init(WorldConfig::instant(n));
        let fxs: Vec<FlowContext> = procs.iter().map(FlowContext::install).collect();
        let mut workers: Vec<WindowWorker> = procs
            .iter()
            .zip(&fxs)
            .map(|(p, fx)| WindowWorker::new(fx, &p.world_comm(), cfg, skip, BTreeMap::new()))
            .collect();
        drive(&procs, &mut workers);
        for fx in &fxs {
            fx.shutdown();
        }
        workers
    }

    #[test]
    fn single_rank_pipeline_matches_expected() {
        let cfg = WindowCfg {
            windows: 8,
            events_per_window: 32,
            ..WindowCfg::default()
        };
        let workers = run(1, cfg, &[false; 8]);
        assert_eq!(union(&workers), expected_output(&cfg));
        assert!(workers[0].frontier_honest());
    }

    #[test]
    fn multi_rank_pipeline_is_exactly_once() {
        let cfg = WindowCfg::default();
        let workers = run(3, cfg, &vec![false; cfg.windows as usize]);
        assert_eq!(union(&workers), expected_output(&cfg));
        for w in &workers {
            assert!(w.frontier_honest(), "emitted before the frontier covered");
            assert_eq!(
                w.seen_emits().len(),
                cfg.windows as usize,
                "emitlog broadcast reaches every rank"
            );
        }
        // Every rank emitted only the windows it owns.
        for (r, w) in workers.iter().enumerate() {
            assert!(w.emitted().keys().all(|&k| owner_of(k, 3) == r));
        }
        assert!(
            workers.iter().any(|w| !w.emit_latencies().is_empty()),
            "latency board collected samples"
        );
    }

    #[test]
    fn skip_mask_replays_only_unemitted_windows() {
        let cfg = WindowCfg {
            windows: 6,
            events_per_window: 16,
            ..WindowCfg::default()
        };
        let mut skip = vec![false; 6];
        skip[0] = true;
        skip[3] = true;
        let workers = run(2, cfg, &skip);
        let out = union(&workers);
        let mut want = expected_output(&cfg);
        want.remove(&0);
        want.remove(&3);
        assert_eq!(out, want, "skipped windows are not re-emitted");
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = WindowCfg::default();
        for s in [0u64, 1, 99, cfg.total_slots() - 1] {
            assert_eq!(event_for(&cfg, s), event_for(&cfg, s));
        }
        let a = expected_output(&cfg);
        assert_eq!(a.len(), cfg.windows as usize);
        assert!(a.values().all(|&(_, c)| c == cfg.events_per_window));
    }
}
