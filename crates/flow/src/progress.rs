//! Capability multisets: the bookkeeping behind `frontier()`.
//!
//! A *capability* at timestamp `t` is the right to send a record at any
//! timestamp `>= t`. Each rank holds a multiset of capabilities per
//! flow; downgrading or dropping them is what lets the global frontier
//! advance. The same multiset shape also accumulates *views* of remote
//! ranks' capabilities (built from gossiped `(timestamp, delta)` pairs)
//! and the timestamps of locally queued, not-yet-consumed records.

use std::collections::BTreeMap;

/// A flow timestamp. Plain logical time — the flow layer never
/// interprets it beyond ordering.
pub type Timestamp = u64;

/// The frontier value of a closed flow: every capability everywhere has
/// been dropped and every record consumed, so no timestamp can ever
/// arrive again.
pub const TS_CLOSED: Timestamp = u64::MAX;

/// A multiset of timestamps with signed accumulation: `update(t, +1)`
/// mints, `update(t, -1)` retires. Deltas may transiently drive a count
/// negative when gossip about a mint and its retirement race on
/// *different* channels — the minimum only considers positive counts,
/// so such an entry simply doesn't pin the frontier.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CapSet {
    counts: BTreeMap<Timestamp, i64>,
}

impl CapSet {
    /// An empty multiset.
    pub fn new() -> CapSet {
        CapSet::default()
    }

    /// A multiset holding one capability at `t` — every participant's
    /// starting state.
    pub(crate) fn singleton(t: Timestamp) -> CapSet {
        let mut s = CapSet::new();
        s.update(t, 1);
        s
    }

    /// Accumulate `delta` occurrences of `t` (zeroed entries are
    /// dropped).
    pub fn update(&mut self, t: Timestamp, delta: i64) {
        let e = self.counts.entry(t).or_insert(0);
        *e += delta;
        if *e == 0 {
            self.counts.remove(&t);
        }
    }

    /// Smallest timestamp with a positive count, or `None` when the set
    /// holds nothing (the contributor no longer constrains the
    /// frontier).
    pub fn min(&self) -> Option<Timestamp> {
        self.counts.iter().find(|(_, &c)| c > 0).map(|(&t, _)| t)
    }

    /// True when no timestamp has a positive count.
    pub fn is_empty(&self) -> bool {
        self.min().is_none()
    }

    /// Iterate `(timestamp, count)` entries in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, i64)> + '_ {
        self.counts.iter().map(|(&t, &c)| (t, c))
    }

    /// Downgrade every capability below `to` up to `to`, returning the
    /// `(timestamp, delta)` changes (the gossip payload). No-op deltas
    /// are not emitted.
    pub fn advance_to(&mut self, to: Timestamp) -> Vec<(Timestamp, i64)> {
        let mut deltas = Vec::new();
        let mut moved = 0i64;
        let below: Vec<(Timestamp, i64)> = self.counts.range(..to).map(|(&t, &c)| (t, c)).collect();
        for (t, c) in below {
            if c > 0 {
                deltas.push((t, -c));
                moved += c;
                self.counts.remove(&t);
            }
        }
        if moved > 0 {
            self.update(to, moved);
            deltas.push((to, moved));
        }
        deltas
    }

    /// Drop every capability, returning the `(timestamp, delta)`
    /// changes.
    pub(crate) fn drop_all(&mut self) -> Vec<(Timestamp, i64)> {
        let deltas: Vec<(Timestamp, i64)> = self
            .counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&t, &c)| (t, -c))
            .collect();
        self.counts.clear();
        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_ignores_non_positive_entries() {
        let mut s = CapSet::new();
        assert_eq!(s.min(), None);
        s.update(5, 1);
        s.update(3, -1); // retirement gossip arrived before the mint
        assert_eq!(s.min(), Some(5));
        s.update(3, 1); // mint catches up; nets to zero and vanishes
        assert_eq!(s.min(), Some(5));
        s.update(2, 2);
        assert_eq!(s.min(), Some(2));
    }

    #[test]
    fn advance_to_moves_everything_below() {
        let mut s = CapSet::singleton(0);
        s.update(3, 2);
        let deltas = s.advance_to(10);
        assert_eq!(deltas, vec![(0, -1), (3, -2), (10, 3)]);
        assert_eq!(s.min(), Some(10));
        // Applying the same deltas to a remote view converges it.
        let mut view = CapSet::singleton(0);
        view.update(3, 2);
        for (t, d) in deltas {
            view.update(t, d);
        }
        assert_eq!(view, s);
    }

    #[test]
    fn advance_to_is_idempotent_at_or_below_the_min() {
        let mut s = CapSet::singleton(7);
        assert!(s.advance_to(7).is_empty());
        assert!(s.advance_to(3).is_empty());
        assert_eq!(s.min(), Some(7));
    }

    #[test]
    fn drop_all_empties_the_set() {
        let mut s = CapSet::singleton(4);
        s.update(9, 1);
        let deltas = s.drop_all();
        assert_eq!(deltas, vec![(4, -1), (9, -1)]);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
    }
}
