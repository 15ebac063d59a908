//! Fixed-size log-bucket histogram of per-op times in nanoseconds.
//!
//! Preallocated once, so the timed loop never allocates (an allocating
//! sample log would show up in `peak_rss_mib`). Each power of two is
//! split into `SUB` linear buckets, so a bucket is at most 1/SUB = 0.78 %
//! wide; quantiles interpolate inside the bucket.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^42 ns (~73 min) are resolved; larger ones clamp.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// The `q`-quantile of a handful of values (nearest rank; sorts in place;
/// 0 when empty): slices of a trial, trials of a run, batches of a probe.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = (63 - ns.leading_zeros()).min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let sub = ((ns >> shift) & (SUB - 1)) as usize;
    let idx = ((exp - SUB_BITS + 1) as usize) * SUB as usize + sub;
    idx.min(BUCKETS - 1)
}

/// Lower edge and width of bucket `idx`, in ns.
fn bucket_range(idx: usize) -> (f64, f64) {
    let octave = idx / SUB as usize;
    let sub = (idx % SUB as usize) as u64;
    if octave == 0 {
        return (sub as f64, 1.0);
    }
    let shift = (octave - 1) as u32;
    let lo = (SUB + sub) << shift;
    (lo as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn add_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Record a duration given in seconds (negative clamps to 0).
    #[inline]
    pub fn add_secs(&mut self, secs: f64) {
        self.add_ns((secs.max(0.0) * 1e9) as u64);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// Move `other`'s samples into this histogram, leaving it empty.
    pub fn absorb(&mut self, other: &mut Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&mut other.counts) {
            *mine += std::mem::take(theirs);
        }
        self.total += std::mem::take(&mut other.total);
    }

    /// The `q`-quantile in ns (0 when empty), interpolated linearly inside
    /// the bucket that holds it.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (seen + c) as f64 {
                let (lo, width) = bucket_range(idx);
                let frac = (rank - seen as f64 + 0.5) / c as f64;
                return lo + width * frac.min(1.0);
            }
            seen += c;
        }
        let (lo, width) = bucket_range(BUCKETS - 1);
        lo + width
    }

    /// The tail worth reporting: the highest of p90/p99/p99.9/p99.99 that
    /// still has at least ten samples beyond it, as `(percentile, ns)`.
    pub fn tail(&self) -> (f64, f64) {
        let mut best = 0.5;
        for p in [0.9, 0.99, 0.999, 0.9999] {
            if self.total as f64 * (1.0 - p) >= 10.0 {
                best = p;
            }
        }
        (best * 100.0, self.quantile_ns(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;

    #[test]
    fn quantiles_within_one_percent_of_exact_sort() {
        let mut rng = Rng::new(42);
        let mut hist = Hist::new();
        // Log-uniform over 100 ns .. 100 ms: every octave the benchmark
        // can produce.
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| (100.0 * 10f64.powf(rng.f64() * 6.0)) as u64)
            .collect();
        for &v in &exact {
            hist.add_ns(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact[(q * (exact.len() - 1) as f64) as usize] as f64;
            let got = hist.quantile_ns(q);
            assert!(
                (got - want).abs() <= want * 0.01,
                "q={q}: hist {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_clamp() {
        let mut h = Hist::new();
        for v in [3, 3, 3] {
            h.add_ns(v);
        }
        assert!((h.quantile_ns(0.5) - 3.5).abs() <= 0.5);
        h.clear();
        h.add_ns(u64::MAX);
        assert_eq!(h.len(), 1);
        assert!(h.quantile_ns(0.5) > 1e12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        for i in 0..1000 {
            h.add_ns(1000 + i);
        }
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(h.tail().0, 99.0);
    }
}
