//! The simulation's only randomness source: a seeded splitmix64.
//!
//! Every nondeterminism point in a simulated run — poll order, packet
//! delay, action choice — draws from a [`SimRng`], so the whole run is a
//! pure function of the `u64` seed. splitmix64 is the repo's standard
//! test PRNG (see `tests/common` and the fabric's jitter hash): tiny,
//! statistically fine for scheduling, and trivially reproducible.

/// Deterministic splitmix64 PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A generator whose entire stream is determined by `seed`.
    pub fn new(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub(crate) fn usize_below(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, self.usize_below(i + 1));
        }
        perm
    }

    /// An independent generator derived from this one's stream, for
    /// components that must not perturb each other's draw sequence.
    pub(crate) fn fork(&mut self) -> SimRng {
        // Re-mix so the child's stream shares no prefix with the parent.
        SimRng::new(self.next_u64() ^ 0x5851_f42d_4c95_7f2d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let mut rng = SimRng::new(7);
        for n in [0usize, 1, 2, 5, 17] {
            let perm = rng.shuffled(n);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shuffles_vary_across_draws() {
        let mut rng = SimRng::new(9);
        let perms: Vec<Vec<usize>> = (0..16).map(|_| rng.shuffled(8)).collect();
        assert!(perms.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn f64_in_unit_interval_and_chance_extremes() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut parent = SimRng::new(11);
        let mut child = parent.fork();
        assert_ne!(
            (0..8).map(|_| parent.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| child.next_u64()).collect::<Vec<_>>()
        );
    }
}
