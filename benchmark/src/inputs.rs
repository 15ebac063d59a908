//! Seeded input generation. The program under test sees only what is
//! generated here: task deadlines, tag order, wildcard placement and
//! payload bytes all derive from `--seed`, and the same seed gives the
//! same inputs byte for byte.

/// splitmix64: small, seedable, and good enough to shuffle and fill.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// `tasks64`: pending tasks per batch, and how many distinct batches of
/// deadlines are generated before the table repeats.
pub const TASKS: usize = 64;
pub const TASK_BATCHES: usize = 64;
/// `msgrate_shm`: messages per window, their size, and the tag count.
pub const WINDOW: usize = 1024;
pub const MSG_BYTES: usize = 32;
pub const TAGS: usize = 16;

/// One receive of a `msgrate_shm` window, in post order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSpec {
    pub tag: i32,
    /// Post with `ANY_SOURCE` (the wildcard side-queue) instead of the
    /// sender's rank (an exact bucket).
    pub any_source: bool,
}

/// Everything a workload is fed. Fields a workload does not use are empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Inputs {
    /// `tasks64`: deadline leads in seconds, `TASK_BATCHES * TASKS` of
    /// them, uniform in 0.2–1.2 ms.
    pub leads: Vec<f64>,
    /// Pingpongs and `async_pingpong_sim`: the message body.
    pub payload: Vec<u8>,
    /// `msgrate_shm`: the window's bodies in send order (tag-major:
    /// message `i` carries tag `i / (WINDOW / TAGS)`).
    pub messages: Vec<Vec<u8>>,
    /// `msgrate_shm`: the window's receives in post order.
    pub recvs: Vec<RecvSpec>,
    /// Allreduce: rank `r` contributes `a[i] + r * b[i]`.
    pub a: Vec<u64>,
    pub b: Vec<u64>,
}

impl Inputs {
    pub fn generate(workload: &str, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x6d70_6661); // "mpfa"
        let mut inp = Inputs::default();
        match workload {
            "tasks64" => {
                inp.leads = (0..TASK_BATCHES * TASKS)
                    .map(|_| 0.2e-3 + rng.f64() * 1.0e-3)
                    .collect();
            }
            "msgrate_shm" => {
                inp.messages = (0..WINDOW).map(|_| rng.bytes(MSG_BYTES)).collect();
                // Every tag gets WINDOW/TAGS receives; the seed decides
                // the order they are posted in and which are wildcards.
                let mut tags: Vec<i32> = (0..WINDOW).map(|i| (i % TAGS) as i32).collect();
                for i in (1..tags.len()).rev() {
                    tags.swap(i, rng.below(i + 1));
                }
                inp.recvs = tags
                    .into_iter()
                    .map(|tag| RecvSpec {
                        tag,
                        any_source: rng.below(8) == 0,
                    })
                    .collect();
            }
            "pingpong_tcp_4k" => inp.payload = rng.bytes(4 << 10),
            "pingpong_shm_1m" => inp.payload = rng.bytes(1 << 20),
            "async_pingpong_sim" => inp.payload = rng.bytes(8),
            "allreduce_tcp_64b" | "allreduce_tcp_512k" => {
                let n = if workload == "allreduce_tcp_64b" {
                    8
                } else {
                    65536
                };
                // Small enough that the closed form never wraps.
                inp.a = (0..n).map(|_| rng.u64() >> 24).collect();
                inp.b = (0..n).map(|_| rng.u64() >> 40).collect();
            }
            other => panic!("unknown workload {other}"),
        }
        inp
    }
}

/// Position-sensitive checksum, fast enough to run on every receive of a
/// 1 MiB payload: four independent rotate-xor lanes over u64 words (so the
/// CPU overlaps them), folded with distinct multipliers.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (l, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            *l = l.rotate_left(1) ^ u64::from_le_bytes(w.try_into().expect("8 bytes"));
        }
    }
    let mut acc = bytes.len() as u64;
    for &b in chunks.remainder() {
        acc = acc.rotate_left(8) ^ b as u64;
    }
    for (l, k) in lanes.iter().zip([3u64, 5, 7, 11]) {
        acc = acc.rotate_left(17) ^ l.wrapping_mul(k | 0x9E37_79B9_0000_0000);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in WORKLOADS {
            let a = Inputs::generate(w.name, 7);
            let b = Inputs::generate(w.name, 7);
            assert_eq!(a, b);
            assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
            assert_ne!(a, Inputs::generate(w.name, 8), "{}: seed ignored", w.name);
        }
    }

    #[test]
    fn msgrate_window_is_balanced() {
        let inp = Inputs::generate("msgrate_shm", 3);
        assert_eq!(inp.recvs.len(), WINDOW);
        for tag in 0..TAGS as i32 {
            let n = inp.recvs.iter().filter(|r| r.tag == tag).count();
            assert_eq!(n, WINDOW / TAGS);
        }
        let wild = inp.recvs.iter().filter(|r| r.any_source).count();
        assert!(
            (WINDOW / 16..WINDOW / 4).contains(&wild),
            "{wild} wildcards"
        );
    }

    #[test]
    fn checksum_sees_position_and_length() {
        let a = Rng::new(1).bytes(4096);
        let mut swapped = a.clone();
        swapped.swap(8, 4000);
        assert_ne!(checksum(&a), checksum(&swapped));
        let mut flipped = a.clone();
        flipped[1000] ^= 1;
        assert_ne!(checksum(&a), checksum(&flipped));
        assert_ne!(checksum(&a), checksum(&a[..4095]));
    }
}
