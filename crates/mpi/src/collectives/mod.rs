//! Native collectives, implemented as schedules advanced by the
//! `Collective_sched_progress` hook (the paper's Listing 1.1, entry 2).
//!
//! Every algorithm here is a pure function from `(rank, size, counts,
//! root, …)` to a step list ([`crate::sched::Step`]): which range of the
//! working buffer goes to which peer in which round, and whether what
//! comes back overwrites a range or is reduced into it. It touches no
//! communicator, so it can be checked for every rank count with no
//! threads and no transport (`check` below). The one interpreter in
//! [`crate::sched`] runs all of them — a task with multiple wait blocks
//! (paper Figure 2(c)) — and owns fault gating, tags and completion, so
//! those hold for every collective alike. Nonblocking entry points return
//! a [`CollFuture`]; blocking ones wait on it, driving the communicator's
//! stream, and surface a peer failure or revocation as `Err`.
//!
//! The *native* paths keep their full generality on purpose — datatype
//! dispatch, op indirection, non-power-of-two handling, count checks —
//! because that generality is exactly what the paper's Figure 13 measures
//! the user-level specialized allreduce against.
//!
//! | operation | step list | rounds |
//! |---|---|---|
//! | barrier | dissemination | ⌈log₂P⌉ |
//! | bcast | binomial tree; scatter + ring allgather for large payloads via `ibcast_auto` | ⌈log₂P⌉ + 1; P |
//! | reduce | binomial tree (commutative) | ⌈log₂P⌉ |
//! | allreduce | recursive doubling with non-pof2 fold-in (MPICH-style); ring (reduce-scatter + allgather) for large payloads via `iallreduce_auto` | log₂pof2 (+2); 2(P−1) |
//! | allgather | ring | P−1 |
//! | gather(v) / scatter(v) | linear | 1 |
//! | allgatherv | linear gather to rank 0 + binomial bcast | ⌈log₂P⌉ + 2 |
//! | alltoall | linear (pairwise) | 1 |
//! | reduce_scatter_block | pairwise exchange, reduced into the own block | 1 |
//! | scan / exscan | distance doubling (commutative ops) | ⌈log₂P⌉ |
//! | hierarchical allreduce / bcast / barrier | the trees above inside each node + the flat algorithm among node leaders, peers translated ([`node_size_from_env`]) | sum of the legs |

mod allgather;
mod allreduce;
mod alltoall;
mod barrier;
mod bcast;
mod bcast_sag;
mod future;
mod gather;
mod hier;
mod reduce;
mod reduce_scatter;
mod ring_allreduce;
mod scan;
mod scatter;
mod vcolls;

pub use future::CollFuture;
pub(crate) use future::CollOutput;
pub use hier::{node_size_from_env, ENV_NODE_SIZE};

use std::ops::Range;

use crate::comm::Comm;
use crate::error::{MpiError, MpiResult};

/// Rounds of a binomial tree or a doubling exchange over `n ≥ 1` ranks.
fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Block `i`'s element range for `count` elements over `size` ranks
/// (balanced partition; works for any count, including count < size).
fn block_range(count: usize, size: usize, i: usize) -> Range<usize> {
    let lo = i * count / size;
    let hi = (i + 1) * count / size;
    lo..hi
}

/// Block offsets of a count vector: `offsets(c)[i]..offsets(c)[i + 1]` is
/// rank `i`'s range of the concatenation.
fn offsets(counts: &[usize]) -> Vec<usize> {
    let mut offs = vec![0; counts.len() + 1];
    for (i, count) in counts.iter().enumerate() {
        offs[i + 1] = offs[i] + count;
    }
    offs
}

/// All ranks must agree on a collective's counts; this is the local half.
fn count_is(got: usize, expected: usize) -> MpiResult<()> {
    if got != expected {
        return Err(MpiError::CountMismatch { got, expected });
    }
    Ok(())
}

impl Comm {
    /// The contribution of this rank to a collective whose input lives at
    /// `root`: there, `data` must be present with `expected` elements;
    /// elsewhere it is ignored.
    fn rooted_input<'a, T>(
        &self,
        data: Option<&'a [T]>,
        expected: usize,
        root: i32,
    ) -> MpiResult<&'a [T]> {
        self.check_rank(root)?;
        if self.rank() != root {
            return Ok(&[]);
        }
        let data = data.unwrap_or(&[]);
        count_is(data.len(), expected)?;
        Ok(data)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::proc::Proc;
    use crate::world::{World, WorldConfig};

    /// Run `f(proc)` on one thread per rank and return the outputs in rank
    /// order. The standard harness for collective tests.
    pub fn run_ranks<R: Send>(n: usize, f: impl Fn(Proc) -> R + Send + Sync) -> Vec<R> {
        run_ranks_cfg(WorldConfig::instant(n), f)
    }

    /// `run_ranks` with an explicit world configuration.
    pub(crate) fn run_ranks_cfg<R: Send>(
        cfg: WorldConfig,
        f: impl Fn(Proc) -> R + Send + Sync,
    ) -> Vec<R> {
        let procs = World::init(cfg);
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = procs.into_iter().map(|p| s.spawn(move || f(p))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

/// The schedule checker: every rank's step list run against an in-memory
/// mailbox — no `World`, no threads, no transport — for every algorithm,
/// rank count, root and a spread of counts and types, against a serial
/// reference.
#[cfg(test)]
mod check {
    use std::collections::VecDeque;

    use crate::op::{Op, Reducible};
    use crate::sched::{check_rounds, round_end, Plan, Step, Work};

    use super::allgather::allgather;
    use super::allreduce::allreduce_rd;
    use super::alltoall::alltoall;
    use super::barrier::barrier;
    use super::bcast::bcast;
    use super::bcast_sag::bcast_sag;
    use super::gather::gather;
    use super::hier::{hier_allreduce, hier_bcast};
    use super::reduce::reduce;
    use super::reduce_scatter::reduce_scatter_block;
    use super::ring_allreduce::allreduce_ring;
    use super::scan::scan;
    use super::scatter::scatter;
    use super::vcolls::allgatherv;

    /// Element types under test; values stay small so that an `f64` sum is
    /// exact in any order (and `u8` sums wrap, in any order).
    trait Elem: Reducible {
        fn of(x: usize) -> Self;
    }
    impl Elem for u8 {
        fn of(x: usize) -> u8 {
            x as u8
        }
    }
    impl Elem for i64 {
        fn of(x: usize) -> i64 {
            x as i64 - 5000
        }
    }
    impl Elem for f64 {
        fn of(x: usize) -> f64 {
            x as f64
        }
    }

    fn input<T: Elem>(rank: usize, len: usize) -> Vec<T> {
        (0..len).map(|i| T::of(rank * 37 + i * 11 + 1)).collect()
    }

    /// Element-wise sum of equal-length vectors, in rank order.
    fn fold<T: Elem>(parts: &[Vec<T>]) -> Vec<T> {
        let mut acc = parts[0].clone();
        for part in &parts[1..] {
            Op::Sum.apply(&mut acc, part).unwrap();
        }
        acc
    }

    struct Rank<T> {
        work: Work<T>,
        pc: usize,
        round: usize,
        issued: bool,
    }

    /// Interpret all plans until none can move, and return each rank's
    /// buffer and whether it finished. Fails if a payload does not fit
    /// its receive exactly.
    fn drive<T: Elem>(what: &str, plans: &[Plan], inputs: &[Vec<T>]) -> Vec<(Vec<T>, bool)> {
        let mut ranks: Vec<Rank<T>> = plans
            .iter()
            .zip(inputs)
            .map(|(plan, data)| {
                check_rounds(&plan.steps).unwrap();
                Rank {
                    work: Work::new(plan, data),
                    pc: 0,
                    round: 0,
                    issued: false,
                }
            })
            .collect();
        // One FIFO per (from, to) pair of payloads stamped with their
        // round: the matching rule. Both ends walk their rounds in order,
        // so a receive can only ever match the head of its pair's queue.
        let p = plans.len();
        let mut mail: Vec<VecDeque<(usize, Vec<u8>)>> = vec![VecDeque::new(); p * p];
        let mut wanted = vec![0; p];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (me, (rank, plan)) in ranks.iter_mut().zip(plans).enumerate() {
                if rank.pc == plan.steps.len() {
                    continue;
                }
                let round = &plan.steps[rank.pc..round_end(&plan.steps, rank.pc)];
                let recvs = || {
                    round.iter().filter_map(|step| match step {
                        Step::Recv { from, dst, .. } => Some((*from, dst.len())),
                        _ => None,
                    })
                };
                if !rank.issued {
                    for step in round {
                        if let Step::Send { to, src } = step {
                            assert_ne!(*to, me, "{what}: rank {me} sends to itself");
                            let payload = rank.work.payload(src).to_vec();
                            mail[me * p + to].push_back((rank.round, payload));
                        }
                    }
                    rank.issued = true;
                    progressed = true;
                }
                let mut arrived = true;
                for (from, _) in recvs() {
                    let next = mail[from * p + me].get(wanted[from]);
                    arrived &= next.is_some_and(|(round, _)| *round == rank.round);
                    wanted[from] += 1;
                }
                recvs().for_each(|(from, _)| wanted[from] = 0);
                if !arrived {
                    continue;
                }
                let mut landed = Vec::new();
                for (from, len) in recvs() {
                    let (_, payload) = mail[from * p + me].pop_front().unwrap();
                    let at = format!("{what}: rank {me} round {} from {from}", rank.round);
                    assert_eq!(payload.len(), len * T::SIZE, "{at}");
                    landed.push(payload);
                }
                let reduce = Some((Op::Sum, Op::apply::<T> as _));
                rank.work.land_round(round, landed.into_iter(), reduce);
                rank.pc = (rank.pc + round.len() + 1).min(plan.steps.len());
                rank.round += 1;
                rank.issued = false;
                progressed = true;
            }
        }
        let finished = |(mut rank, plan): (Rank<T>, &Plan)| {
            (rank.work.take_buf(), rank.pc == plan.steps.len())
        };
        let outcome: Vec<_> = ranks.into_iter().zip(plans).map(finished).collect();
        if outcome.iter().all(|(_, finished)| *finished) {
            let unreceived: usize = mail.iter().map(VecDeque::len).sum();
            assert_eq!(unreceived, 0, "{what}: sends without a receive");
        }
        outcome
    }

    /// Build every rank's plan with `plan_of`, run them on `inputs`, and
    /// compare with `expect`.
    fn check<T: Elem>(
        what: &str,
        inputs: &[Vec<T>],
        plan_of: impl Fn(usize) -> Plan,
        expect: impl Fn(usize) -> Vec<T>,
    ) {
        let plans: Vec<Plan> = (0..inputs.len()).map(plan_of).collect();
        let got = drive(what, &plans, inputs);
        for (rank, ((buf, finished), plan)) in got.iter().zip(&plans).enumerate() {
            assert!(finished, "{what}: rank {rank} deadlocked");
            assert_eq!(buf[plan.out.clone()], expect(rank), "{what}: rank {rank}");
        }
    }

    /// Expected results of a rooted collective: `v` at the root, nothing
    /// elsewhere.
    fn at_root<T: Elem>(root: usize, v: &[T]) -> impl Fn(usize) -> Vec<T> + '_ {
        move |r| if r == root { v.to_vec() } else { Vec::new() }
    }

    /// Every algorithm at `p` ranks and `count` elements, every root.
    fn algorithms<T: Elem>(p: usize, count: usize) {
        let tag =
            |name: &str, root: usize| format!("{name} {} p={p} n={count} root={root}", T::NAME);
        let own: Vec<Vec<T>> = (0..p).map(|r| input(r, count)).collect();
        let wide: Vec<Vec<T>> = (0..p).map(|r| input(r, count * p)).collect();
        let none: Vec<Vec<T>> = vec![Vec::new(); p];
        let concat = own.concat();
        let total = fold(&own);
        let in_place = |steps: Vec<Step>| Plan::in_place(steps, count);
        let only = |root: usize, v: &[T]| -> Vec<Vec<T>> { (0..p).map(at_root(root, v)).collect() };
        let block = |v: &[T], i: usize| v[i * count..(i + 1) * count].to_vec();

        check(
            &tag("barrier", 0),
            &none,
            |r| Plan::in_place(barrier(r, p), 0),
            |_| Vec::new(),
        );
        check(
            &tag("allreduce_rd", 0),
            &own,
            |r| in_place(allreduce_rd(r, p, count)),
            |_| total.clone(),
        );
        check(
            &tag("allreduce_ring", 0),
            &own,
            |r| in_place(allreduce_ring(r, p, count)),
            |_| total.clone(),
        );
        check(
            &tag("allgather", 0),
            &own,
            |r| allgather(r, p, count),
            |_| concat.clone(),
        );
        check(
            &tag("alltoall", 0),
            &wide,
            |r| alltoall(r, p, count),
            |r| wide.iter().flat_map(|w| block(w, r)).collect(),
        );
        check(
            &tag("reduce_scatter_block", 0),
            &wide,
            |r| reduce_scatter_block(r, p, count),
            |r| fold(&wide.iter().map(|w| block(w, r)).collect::<Vec<_>>()),
        );
        check(
            &tag("scan", 0),
            &own,
            |r| scan(r, p, count, false),
            |r| fold(&own[..=r]),
        );
        check(
            &tag("exscan", 0),
            &own,
            |r| scan(r, p, count, true),
            |r| match r {
                0 => Vec::new(),
                _ => fold(&own[..r]),
            },
        );
        // Ragged counts for the v variants: rank r holds (count + r) mod 7.
        let counts: Vec<usize> = (0..p).map(|r| (count + r) % 7).collect();
        let ragged: Vec<Vec<T>> = (0..p).map(|r| input(r, counts[r])).collect();
        let ragged_concat = ragged.concat();
        check(
            &tag("allgatherv", 0),
            &ragged,
            |r| allgatherv(r, &counts),
            |_| ragged_concat.clone(),
        );
        let equal = vec![count; p];
        for root in 0..p {
            let from_root = only(root, &own[root]);
            check(
                &tag("bcast", root),
                &from_root,
                |r| bcast(r, p, count, root),
                |_| own[root].clone(),
            );
            check(
                &tag("bcast_sag", root),
                &from_root,
                |r| in_place(bcast_sag(r, p, count, root)),
                |_| own[root].clone(),
            );
            check(
                &tag("reduce", root),
                &own,
                |r| reduce(r, p, count, root),
                at_root(root, &total),
            );
            check(
                &tag("gather", root),
                &own,
                |r| gather(r, &equal, root),
                at_root(root, &concat),
            );
            check(
                &tag("gatherv", root),
                &ragged,
                |r| gather(r, &counts, root),
                at_root(root, &ragged_concat),
            );
            check(
                &tag("scatter", root),
                &only(root, &concat),
                |r| scatter(r, &equal, root),
                |r| own[r].clone(),
            );
            check(
                &tag("scatterv", root),
                &only(root, &ragged_concat),
                |r| scatter(r, &counts, root),
                |r| ragged[r].clone(),
            );
        }
        for node in [1, 3, 8, p + 1] {
            for ring in [false, true] {
                let name = format!("hier_allreduce node={node} ring={ring}");
                check(
                    &tag(&name, 0),
                    &own,
                    |r| in_place(hier_allreduce(r, p, node, count, ring)),
                    |_| total.clone(),
                );
            }
            for (root, payload) in own.iter().enumerate() {
                let name = format!("hier_bcast node={node}");
                check(
                    &tag(&name, root),
                    &only(root, payload),
                    |r| in_place(hier_bcast(r, p, node, count, root)),
                    |_| payload.clone(),
                );
            }
        }
    }

    fn every_size<T: Elem>() {
        for p in 1..=33 {
            for count in [0, 1, p - 1, p, 1000] {
                algorithms::<T>(p, count);
            }
        }
    }

    #[test]
    fn every_algorithm_matches_the_serial_reference_u8() {
        every_size::<u8>();
    }

    #[test]
    fn every_algorithm_matches_the_serial_reference_i64() {
        every_size::<i64>();
    }

    #[test]
    fn every_algorithm_matches_the_serial_reference_f64() {
        every_size::<f64>();
    }

    /// The hierarchical barrier is the hierarchical allreduce of nothing;
    /// what makes it a barrier is that no rank can finish before every
    /// rank has started. Hold one rank back and watch nobody finish.
    #[test]
    fn hier_barrier_releases_nobody_early() {
        for (p, node) in [(6, 2), (8, 3), (9, 4), (5, 8), (7, 1)] {
            for late in 0..p {
                let mut plans: Vec<Plan> = (0..p)
                    .map(|r| Plan::in_place(hier_allreduce(r, p, node, 0, false), 0))
                    .collect();
                // The late rank never gets to its own list: it waits on a
                // message nobody sends.
                plans[late].steps = vec![Step::recv(late, 0..0), Step::Barrier];
                let outcome = drive::<u8>("late", &plans, &vec![Vec::new(); p]);
                let left: Vec<usize> = (0..p).filter(|&r| outcome[r].1).collect();
                assert!(
                    left.is_empty(),
                    "p={p} node={node} late={late}: {left:?} left"
                );
            }
        }
    }
}
