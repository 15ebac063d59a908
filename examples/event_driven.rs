//! Event-driven programming over MPI — Sections 4.5 and 4.6.
//!
//! * Request-completion callbacks (Listing 1.6) via the
//!   `CompletionNotifier` scan hook.
//! * A generalized request completed from inside an `MPIX_Async` poll
//!   (Listing 1.7), waited on with plain `MPI_Wait`.
//! * An `MPIX_Continue` continuation request (Section 5.4).
//!
//! Run with: `cargo run --release --example event_driven`

use mpfa::cont::ContinuationRequest;
use mpfa::core::{grequest_start, wtime, AsyncPoll, CompletionCounter, NoopOps};
use mpfa::interop::CompletionNotifier;
use mpfa::mpi::{Proc, World, WorldConfig};

fn main() {
    let procs = World::init(WorldConfig::instant(2));
    std::thread::scope(|s| {
        for proc in procs {
            s.spawn(move || rank_main(proc));
        }
    });
    println!("event_driven: all ranks finished");
}

fn rank_main(proc: Proc) {
    let comm = proc.world_comm();
    let stream = comm.stream().clone();
    let rank = comm.rank();
    let peer = 1 - rank;

    // --- Listing 1.6: completion callbacks over a request array ---------
    let notifier = CompletionNotifier::new(&stream);
    let fired = CompletionCounter::new(4);
    for tag in 0..4 {
        let recv = comm.irecv::<i32>(1, peer, tag).unwrap();
        let f = fired.clone();
        notifier.watch(recv.request(), move |status| {
            assert_eq!(status.tag, tag);
            f.done();
        });
        comm.isend(&[tag], peer, tag).unwrap();
    }
    while !fired.is_zero() {
        stream.progress();
    }
    if rank == 0 {
        println!("rank 0: 4 completion callbacks fired (Listing 1.6)");
    }

    // --- Listing 1.7: generalized request + MPIX_Async -------------------
    let (greq_request, greq) = grequest_start(&stream, NoopOps);
    let deadline = wtime() + 0.002;
    let mut greq = Some(greq);
    stream.async_start(move |_thing| {
        if wtime() > deadline {
            greq.take().expect("completes once").complete(); // MPI_Grequest_complete
            AsyncPoll::Done
        } else {
            AsyncPoll::Pending
        }
    });
    // MPI_Wait replaces the manual wait loop of Listing 1.3.
    let status = greq_request.wait();
    assert!(!status.cancelled);
    if rank == 0 {
        println!("rank 0: generalized request completed via MPIX_Async (Listing 1.7)");
    }

    // --- MPIX_Continue: a continuation request ---------------------------
    let ctx = ContinuationRequest::new(&stream);
    let recv = comm.irecv::<f64>(3, peer, 9).unwrap();
    let done = CompletionCounter::new(1);
    let d = done.clone();
    ctx.attach(&recv.request(), move |res| {
        assert_eq!(res.expect("receive succeeds").bytes, 24);
        d.done();
    });
    comm.isend(&[1.0f64, 2.0, 3.0], peer, 9).unwrap();
    let cont_req = ctx.start();
    cont_req.wait();
    assert!(done.is_zero());
    if rank == 0 {
        println!("rank 0: continuation request completed (Section 5.4)");
    }

    proc.finalize(1.0);
}
