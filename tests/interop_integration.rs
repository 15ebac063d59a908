//! Integration of the user-level layer (mpfa-interop) and the baselines
//! (mpfa-baselines) over the full runtime.

mod common;

use common::{run_ranks, Coop};
use mpfa::baselines::polling::{wait_all_by_stream_progress, wait_all_by_testing};
use mpfa::baselines::GlobalProgressThread;
use mpfa::core::Request;
use mpfa::interop::user_coll::{my_allreduce, my_barrier, my_iallreduce};
use mpfa::interop::{ProgressEngine, ScheduleBuilder};
use mpfa::mpi::{Op, WorldConfig};

#[test]
fn user_allreduce_equals_native_on_various_configs() {
    for cfg in [
        WorldConfig::instant(4),
        WorldConfig::cluster(8),
        WorldConfig::single_node(2),
    ] {
        let results = run_ranks(cfg, |proc| {
            let comm = proc.world_comm();
            let data: Vec<i32> = (0..16).map(|i| i * (proc.rank() as i32 + 2)).collect();
            let native = comm.allreduce(&data, Op::Sum).unwrap();
            let user = my_allreduce(&comm, data).unwrap();
            native == user
        });
        assert!(results.iter().all(|&eq| eq));
    }
}

#[test]
fn user_barrier_composes_with_native_collectives() {
    let results = run_ranks(WorldConfig::instant(4), |proc| {
        let comm = proc.world_comm();
        for _ in 0..5 {
            my_barrier(&comm).unwrap();
            let out = comm.allreduce(&[1i32], Op::Sum).unwrap();
            assert_eq!(out[0], 4);
            comm.barrier().unwrap();
        }
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn coop_user_allreduce_many_rounds() {
    let w = Coop::new(WorldConfig::instant(8));
    let comms = w.comms();
    for round in 0..10i32 {
        let futs: Vec<_> = comms
            .iter()
            .map(|c| my_iallreduce(c, vec![round + c.rank()]).unwrap())
            .collect();
        w.drive(|| futs.iter().all(|f| f.is_complete()), 1_000_000);
        for f in futs {
            assert_eq!(f.take()[0], 8 * round + 28);
        }
    }
}

#[test]
fn schedule_expresses_a_coordinated_exchange() {
    // MPIX_Schedule-style: round 1 = exchange with peer, round 2 = second
    // exchange that must start only after round 1 completed everywhere on
    // this rank.
    let results = run_ranks(WorldConfig::instant(2), |proc| {
        let comm = proc.world_comm();
        let stream = comm.stream().clone();
        let peer = 1 - comm.rank();

        let mut sched = ScheduleBuilder::new();
        let c1 = comm.clone();
        sched.add_operation(move || c1.isend(&[1u8; 64], peer, 1).unwrap());
        let c2 = comm.clone();
        sched.add_operation(move || c2.irecv::<u8>(64, peer, 1).unwrap().request());
        sched.create_round();
        let c3 = comm.clone();
        sched.add_operation(move || c3.isend(&[2u8; 64], peer, 2).unwrap());
        let c4 = comm.clone();
        sched.add_operation(move || c4.irecv::<u8>(64, peer, 2).unwrap().request());

        let req = sched.commit(&stream);
        let status = req.wait();
        assert!(!status.cancelled);
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn progress_engine_serves_blocking_free_tasks() {
    // §3.5: tasks never call progress; a ProgressEngine drives the stream.
    let results = run_ranks(WorldConfig::instant(2), |proc| {
        let comm = proc.world_comm();
        let engine = ProgressEngine::spawn(comm.stream().clone());
        let peer = 1 - comm.rank();
        let recv = comm.irecv::<i64>(8, peer, 1).unwrap();
        comm.isend(&[comm.rank() as i64; 8], peer, 1).unwrap();
        // Task-side wait block: spin on is_complete only.
        let status = engine.await_request(&recv.request());
        assert_eq!(status.source, peer);
        engine.stop();
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn global_progress_thread_drives_mpi_traffic() {
    // The §5.1 baseline still *works* (it is a performance problem, not a
    // correctness one).
    let results = run_ranks(WorldConfig::instant(2), |proc| {
        let comm = proc.world_comm();
        let bg = GlobalProgressThread::enable(comm.stream());
        let peer = 1 - comm.rank();
        let recv = comm.irecv::<u8>(100_000, peer, 1).unwrap(); // rendezvous
        let send = comm.isend(&vec![3u8; 100_000], peer, 1).unwrap();
        // The app thread only spins on completion; the bg thread moves the
        // protocol — the peer's receive too, until this send is done.
        let req = recv.request();
        while !(req.is_complete() && send.is_complete()) {
            std::hint::spin_loop();
        }
        bg.disable();
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn polling_baselines_complete_real_requests() {
    let results = run_ranks(WorldConfig::instant(2), |proc| {
        let comm = proc.world_comm();
        let peer = 1 - comm.rank();
        let reqs: Vec<Request> = (0..16)
            .map(|tag| {
                let r = comm.irecv::<u32>(4, peer, tag).unwrap();
                comm.isend(&[tag as u32; 4], peer, tag).unwrap();
                r.request()
            })
            .collect();
        let (statuses, stats) = wait_all_by_testing(&reqs);
        assert_eq!(statuses.len(), 16);
        assert!(stats.tests >= 16);

        // And the stream-progress variant on a second batch.
        let reqs2: Vec<Request> = (100..116)
            .map(|tag| {
                let r = comm.irecv::<u32>(4, peer, tag).unwrap();
                comm.isend(&[tag as u32; 4], peer, tag).unwrap();
                r.request()
            })
            .collect();
        let (statuses2, _calls) = wait_all_by_stream_progress(comm.stream(), &reqs2);
        assert_eq!(statuses2.len(), 16);
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn vector_datatype_ops_through_engine() {
    use mpfa::mpi::Layout;
    let results = run_ranks(WorldConfig::instant(2), |proc| {
        let comm = proc.world_comm();
        let layout = Layout::Vector {
            count: 50,
            blocklen: 3,
            stride: 5,
        };
        if comm.rank() == 0 {
            let data: Vec<i32> = (0..250).collect();
            comm.isend_vector(&data, layout, 1, 1).unwrap().wait();
            Vec::new()
        } else {
            let recv = comm.irecv_vector::<i32>(layout, 0, 1).unwrap();
            recv.wait().0
        }
    });
    let original: Vec<i32> = (0..250).collect();
    let packed = {
        use mpfa::mpi::datatype::Layout as L;
        let l = L::Vector {
            count: 50,
            blocklen: 3,
            stride: 5,
        };
        l.pack(&original)
    };
    let mut expect = vec![0i32; 248]; // extent = 49*5 + 3
    {
        use mpfa::mpi::datatype::Layout as L;
        let l = L::Vector {
            count: 50,
            blocklen: 3,
            stride: 5,
        };
        l.unpack(&packed, &mut expect);
    }
    assert_eq!(results[1], expect);
}
