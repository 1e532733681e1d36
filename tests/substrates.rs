//! Cross-substrate composition tests: the parallel runtime, the MPI
//! substrate, and the SVE layer working together — the hybrid
//! MPI+OpenMP(+SIMD) execution model of the paper's platform.

use a64fx_qcs::mpi::collectives::ReduceOp;
use a64fx_qcs::mpi::World;
use a64fx_qcs::omp::{Schedule, ThreadPool};
use a64fx_qcs::sve::{SveCtx, Vl};

#[test]
fn openmp_inside_mpi_ranks() {
    // Each rank runs its own thread pool over its slice — the classic
    // hybrid decomposition. Global sum must match the serial result.
    let n_total = 1 << 16;
    let results = World::run(4, move |comm| {
        let slice = n_total / comm.size();
        let start = comm.rank() * slice;
        let pool = ThreadPool::new(3);
        let local = pool.parallel_reduce(
            start..start + slice,
            Schedule::Static { chunk: None },
            || 0.0f64,
            |acc, r| acc + r.map(|i| (i as f64).sqrt()).sum::<f64>(),
            |a, b| a + b,
        );
        comm.allreduce_scalar(ReduceOp::Sum, local)
    });
    let serial: f64 = (0..n_total).map(|i| (i as f64).sqrt()).sum();
    for r in results {
        assert!((r - serial).abs() / serial < 1e-12);
    }
}

#[test]
fn sve_kernels_inside_mpi_ranks() {
    // Each rank runs a counted SVE daxpy on its slice; instruction counts
    // must be identical across ranks (same slice sizes) and the collected
    // data must match the serial computation.
    let n = 4096usize;
    let results = World::run(4, move |comm| {
        let slice = n / comm.size();
        let mut ctx = SveCtx::new(Vl::A64FX);
        let x: Vec<f64> = (0..slice).map(|i| (comm.rank() * slice + i) as f64).collect();
        let mut y = vec![1.0f64; slice];
        // VLA daxpy.
        let a = ctx.splat(2.0);
        let mut i = 0;
        let mut p = ctx.whilelt(i, slice);
        while ctx.any(p) {
            let vx = ctx.load(p, &x[i..]);
            let vy = ctx.load(p, &y[i..]);
            let r = ctx.fma(vy, a, vx);
            ctx.store(r, p, &mut y[i..]);
            i += ctx.lanes();
            p = ctx.whilelt(i, slice);
        }
        let gathered = comm.allgather(&y);
        (ctx.counts().total(), gathered)
    });
    let (count0, full) = &results[0];
    for (c, data) in &results {
        assert_eq!(c, count0, "identical slices, identical instruction counts");
        assert_eq!(data, full);
    }
    for (i, &v) in full.iter().enumerate() {
        assert_eq!(v, 1.0 + 2.0 * i as f64);
    }
}

#[test]
fn threaded_simulation_inside_mpi_ranks() {
    // Full hybrid: every rank simulates the same generated circuit with
    // its own thread pool; all ranks must agree bit-for-bit
    // (deterministic kernels + deterministic reduction order). The
    // shared seeded generator guarantees every rank builds the same
    // circuit without communicating it.
    use a64fx_qcs::core::prelude::*;
    use a64fx_qcs::core::testing;
    let results = World::run(3, |comm| {
        let c = testing::random_circuit_seeded(8, 40, 1234);
        let mut s = StateVector::zero(8);
        SimConfig::new().threads(2).build().unwrap().run(&c, &mut s).unwrap();
        (comm.rank(), s.probabilities())
    });
    for (rank, r) in &results[1..] {
        assert_eq!(r, &results[0].1, "rank {rank} diverged");
    }
}

#[test]
fn batched_simulation_inside_mpi_ranks() {
    // Gate-major batching composes with the MPI substrate when each
    // rank owns whole members: a rank batching 4 members must produce
    // states bit-identical to every other rank's (same circuit, same
    // deterministic kernels), and to a serial single run.
    use a64fx_qcs::core::prelude::*;
    use a64fx_qcs::core::testing;
    let c = testing::random_circuit_seeded(7, 30, 77);
    let mut reference = StateVector::zero(7);
    SimConfig::new().build().unwrap().run(&c, &mut reference).unwrap();
    let results = World::run(2, |_comm| {
        let c = testing::random_circuit_seeded(7, 30, 77);
        let engine = BatchSimulator::from_config(SimConfig::new().threads(2).batch(4)).unwrap();
        let (states, report) = engine.run_fresh(&c).unwrap();
        assert_eq!(report.members, 4);
        states
    });
    for states in &results {
        for s in states {
            assert!(s.approx_eq(&reference, 0.0), "batched member diverged from serial run");
        }
    }
}

#[test]
fn nonblocking_halo_exchange_pattern() {
    // The stencil-style pattern the miniapp papers use: post irecvs for
    // both neighbours, isend both halos, wait, verify.
    let results = World::run(4, |comm| {
        let me = comm.rank();
        let n = comm.size();
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;
        let r_left = comm.irecv(left, 1);
        let r_right = comm.irecv(right, 2);
        comm.isend(right, 1, &[me as u64]); // my id travels right as tag 1
        comm.isend(left, 2, &[me as u64]); // and left as tag 2
        let (_, from_left) = comm.wait::<u64>(r_left);
        let (_, from_right) = comm.wait::<u64>(r_right);
        (from_left[0], from_right[0])
    });
    for (me, &(l, r)) in results.iter().enumerate() {
        let n = results.len();
        assert_eq!(l as usize, (me + n - 1) % n);
        assert_eq!(r as usize, (me + 1) % n);
    }
}

#[test]
fn scatter_compute_gather_pipeline() {
    // Data-parallel master/worker: scatter rows, square them in a
    // thread pool, gather results.
    let results = World::run(4, |comm| {
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mine = comm.scatter(0, if comm.rank() == 0 { Some(&data[..]) } else { None });
        let pool = ThreadPool::new(2);
        let squared: Vec<f64> = {
            let out = std::sync::Mutex::new(vec![0.0; mine.len()]);
            pool.parallel_for(0..mine.len(), Schedule::Static { chunk: None }, |r| {
                let mut g = out.lock().unwrap();
                for i in r {
                    g[i] = mine[i] * mine[i];
                }
            });
            out.into_inner().unwrap()
        };
        comm.gather(0, &squared)
    });
    let gathered = results[0].as_ref().expect("root has the gather");
    for (i, &v) in gathered.iter().enumerate() {
        assert_eq!(v, (i * i) as f64);
    }
}
