//! Criterion microbenchmarks of the gate-application kernels.
//!
//! Complements the E1/E3 experiment binaries with statistically robust
//! per-kernel timings: dense vs diagonal vs controlled vs fused, across
//! target-qubit positions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use omp_par::Schedule;
use qcs_bench::bench_state;
use qcs_core::complex::C64;
use qcs_core::fusion::fuse;
use qcs_core::gates::matrices::DenseMatrix;
use qcs_core::gates::standard;
use qcs_core::kernels::{scalar, simd, sweep};
use qcs_core::library;

const N: u32 = 16;

fn bench_1q_targets(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_1q_target");
    group.throughput(Throughput::Bytes((1u64 << N) * 32));
    group.sample_size(20);
    let h = standard::h();
    for t in [0u32, 4, 8, 15] {
        let mut state = bench_state(N, 1);
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| scalar::apply_1q(state.amplitudes_mut(), t, &h));
        });
    }
    group.finish();
}

fn bench_kernel_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_shapes");
    group.throughput(Throughput::Bytes((1u64 << N) * 32));
    group.sample_size(20);
    let t = 8u32;

    let mut state = bench_state(N, 2);
    group.bench_function("dense_1q", |b| {
        let m = standard::u3(0.3, 0.5, 0.7);
        b.iter(|| scalar::apply_1q(state.amplitudes_mut(), t, &m));
    });

    let mut state = bench_state(N, 3);
    group.bench_function("diag_1q", |b| {
        let d0 = C64::exp_i(0.1);
        let d1 = C64::exp_i(-0.2);
        b.iter(|| scalar::apply_1q_diag(state.amplitudes_mut(), t, d0, d1));
    });

    let mut state = bench_state(N, 4);
    group.bench_function("pauli_x", |b| {
        b.iter(|| scalar::apply_x(state.amplitudes_mut(), t));
    });

    let mut state = bench_state(N, 5);
    group.bench_function("controlled_1q", |b| {
        let m = standard::ry(0.4);
        b.iter(|| scalar::apply_controlled_1q(state.amplitudes_mut(), 3, t, &m));
    });

    let mut state = bench_state(N, 6);
    group.bench_function("dense_2q", |b| {
        let m = standard::rxx_mat(0.6);
        b.iter(|| scalar::apply_2q(state.amplitudes_mut(), 3, t, &m));
    });

    group.finish();
}

fn bench_fused_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kq");
    group.throughput(Throughput::Bytes((1u64 << N) * 32));
    group.sample_size(10);
    for k in [2u32, 3, 4, 5] {
        // A dense k-qubit unitary from a fused rotation block.
        let circuit = library::rotation_layers(k, 2, 0.3);
        let plan = fuse(&circuit, k);
        let m: DenseMatrix = plan[0].matrix.clone();
        let qubits: Vec<u32> = (0..k).collect();
        let mut state = bench_state(N, 10 + k as u64);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| scalar::apply_kq(state.amplitudes_mut(), &qubits, &m));
        });
    }
    group.finish();
}

fn bench_simd_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_backends");
    group.throughput(Throughput::Bytes((1u64 << N) * 32));
    group.sample_size(20);
    let t = 8u32;
    let u = standard::u3(0.3, 0.5, 0.7);
    let rxx = standard::rxx_mat(0.6);
    let serial = Schedule::default();

    for be in simd::available() {
        let mut state = bench_state(N, 7);
        group.bench_with_input(BenchmarkId::new("dense_1q", be.name), &be, |b, be| {
            b.iter(|| sweep::apply_1q(be, None, serial, state.amplitudes_mut(), t, &u));
        });
        let mut state = bench_state(N, 8);
        group.bench_with_input(BenchmarkId::new("dense_2q", be.name), &be, |b, be| {
            b.iter(|| sweep::apply_2q(be, None, serial, state.amplitudes_mut(), 3, t, &rxx));
        });
        let mut state = bench_state(N, 9);
        group.bench_with_input(BenchmarkId::new("pauli_x", be.name), &be, |b, be| {
            b.iter(|| sweep::apply_x(be, None, serial, state.amplitudes_mut(), t));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_1q_targets,
    bench_kernel_shapes,
    bench_fused_widths,
    bench_simd_backends
);
criterion_main!(benches);
