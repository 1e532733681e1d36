//! E12 — Native SIMD kernel substrate.
//!
//! Measures every hot kernel shape under three substrates — the plain
//! scalar kernels, the portable (width-1) backend behind the vtable, and
//! the host's native vector backend (AVX2 or NEON, when present) —
//! across state sizes from L1-resident to beyond L2. The vtable's
//! portable column isolates dispatch overhead; the native column is the
//! payoff the substrate exists for.
//!
//! Expected shape: native ≥ 1.3× scalar on cache-resident dense-1q
//! sweeps (the memory wall flattens the gain once the state spills to
//! DRAM — exactly the regime the paper's bandwidth analysis owns).
//! Results are emitted machine-readably to `results/BENCH_simd.json`;
//! hosts with no native vector unit record `hardware_limited: true` and
//! carry the portable-vs-scalar columns only.

use std::fmt::Write as _;

use omp_par::Schedule;
use qcs_bench::{checksum, fmt_secs, time_best, Table};
use qcs_core::complex::C64;
use qcs_core::fusion::fuse;
use qcs_core::gates::matrices::DenseMatrix;
use qcs_core::gates::standard;
use qcs_core::kernels::{scalar, simd, sweep};
use qcs_core::library;
use qcs_core::state::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measured cell of the sweep.
struct Sample {
    kernel: &'static str,
    n: u32,
    backend: &'static str,
    seconds: f64,
}

/// The kernel shapes under test, dispatched by name so one measuring
/// loop covers the scalar substrate and every vtable backend.
/// Every kernel here sweeps on the calling thread.
const SERIAL: Schedule = Schedule::Static { chunk: None };

const KERNELS: &[&str] =
    &["dense_1q", "diag_1q", "pauli_x", "controlled_1q", "diag_2q", "dense_2q", "fused_3q"];

/// Apply `kernel` once to `amps` through the scalar substrate
/// (`be = None`) or through a vtable backend.
fn apply(
    kernel: &str,
    be: Option<&simd::KernelBackend>,
    amps: &mut [C64],
    n: u32,
    m3: &DenseMatrix,
) {
    let t = n / 2;
    let lo = t.saturating_sub(3);
    let u = standard::u3(0.3, 0.5, 0.7);
    let d0 = C64::exp_i(0.1);
    let d1 = C64::exp_i(-0.2);
    let ry = standard::ry(0.4);
    let rxx = standard::rxx_mat(0.6);
    let d2 = {
        let rzz = standard::rzz_mat(0.8);
        [rzz.m[0][0], rzz.m[1][1], rzz.m[2][2], rzz.m[3][3]]
    };
    let q3: Vec<u32> = (lo..lo + 3).collect();
    match (kernel, be) {
        ("dense_1q", None) => scalar::apply_1q(amps, t, &u),
        ("dense_1q", Some(be)) => sweep::apply_1q(be, None, SERIAL, amps, t, &u),
        ("diag_1q", None) => scalar::apply_1q_diag(amps, t, d0, d1),
        ("diag_1q", Some(be)) => sweep::apply_1q_diag(be, None, SERIAL, amps, t, d0, d1),
        ("pauli_x", None) => scalar::apply_x(amps, t),
        ("pauli_x", Some(be)) => sweep::apply_x(be, None, SERIAL, amps, t),
        ("controlled_1q", None) => scalar::apply_controlled_1q(amps, lo, t, &ry),
        ("controlled_1q", Some(be)) => {
            sweep::apply_controlled_1q(be, None, SERIAL, amps, lo, t, &ry)
        }
        ("diag_2q", None) => scalar::apply_2q_diag(amps, t, lo, d2),
        ("diag_2q", Some(be)) => sweep::apply_2q_diag(be, None, SERIAL, amps, t, lo, d2),
        ("dense_2q", None) => scalar::apply_2q(amps, t, lo, &rxx),
        ("dense_2q", Some(be)) => sweep::apply_2q(be, None, SERIAL, amps, t, lo, &rxx),
        ("fused_3q", None) => scalar::apply_kq(amps, &q3, m3),
        ("fused_3q", Some(be)) => simd::apply_kq(be, amps, &q3, m3),
        (other, _) => unreachable!("unknown kernel {other}"),
    }
}

/// Seconds per application: repeat until the timed region is long enough
/// to trust, then divide by the repetition count.
fn measure(kernel: &str, be: Option<&simd::KernelBackend>, n: u32, m3: &DenseMatrix) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let mut state = StateVector::random(n, &mut rng);
    // ≥ ~2^22 amplitude-visits per timed sample.
    let iters = (1usize << 22) >> n.min(22);
    let iters = iters.max(1);
    let secs = time_best(5, || {
        for _ in 0..iters {
            apply(kernel, be, state.amplitudes_mut(), n, m3);
        }
    });
    std::hint::black_box(checksum(state.amplitudes()));
    secs / iters as f64
}

fn fused_3q_matrix() -> DenseMatrix {
    let circuit = library::rotation_layers(3, 2, 0.3);
    fuse(&circuit, 3)[0].matrix.clone()
}

fn main() {
    let portable = simd::backend_for(simd::BackendChoice::Scalar);
    let native = simd::native();
    println!("E12 — SIMD kernel substrate (native backend: {})", native.map_or("none", |b| b.name));

    let mut backends: Vec<(&'static str, Option<&simd::KernelBackend>)> =
        vec![("scalar", None), (portable.name, Some(portable))];
    if let Some(nb) = native {
        backends.push((nb.name, Some(nb)));
    }

    let m3 = fused_3q_matrix();
    let sizes = [10u32, 12, 14, 16, 18, 20];
    let mut samples: Vec<Sample> = Vec::new();

    for &kernel in KERNELS {
        println!();
        println!("E12: {kernel}");
        let mut header: Vec<&str> = vec!["n", "amps"];
        for (name, _) in &backends {
            header.push(name);
        }
        header.push("native vs scalar");
        let mut table = Table::new(&header);
        for &n in &sizes {
            let mut row = vec![n.to_string(), format!("2^{n}")];
            let mut scalar_s = 0.0;
            let mut native_s = None;
            for &(name, be) in &backends {
                let s = measure(kernel, be, n, &m3);
                if name == "scalar" {
                    scalar_s = s;
                }
                if native.is_some_and(|nb| nb.name == name) {
                    native_s = Some(s);
                }
                row.push(fmt_secs(s));
                samples.push(Sample { kernel, n, backend: name, seconds: s });
            }
            row.push(native_s.map_or("—".into(), |s| format!("{:.2}×", scalar_s / s)));
            table.row(&row);
        }
        table.print();
    }

    // Headline: best native dense-1q speedup on a cache-resident size
    // (≤ 2^16 amplitudes = 1 MiB).
    let headline = best_dense_1q(&samples, native.map(|b| b.name));
    write_json(&samples, &headline, native.is_none());
    if let Some((n, speedup)) = headline {
        println!();
        println!("headline: dense_1q at n = {n}: native {speedup:.2}× over scalar");
    }
}

/// `(n, speedup)` of the best cache-resident native dense-1q cell.
fn best_dense_1q(samples: &[Sample], native_name: Option<&str>) -> Option<(u32, f64)> {
    let native_name = native_name?;
    let mut best: Option<(u32, f64)> = None;
    for s in samples.iter().filter(|s| s.kernel == "dense_1q" && s.n <= 16) {
        if s.backend != native_name {
            continue;
        }
        let scalar_s = samples
            .iter()
            .find(|r| r.kernel == "dense_1q" && r.n == s.n && r.backend == "scalar")?
            .seconds;
        let speedup = scalar_s / s.seconds;
        if best.is_none_or(|(_, b)| speedup > b) {
            best = Some((s.n, speedup));
        }
    }
    best
}

fn write_json(samples: &[Sample], headline: &Option<(u32, f64)>, hardware_limited: bool) {
    let mut rows = String::new();
    for s in samples {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"kernel\": \"{}\", \"n\": {}, \"backend\": \"{}\", \"seconds\": {:.6e}}}",
            s.kernel, s.n, s.backend, s.seconds
        );
    }
    let headline_json = match headline {
        Some((n, speedup)) => format!(
            "  \"headline\": {{\n\
             \x20   \"kernel\": \"dense_1q\",\n\
             \x20   \"n\": {n},\n\
             \x20   \"hardware_limited\": {hardware_limited},\n\
             \x20   \"speedup_vs_scalar\": {speedup:.3}\n  }}"
        ),
        None => format!(
            "  \"headline\": {{\n\
             \x20   \"kernel\": \"dense_1q\",\n\
             \x20   \"hardware_limited\": {hardware_limited},\n\
             \x20   \"speedup_vs_scalar\": null\n  }}"
        ),
    };
    let json = format!(
        "{{\n  \"experiment\": \"e12_simd\",\n{headline_json},\n  \"samples\": [\n{rows}\n  ]\n}}\n"
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/BENCH_simd.json", &json) {
        Ok(()) => println!("\nwrote results/BENCH_simd.json"),
        Err(e) => eprintln!("\ncould not write results/BENCH_simd.json: {e}"),
    }
}
