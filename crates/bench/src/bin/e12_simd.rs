//! E12 — Native SIMD kernel substrate, and E3's vector-length question
//! asked of the host.
//!
//! Measures every hot kernel shape under the plain scalar kernels and
//! under every backend the host executes (`simd::available()`: portable,
//! plus AVX2, AVX-512F or NEON where present), across state sizes from
//! L1-resident to DRAM-sized (2^22). The portable column isolates dispatch
//! overhead; the native columns are what the substrate buys. The fused
//! rows run the one block kernel (`simd::apply_kq`), with a dense and with
//! a diagonal 4-qubit matrix: on an AVX-512F host the `avx512` column is
//! that kernel at 8 lanes beside `avx2`'s 4 — the same source at two
//! vector lengths, per kernel class. The per-gate rows of those two
//! columns run the same 4-lane code and are the control.
//!
//! Expected shape: native beats scalar on cache-resident dense sweeps
//! and fades toward the memory wall as the state spills; 8 lanes cut the
//! block rows while they are issue-bound and gain less once a row reaches
//! the memory roof (E3's SVE shape). Results are emitted machine-readably
//! to `results/BENCH_simd.json`; hosts with no native vector unit record
//! `hardware_limited: true`.

use omp_par::Schedule;
use qcs_bench::{checksum, fmt_secs, host, time_best, Record, Table};
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

/// Every kernel here sweeps on the calling thread.
const SERIAL: Schedule = Schedule::Static { chunk: None };

/// The kernel shapes under test, dispatched by name so one measuring
/// loop covers the scalar substrate and every vtable backend.
const KERNELS: &[&str] = &[
    "dense_1q",
    "diag_1q",
    "pauli_x",
    "controlled_1q",
    "diag_2q",
    "dense_2q",
    "fused_3q",
    "fused_4q_dense",
    "fused_4q_diag",
];

/// The block kernel's matrices: a dense 3- and 4-qubit product of
/// rotation layers, and a 4-qubit diagonal.
struct Blocks {
    dense3: DenseMatrix,
    dense4: DenseMatrix,
    diag4: DenseMatrix,
}

impl Blocks {
    fn new() -> Blocks {
        let dense = |k: u32| fuse(&library::rotation_layers(k, 2, 0.3), k)[0].matrix.clone();
        let mut diag4 = DenseMatrix::identity(4);
        for i in 0..16 {
            diag4.set(i, i, C64::exp_i(0.37 * i as f64 - 1.1));
        }
        Blocks { dense3: dense(3), dense4: dense(4), diag4 }
    }
}

/// Apply `kernel` once to `amps` through the scalar substrate
/// (`be = None`) or through a vtable backend.
fn apply(kernel: &str, be: Option<&simd::KernelBackend>, amps: &mut [C64], n: u32, m: &Blocks) {
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
    let q4: Vec<u32> = (lo..lo + 4).collect();
    let block = |amps: &mut [C64], qs: &[u32], mat: &DenseMatrix| match be {
        None => scalar::apply_kq(amps, qs, mat),
        Some(be) => simd::apply_kq(be, amps, qs, mat),
    };
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
        ("fused_3q", _) => block(amps, &q3, &m.dense3),
        ("fused_4q_dense", _) => block(amps, &q4, &m.dense4),
        ("fused_4q_diag", _) => block(amps, &q4, &m.diag4),
        (other, _) => unreachable!("unknown kernel {other}"),
    }
}

/// Seconds per application: repeat until the timed region is long enough
/// to trust, then divide by the repetition count.
fn measure(kernel: &str, be: Option<&simd::KernelBackend>, n: u32, m: &Blocks) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let mut state = StateVector::random(n, &mut rng);
    // ≥ ~2^22 amplitude-visits per timed sample.
    let iters = ((1usize << 22) >> n.min(22)).max(1);
    let secs = time_best(5, || {
        for _ in 0..iters {
            apply(kernel, be, state.amplitudes_mut(), n, m);
        }
    });
    std::hint::black_box(checksum(state.amplitudes()));
    secs / iters as f64
}

fn main() {
    let available = simd::available();
    let native = simd::native();
    let lanes_8_vs_4 = ["avx2", "avx512"].iter().all(|&w| available.iter().any(|b| b.name == w));
    println!("E12 — SIMD kernel substrate");
    println!("host: {}", host());

    let mut backends: Vec<(&'static str, Option<&simd::KernelBackend>)> = vec![("scalar", None)];
    backends.extend(available.iter().map(|&b| (b.name, Some(b))));

    let blocks = Blocks::new();
    let sizes = [10u32, 12, 14, 16, 18, 20, 22];
    let mut samples: Vec<Sample> = Vec::new();
    let seconds = |samples: &[Sample], kernel: &str, n: u32, backend: &str| {
        samples
            .iter()
            .find(|s| s.kernel == kernel && s.n == n && s.backend == backend)
            .map(|s| s.seconds)
    };

    for &kernel in KERNELS {
        println!();
        println!("E12: {kernel}");
        let mut header: Vec<&str> = vec!["n", "amps"];
        header.extend(backends.iter().map(|(name, _)| *name));
        header.push("native vs scalar");
        if lanes_8_vs_4 {
            header.push("avx512 vs avx2");
        }
        let mut table = Table::new(&header);
        for &n in &sizes {
            let mut row = vec![n.to_string(), format!("2^{n}")];
            for &(name, be) in &backends {
                let s = measure(kernel, be, n, &blocks);
                row.push(fmt_secs(s));
                samples.push(Sample { kernel, n, backend: name, seconds: s });
            }
            let ratio = |num: &str, den: &str| match (
                seconds(&samples, kernel, n, num),
                seconds(&samples, kernel, n, den),
            ) {
                (Some(a), Some(b)) => format!("{:.2}×", a / b),
                _ => "—".into(),
            };
            row.push(native.map_or("—".into(), |nb| ratio("scalar", nb.name)));
            if lanes_8_vs_4 {
                row.push(ratio("avx2", "avx512"));
            }
            table.row(&row);
        }
        table.print();
    }

    // Headline: best native dense-1q speedup on a cache-resident size
    // (≤ 2^16 amplitudes = 1 MiB).
    let headline = native.and_then(|nb| {
        sizes
            .iter()
            .filter(|&&n| n <= 16)
            .filter_map(|&n| {
                let speedup = seconds(&samples, "dense_1q", n, "scalar")?
                    / seconds(&samples, "dense_1q", n, nb.name)?;
                Some((n, speedup))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    });
    if let Some((n, speedup)) = headline {
        println!();
        println!("headline: dense_1q at n = {n}: native {speedup:.2}× over scalar");
    }
    let (n, speedup) = headline.unzip();
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                ("kernel", s.kernel.into()),
                ("n", s.n.into()),
                ("backend", s.backend.into()),
                ("seconds", s.seconds.into()),
            ]
        })
        .collect();
    Record::new("e12_simd")
        .headline("kernel", "dense_1q")
        .headline("n", n)
        .headline("hardware_limited", native.is_none())
        .headline("speedup_vs_scalar", speedup)
        .table("samples", rows)
        .write("simd");
}
