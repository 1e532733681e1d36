//! Observable reduction drivers over the SIMD backend vtable.
//!
//! A Pauli string is a signed/phased permutation: with `flip` the X|Y
//! bit mask, `z` the Z mask, and `y` the Y mask, its expectation is
//!
//! ```text
//! ⟨ψ|P|ψ⟩ = Σ_i conj(a_i) · K · (−1)^parity(i & m) · a_{i⊕flip}
//!     m = z | y,   K = (−i)^{n_y}
//! ```
//!
//! (the per-amplitude phase of [`crate::expectation::PauliString`]
//! factored into a global constant `K` and a run-constant sign). The
//! drivers here exploit that factorization: the sign is constant over
//! contiguous runs of `2^tz(m)` amplitudes and the `i⊕flip` partner of a
//! contiguous run below bit `tz(flip)` is itself contiguous, so the
//! whole reduction decomposes into the straight-line vector primitives
//! on the [`KernelBackend`] vtable (`sum_norms_run`, `dot_conj_run`, …)
//! instead of the lazily-permuted scalar pass. Hermiticity pairs `i`
//! with `i⊕flip`, halving the sweep: only bases with bit `tz(flip)`
//! clear are visited, each contributing `2·Re(·)`.
//!
//! The grouped entry points ([`signed_sum_f64`] / [`signed_sum_c64`])
//! let a weighted Pauli *sum* share one state sweep per basis group: the
//! sweep materializes norms (diagonal group) or pair cross-products (one
//! group per distinct flip mask) into a cache-resident scratch chunk,
//! and every term in the group reduces that chunk with its own sign
//! mask — see [`crate::expectation::CompiledObservable`].
//!
//! Each backend sums in its own lane order, so a reduction is
//! deterministic per backend and agrees across backends to ≤ 1e-12,
//! never to the bit.

use crate::complex::C64;

use super::simd::KernelBackend;

/// Scratch chunk length for grouped reductions: 1024 amplitudes = 16 KiB
/// of complex scratch (8 KiB of norms), comfortably L1-resident while
/// every term in a basis group re-reads it.
pub const CHUNK: usize = 1024;

/// Below this run length the per-run function-pointer dispatch costs
/// more than it vectorizes; drivers fall back to fused scalar loops.
const MIN_RUN: usize = 8;

/// `(−i)^k` — the global phase collected by the Y factors.
#[inline]
pub(crate) fn minus_i_pow(k: u32) -> C64 {
    match k % 4 {
        0 => C64::new(1.0, 0.0),
        1 => C64::new(0.0, -1.0),
        2 => C64::new(-1.0, 0.0),
        _ => C64::new(0.0, 1.0),
    }
}

/// ⟨ψ| Z_mask |ψ⟩: the diagonal reduction `Σ (−1)^parity(i & z) |a_i|²`
/// in one read-only state sweep.
pub fn expect_z_mask(be: &KernelBackend, amps: &[C64], z_mask: usize) -> f64 {
    if z_mask == 0 {
        return (be.sum_norms_run)(amps);
    }
    let run = (1usize << z_mask.trailing_zeros()).min(amps.len());
    if run < MIN_RUN {
        // Tiny sign runs: one fused scalar pass beats per-run dispatch.
        let mut pos = 0.0;
        let mut neg = 0.0;
        for (i, a) in amps.iter().enumerate() {
            if (i & z_mask).count_ones() & 1 == 0 {
                pos += a.norm_sqr();
            } else {
                neg += a.norm_sqr();
            }
        }
        return pos - neg;
    }
    let mut pos = 0.0;
    let mut neg = 0.0;
    let mut base = 0;
    while base < amps.len() {
        let s = (be.sum_norms_run)(&amps[base..base + run]);
        if (base & z_mask).count_ones() & 1 == 0 {
            pos += s;
        } else {
            neg += s;
        }
        base += run;
    }
    pos - neg
}

/// ⟨ψ|P|ψ⟩ for the Pauli string with X|Y mask `flip`, Z mask `z`, and
/// Y mask `y` (`y ⊆ flip`, `z ∩ flip = ∅`) — one read-only state sweep
/// visiting each conjugate pair once.
pub fn expect_pauli_string(
    be: &KernelBackend,
    amps: &[C64],
    flip: usize,
    z: usize,
    y: usize,
) -> f64 {
    let m = z | y;
    if flip == 0 {
        return expect_z_mask(be, amps, m);
    }
    let lbit = 1usize << flip.trailing_zeros();
    let mut run = lbit;
    if m != 0 {
        run = run.min(1 << m.trailing_zeros());
    }
    let k_phase = minus_i_pow(y.count_ones());
    let mut pos = C64::default();
    let mut neg = C64::default();
    let mut base = 0;
    while base < amps.len() {
        if base & lbit != 0 {
            base += run;
            continue;
        }
        let u = &amps[base..base + run];
        let v = &amps[base ^ flip..(base ^ flip) + run];
        let d = if run < MIN_RUN {
            let mut d = C64::default();
            for (a, b) in u.iter().zip(v.iter()) {
                d = d.fma(a.conj(), *b);
            }
            d
        } else {
            (be.dot_conj_run)(u, v)
        };
        if (base & m).count_ones() & 1 == 0 {
            pos += d;
        } else {
            neg += d;
        }
        base += run;
    }
    2.0 * (k_phase * (pos - neg)).re
}

/// Accumulate every diagonal term of an observable in ONE state sweep:
/// the norms of each chunk are materialized once into an L1-resident
/// scratch, then each term folds the chunk with its own sign mask.
/// `accs[t] += Σ_i (−1)^parity(i & masks[t]) |a_i|²`.
pub fn accumulate_diag_group(be: &KernelBackend, amps: &[C64], masks: &[usize], accs: &mut [f64]) {
    debug_assert_eq!(masks.len(), accs.len());
    let chunk_len = CHUNK.min(amps.len());
    let mut norms = vec![0.0; chunk_len];
    let mut base = 0;
    while base < amps.len() {
        (be.norms_into_run)(&amps[base..base + chunk_len], &mut norms);
        for (acc, &m) in accs.iter_mut().zip(masks) {
            *acc += signed_sum_f64(be, &norms, base, m);
        }
        base += chunk_len;
    }
}

/// Accumulate every term of one flip group in ONE state sweep: the pair
/// cross-products `conj(a_i)·a_{i⊕flip}` of each chunk (bit `tz(flip)`
/// clear) are materialized once, then each term folds the chunk with its
/// own sign mask. `accs[t] += Σ_i (−1)^parity(i & masks[t])
/// conj(a_i)·a_{i⊕flip}`; callers apply each term's `K` phase and the
/// Hermitian `2·Re(·)` doubling when combining.
pub fn accumulate_flip_group(
    be: &KernelBackend,
    amps: &[C64],
    flip: usize,
    masks: &[usize],
    accs: &mut [C64],
) {
    debug_assert_eq!(masks.len(), accs.len());
    debug_assert_ne!(flip, 0);
    let lbit = 1usize << flip.trailing_zeros();
    let chunk_len = CHUNK.min(lbit);
    let mut scratch = vec![C64::default(); chunk_len];
    let mut base = 0;
    while base < amps.len() {
        if base & lbit != 0 {
            base += chunk_len;
            continue;
        }
        let u = &amps[base..base + chunk_len];
        let v = &amps[base ^ flip..(base ^ flip) + chunk_len];
        (be.mul_conj_into_run)(u, v, &mut scratch);
        for (acc, &m) in accs.iter_mut().zip(masks) {
            *acc += signed_sum_c64(be, &scratch, base, m);
        }
        base += chunk_len;
    }
}

/// Sign-folded sum of an `f64` scratch chunk that mirrors state indices
/// `chunk_base ..`: `Σ (−1)^parity((chunk_base + k) & mask) · scratch[k]`.
/// `mask == 0` is a plain sum.
pub fn signed_sum_f64(be: &KernelBackend, scratch: &[f64], chunk_base: usize, mask: usize) -> f64 {
    if mask == 0 {
        return (be.sum_f64_run)(scratch);
    }
    let run = (1usize << mask.trailing_zeros()).min(scratch.len());
    if run < MIN_RUN {
        let mut pos = 0.0;
        let mut neg = 0.0;
        for (k, &x) in scratch.iter().enumerate() {
            if ((chunk_base + k) & mask).count_ones() & 1 == 0 {
                pos += x;
            } else {
                neg += x;
            }
        }
        return pos - neg;
    }
    let mut pos = 0.0;
    let mut neg = 0.0;
    let mut off = 0;
    while off < scratch.len() {
        let s = (be.sum_f64_run)(&scratch[off..off + run]);
        if ((chunk_base + off) & mask).count_ones() & 1 == 0 {
            pos += s;
        } else {
            neg += s;
        }
        off += run;
    }
    pos - neg
}

/// [`signed_sum_f64`] over a complex scratch chunk (the pair
/// cross-products of one flip group).
pub fn signed_sum_c64(be: &KernelBackend, scratch: &[C64], chunk_base: usize, mask: usize) -> C64 {
    if mask == 0 {
        return (be.sum_c64_run)(scratch);
    }
    let run = (1usize << mask.trailing_zeros()).min(scratch.len());
    if run < MIN_RUN {
        let mut pos = C64::default();
        let mut neg = C64::default();
        for (k, &x) in scratch.iter().enumerate() {
            if ((chunk_base + k) & mask).count_ones() & 1 == 0 {
                pos += x;
            } else {
                neg += x;
            }
        }
        return pos - neg;
    }
    let mut pos = C64::default();
    let mut neg = C64::default();
    let mut off = 0;
    while off < scratch.len() {
        let s = (be.sum_c64_run)(&scratch[off..off + run]);
        if ((chunk_base + off) & mask).count_ones() & 1 == 0 {
            pos += s;
        } else {
            neg += s;
        }
        off += run;
    }
    pos - neg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::simd::available;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    fn rand_state(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    /// Reference: the unfactored per-amplitude phase loop.
    fn reference(amps: &[C64], flip: usize, z: usize, y: usize) -> f64 {
        let m = z | y;
        let k_phase = minus_i_pow(y.count_ones());
        let mut acc = C64::default();
        for (i, a) in amps.iter().enumerate() {
            let sign = if (i & m).count_ones() & 1 == 0 { 1.0 } else { -1.0 };
            acc = acc.fma(a.conj(), (k_phase * amps[i ^ flip]) * sign);
        }
        assert!(acc.im.abs() < 1e-9);
        acc.re
    }

    #[test]
    fn z_mask_matches_reference_every_mask() {
        for be in available() {
            let s = rand_state(8, 3);
            for z in 0usize..16 {
                let got = expect_z_mask(be, s.amplitudes(), z);
                let want = reference(s.amplitudes(), 0, z, 0);
                assert!((got - want).abs() < EPS, "{} z={z:#b}: {got} vs {want}", be.name);
            }
        }
    }

    #[test]
    fn pauli_string_matches_reference_on_mask_grid() {
        for be in available() {
            let s = rand_state(7, 11);
            for flip in [0b1usize, 0b100, 0b1010, 0b1000001] {
                for y in [0usize, flip & 0b1, flip] {
                    for z in [0usize, 0b10, 0b0110000 & !flip] {
                        let z = z & !flip;
                        let got = expect_pauli_string(be, s.amplitudes(), flip, z, y);
                        let want = reference(s.amplitudes(), flip, z, y);
                        assert!(
                            (got - want).abs() < EPS,
                            "{} flip={flip:#b} z={z:#b} y={y:#b}: {got} vs {want}",
                            be.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signed_sums_match_scalar_folds() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = StateVector::random(6, &mut rng);
        for be in available() {
            let mut norms = vec![0.0; s.len()];
            (be.norms_into_run)(s.amplitudes(), &mut norms);
            for mask in [0usize, 0b1, 0b1000, 0b1100] {
                let got = signed_sum_f64(be, &norms, 0, mask);
                let want: f64 = norms
                    .iter()
                    .enumerate()
                    .map(|(i, x)| if (i & mask).count_ones() & 1 == 0 { *x } else { -x })
                    .sum();
                assert!((got - want).abs() < EPS, "{} mask={mask:#b}", be.name);
                let gotc = signed_sum_c64(be, s.amplitudes(), 0, mask);
                let mut wantc = C64::default();
                for (i, a) in s.amplitudes().iter().enumerate() {
                    if (i & mask).count_ones() & 1 == 0 {
                        wantc += *a;
                    } else {
                        wantc -= *a;
                    }
                }
                assert!(gotc.approx_eq(wantc, EPS), "{} mask={mask:#b}", be.name);
            }
        }
    }
}
