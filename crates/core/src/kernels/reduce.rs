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
//! factored into a global constant `K` and a sign). Hermiticity pairs `i`
//! with `i⊕flip`, halving the sweep: only bases with bit `tz(flip)`
//! clear are visited, each contributing `2·Re(·)`.
//!
//! Every reduction runs in two vector passes over cache-resident
//! chunks. The first materializes norms (the diagonal group) or the
//! pair cross-products of one flip mask, compacted over pair indices: a
//! run of pairs at least a vector long through `mul_conj_into_run`, a
//! shorter one through the backend's exchange step (`mul_conj_low`),
//! which forms whole vectors of products from the lanes below the vector
//! window. The second folds the chunk with each term's sign mask: the
//! mask's bits at or above `MIN_RUN` flip the sign of whole runs, its
//! bits below it the sign of per-residue partial sums (`residue_sums`),
//! so no element meets a parity test. A weighted Pauli *sum* shares the
//! first pass per basis group — see
//! [`crate::expectation::CompiledObservable`].
//!
//! Each backend sums in its own lane order, so a reduction is
//! deterministic per backend and agrees across backends to ≤ 1e-12,
//! never to the bit.

use crate::complex::C64;
use crate::kernels::index::insert_zero_bit;

use super::simd::KernelBackend;
use super::MAX_WIDTH;

/// Scratch chunk length for grouped reductions: 1024 amplitudes = 16 KiB
/// of complex scratch (8 KiB of norms), comfortably L1-resident while
/// every term in a basis group re-reads it. Held on the stack.
pub const CHUNK: usize = 1024;

/// The period, in complex scratch entries, a sign mask is split at: its
/// bits at or above it flip the sign of whole runs, summed a vector at a
/// time, and its bits below it the sign of the per-residue partial sums
/// those runs fold into (`residue_sums`). An `f64` scratch is read as
/// complex pairs, so its period is twice this.
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

/// Is the parity of `i & mask` odd?
fn odd(i: usize, mask: usize) -> bool {
    (i & mask).count_ones() & 1 == 1
}

/// ⟨ψ| Z_mask |ψ⟩: the diagonal reduction `Σ (−1)^parity(i & z) |a_i|²`
/// in one read-only state sweep.
pub fn expect_z_mask(be: &KernelBackend, amps: &[C64], z_mask: usize) -> f64 {
    let run = 1usize.checked_shl(z_mask.trailing_zeros()).unwrap_or(usize::MAX).min(amps.len());
    if run >= MIN_RUN {
        let sum = |(r, c)| (be.sum_norms_run)(c) * if odd(r * run, z_mask) { -1.0 } else { 1.0 };
        return amps.chunks(run).enumerate().map(sum).sum();
    }
    let mut acc = [0.0];
    accumulate_diag_group(be, amps, &[z_mask], &mut acc);
    acc[0]
}

/// ⟨ψ|P|ψ⟩ for the Pauli string with X|Y mask `flip`, Z mask `z`, and
/// Y mask `y` (`y ⊆ flip`, `z ∩ flip = ∅`) — one read-only state sweep
/// visiting each conjugate pair once: a flip group of one term.
pub fn expect_pauli_string(
    be: &KernelBackend,
    amps: &[C64],
    flip: usize,
    z: usize,
    y: usize,
) -> f64 {
    if flip == 0 {
        return expect_z_mask(be, amps, z | y);
    }
    let mut acc = [C64::default()];
    accumulate_flip_group(be, amps, flip, &[z | y], &mut acc);
    2.0 * (minus_i_pow(y.count_ones()) * acc[0]).re
}

/// Accumulate every diagonal term of an observable in ONE state sweep:
/// the norms of each chunk are materialized once into an L1-resident
/// scratch, then each term folds the chunk with its own sign mask.
/// `accs[t] += Σ_i (−1)^parity(i & masks[t]) |a_i|²`.
pub fn accumulate_diag_group(be: &KernelBackend, amps: &[C64], masks: &[usize], accs: &mut [f64]) {
    debug_assert_eq!(masks.len(), accs.len());
    let mut norms = [0.0; CHUNK];
    let norms = &mut norms[..CHUNK.min(amps.len())];
    for (c, chunk) in amps.chunks(norms.len()).enumerate() {
        (be.norms_into_run)(chunk, norms);
        for (acc, &m) in accs.iter_mut().zip(masks) {
            *acc += signed_sum_f64(be, norms, c * norms.len(), m);
        }
    }
}

/// Accumulate every term of one flip group in ONE state sweep: the pair
/// cross-products `conj(a_i)·a_{i⊕flip}` (bit `tz(flip)` of `i` clear)
/// are materialized a chunk of pair indices at a time, then each term
/// folds the chunk with its own sign mask. `accs[t] += Σ_i
/// (−1)^parity(i & masks[t]) conj(a_i)·a_{i⊕flip}`; callers apply each
/// term's `K` phase and the Hermitian `2·Re(·)` doubling when combining.
pub fn accumulate_flip_group(
    be: &KernelBackend,
    amps: &[C64],
    flip: usize,
    masks: &[usize],
    accs: &mut [C64],
) {
    debug_assert_eq!(masks.len(), accs.len());
    debug_assert_ne!(flip, 0);
    let t = flip.trailing_zeros();
    let mut padded = [C64::default(); 2 * MAX_WIDTH];
    let amps = if 1 << t < be.width && amps.len() < 2 * be.width {
        // Shorter than one exchange step: pad with pairs whose products
        // are zero.
        padded[..amps.len()].copy_from_slice(amps);
        &padded[..2 * be.width]
    } else {
        amps
    };
    let mut scratch = [C64::default(); CHUNK];
    let out = &mut scratch[..CHUNK.min(amps.len() / 2)];
    for p in (0..amps.len() / 2).step_by(out.len()) {
        pair_products(be, amps, flip, p, out);
        for (acc, &m) in accs.iter_mut().zip(masks) {
            *acc += signed_sum_c64(be, out, p, slot_mask(m, t, be.width));
        }
    }
}

/// The pair products of pair indices `p..p + out.len()`: pair index `q`
/// is state index `i = insert_zero_bit(q, tz(flip))`, paired with
/// `i ⊕ flip`. Runs of pairs at least a vector long go through
/// `mul_conj_into_run`; below the vector window the backend's exchange
/// step (`mul_conj_low`) forms whole vectors of products, in the slot
/// order [`slot_mask`] describes.
fn pair_products(be: &KernelBackend, amps: &[C64], flip: usize, p: usize, out: &mut [C64]) {
    let t = flip.trailing_zeros();
    let stride = 1usize << t;
    if stride < be.width {
        let w = be.width;
        return (be.mul_conj_low)(amps, flip, p / w..(p + out.len()) / w, out);
    }
    let mut k = 0;
    while k < out.len() {
        let q = p + k;
        let run = (stride - (q & (stride - 1))).min(out.len() - k);
        let (i, j) = (insert_zero_bit(q, t), insert_zero_bit(q, t) ^ flip);
        (be.mul_conj_into_run)(&amps[i..i + run], &amps[j..j + run], &mut out[k..k + run]);
        k += run;
    }
}

/// A term's sign mask `m` in the scratch order of its flip group's pair
/// products: bit `t = tz(flip)` squeezed out — every product's `i` has
/// it clear — and, below the vector window, the exchange step's slot
/// order, which holds pair-index bit `log2 W − 1` in slot bit `t` and
/// pair-index bits `t .. log2 W − 1` one slot bit higher.
fn slot_mask(m: usize, t: u32, width: usize) -> usize {
    let low = (1usize << t) - 1;
    let q = (m & low) | ((m >> (t + 1)) << t);
    let lane_bits = width.trailing_zeros();
    if t >= lane_bits {
        return q;
    }
    let top = lane_bits - 1;
    let mid = (q >> t) & ((1 << (top - t)) - 1);
    (q & (low | !((1 << lane_bits) - 1))) | (mid << (t + 1)) | (((q >> top) & 1) << t)
}

/// Sign-folded sum of an `f64` scratch chunk that mirrors state indices
/// `chunk_base ..`: `Σ (−1)^parity((chunk_base + k) & mask) · scratch[k]`.
/// `mask == 0` is a plain sum.
pub fn signed_sum_f64(be: &KernelBackend, scratch: &[f64], chunk_base: usize, mask: usize) -> f64 {
    if mask == 0 {
        return (be.sum_f64_run)(scratch);
    }
    let mut padded = [0.0; 2 * MIN_RUN];
    let x = if scratch.len().is_multiple_of(2 * MIN_RUN) {
        scratch
    } else {
        padded[..scratch.len()].copy_from_slice(scratch);
        &padded[..]
    };
    // SAFETY: `C64` is `#[repr(C)] { re: f64, im: f64 }`, so two adjacent
    // `f64`s are one `C64` of the same alignment.
    let pairs = unsafe { std::slice::from_raw_parts(x.as_ptr() as *const C64, x.len() / 2) };
    let mut res = [C64::default(); MIN_RUN];
    (be.residue_sums)(pairs, chunk_base / 2, (mask & !(2 * MIN_RUN - 1)) >> 1, &mut res);
    // Residue `r` of the pairs holds `f64` residues `2r` and `2r + 1`.
    let mut s = 0.0;
    for (r, v) in res.iter().flat_map(|x| [x.re, x.im]).enumerate() {
        s += if odd(r, mask) { -v } else { v };
    }
    s
}

/// [`signed_sum_f64`] over a complex scratch chunk (the pair
/// cross-products of one flip group).
pub fn signed_sum_c64(be: &KernelBackend, scratch: &[C64], chunk_base: usize, mask: usize) -> C64 {
    if mask == 0 {
        return (be.sum_c64_run)(scratch);
    }
    let mut padded = [C64::default(); MIN_RUN];
    let x = if scratch.len().is_multiple_of(MIN_RUN) {
        scratch
    } else {
        padded[..scratch.len()].copy_from_slice(scratch);
        &padded[..]
    };
    let mut res = [C64::default(); MIN_RUN];
    (be.residue_sums)(x, chunk_base, mask & !(MIN_RUN - 1), &mut res);
    let mut s = C64::default();
    for (r, &v) in res.iter().enumerate() {
        s += if odd(r, mask) { -v } else { v };
    }
    s
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

    /// Masks over `bits` (every subset) and, when the register is wider,
    /// each of them with the top qubit too.
    fn masks_over(n: u32, bits: usize) -> Vec<usize> {
        let top = 1usize << (n - 1);
        let mut out: Vec<usize> = (0..=bits).filter(|m| m & !bits == 0).collect();
        if top > bits {
            out.extend((0..=bits).filter(|m| m & !bits == 0).map(|m| m | top));
        }
        out
    }

    #[test]
    fn every_low_mask_matches_the_reference_on_every_backend() {
        // Flip, Z and Y masks whose lowest bits lie in 0..3, on either
        // side of every backend's vector window: ≤ 1e-12 from the
        // per-amplitude loop, the same bits run to run, and a grouped
        // sweep gives each term the bits of its own single-term sweep.
        let mut backends = available();
        backends.extend(crate::kernels::simd::array::backends());
        let widths = if cfg!(miri) { 3..=4 } else { 3..=10 };
        for n in widths {
            let s = rand_state(n, 40 + n as u64);
            let amps = s.amplitudes();
            let low = (1usize << n.min(4)) - 1;
            for flip in masks_over(n, low).into_iter().filter(|&f| f != 0) {
                let mut terms = Vec::new();
                for z in masks_over(n, low).into_iter().filter(|z| z & flip == 0) {
                    for y in [0, flip & flip.wrapping_neg(), flip] {
                        terms.push((z, y));
                    }
                }
                for be in &backends {
                    let masks: Vec<usize> = terms.iter().map(|(z, y)| z | y).collect();
                    let mut grouped = vec![C64::default(); masks.len()];
                    accumulate_flip_group(be, amps, flip, &masks, &mut grouped);
                    for (&(z, y), g) in terms.iter().zip(&grouped) {
                        let what = format!("{} n={n} flip={flip:#b} z={z:#b} y={y:#b}", be.name);
                        let got = expect_pauli_string(be, amps, flip, z, y);
                        let want = reference(amps, flip, z, y);
                        assert!((got - want).abs() < EPS, "{what}: {got} vs {want}");
                        let again = expect_pauli_string(be, amps, flip, z, y);
                        assert_eq!(got.to_bits(), again.to_bits(), "{what}: not deterministic");
                        let single = 2.0 * (minus_i_pow(y.count_ones()) * *g).re;
                        assert_eq!(got.to_bits(), single.to_bits(), "{what}: grouped");
                    }
                }
            }
            for be in &backends {
                let zs = masks_over(n, low);
                let mut grouped = vec![0.0; zs.len()];
                accumulate_diag_group(be, amps, &zs, &mut grouped);
                for (&z, g) in zs.iter().zip(&grouped) {
                    let (got, want) = (expect_z_mask(be, amps, z), reference(amps, 0, z, 0));
                    assert!(
                        (got - want).abs() < EPS,
                        "{} n={n} z={z:#b}: {got} vs {want}",
                        be.name
                    );
                    assert!((g - want).abs() < EPS, "{} n={n} z={z:#b}: grouped {g}", be.name);
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
