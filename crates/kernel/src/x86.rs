//! The `unsafe` island: AVX2 / AVX-512 implementations of the gather
//! kernels. This is the **only** module in the workspace allowed to
//! contain `unsafe` (enforced by `cargo xtask lint`), and every unsafe
//! block carries an `INVARIANT:` comment naming the property that makes
//! it sound.
//!
//! Layout mirrors the per-ISA module convention of SIMD-dispatch crates:
//! each variant is a zero-sized kernel object whose hot loops live in
//! `#[target_feature]` functions, so the compiler may assume the vector
//! ISA *inside* while the safe trait surface re-establishes the
//! feature contract at the boundary.
//!
//! ## Why the narrow packing is sound
//!
//! Stage 1 accumulates raw `i16` input pixels into per-lane partial
//! sums. These kernels keep the partials in `i32` lanes — 8 per 256-bit
//! register, 16 per 512-bit register — which is only reachable through
//! [`crate::select`] when the lowering verifier proved the layer's
//! worst-case stage-1 magnitude fits 32 signed bits (every intermediate
//! prefix sum is bounded by the same `count × max_abs_input` worst
//! case, so no intermediate can wrap either). Stage 2 widens each `i32`
//! partial exactly (`VPMULDQ`: signed 32×32→64) before multiplying by
//! the group value and reducing into `i64` lanes, identical to the
//! scalar port's `v as i64 * p`. Integer addition is associative and
//! commutative and the proof rules out wrap-around, so re-packing the
//! same additions into wider registers is bit-identical.

#![allow(unsafe_code)]

use crate::{AbmKernel, AccWidth, Isa, Selection};
use core::arch::x86_64::{
    __m128i, __m256i, __m512i, _mm256_add_epi32, _mm256_add_epi64, _mm256_castsi256_si128,
    _mm256_cvtepi16_epi32, _mm256_cvtepi32_epi64, _mm256_extracti128_si256, _mm256_loadu_si256,
    _mm256_mul_epi32, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_storeu_si256,
    _mm512_add_epi32, _mm512_add_epi64, _mm512_cvtepi16_epi32, _mm512_cvtepi32_epi64,
    _mm512_extracti64x4_epi64, _mm512_mul_epi32, _mm512_set1_epi64, _mm512_setzero_si512,
    _mm512_storeu_si512, _mm_loadu_si128,
};

/// Pixels per AVX2 call: 8 × i32 stage-1 lanes in one 256-bit register.
const LANES_256: usize = 8;
/// Pixels per AVX-512 call: 16 × i32 lanes in one 512-bit register.
const LANES_512: usize = 16;

/// 256-bit kernel: 8 pixels per call, `i32` stage-1 accumulation.
///
/// Values of this type are crate-private and only handed out by
/// [`crate::resolve`], which falls back to the scalar port unless
/// `is_x86_feature_detected!("avx2")` held — that is the feature
/// contract every unsafe call below relies on.
#[derive(Debug, Clone, Copy)]
pub struct Avx2I32;

impl AbmKernel for Avx2I32 {
    fn selection(&self) -> Selection {
        Selection {
            isa: Isa::Avx2,
            acc: AccWidth::I32,
        }
    }

    fn lanes(&self) -> usize {
        LANES_256
    }

    fn gather_unit(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        out: &mut [i64],
    ) {
        // INVARIANT: `Avx2I32` is only reachable through
        // `crate::resolve`, which verified `avx2` is available on this
        // CPU — the `#[target_feature(enable = "avx2")]` contract of
        // `unit_avx2` holds.
        unsafe { unit_avx2(values, starts, offsets, data, base, out) }
    }
}

/// 512-bit kernel: 16 pixels per call, `i32` stage-1 accumulation.
///
/// Same reachability contract as [`Avx2I32`]: only [`crate::resolve`]
/// hands this out, after verifying `avx512f` + `avx512bw`.
#[derive(Debug, Clone, Copy)]
pub struct Avx512I32;

impl AbmKernel for Avx512I32 {
    fn selection(&self) -> Selection {
        Selection {
            isa: Isa::Avx512,
            acc: AccWidth::I32,
        }
    }

    fn lanes(&self) -> usize {
        LANES_512
    }

    fn gather_unit(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        out: &mut [i64],
    ) {
        // INVARIANT: `Avx512I32` is only reachable through
        // `crate::resolve`, which verified `avx512f` + `avx512bw` are
        // available — the target-feature contract of `unit_avx512`
        // holds.
        unsafe { unit_avx512(values, starts, offsets, data, base, out) }
    }
}

/// Unit-stride AVX2 hot loop. Stage 1: one unaligned 128-bit load pulls
/// the 8 contiguous `i16` pixels an offset touches, sign-extended to
/// `i32` lanes and accumulated. Stage 2: the `i32` partials widen
/// exactly through `VPMULDQ` against the group value and reduce into
/// two `i64×4` accumulators.
#[target_feature(enable = "avx2")]
fn unit_avx2(
    values: &[i8],
    starts: &[u32],
    offsets: &[u32],
    data: &[i16],
    base: usize,
    out: &mut [i64],
) {
    let out = &mut out[..LANES_256];
    let mut acc_lo = _mm256_setzero_si256();
    let mut acc_hi = _mm256_setzero_si256();
    for (&v, w) in values.iter().zip(starts.windows(2)) {
        let mut p = _mm256_setzero_si256();
        for &off in &offsets[w[0] as usize..w[1] as usize] {
            let o = base + off as usize;
            let win = &data[o..o + LANES_256];
            // INVARIANT: `win` is a bounds-checked slice of exactly 8
            // `i16` (16 bytes), so this unaligned 128-bit load reads
            // only memory owned by `win`.
            let x = unsafe { _mm_loadu_si128(win.as_ptr().cast::<__m128i>()) };
            p = _mm256_add_epi32(p, _mm256_cvtepi16_epi32(x));
        }
        let vv = _mm256_set1_epi64x(v as i64);
        let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p));
        let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(p));
        acc_lo = _mm256_add_epi64(acc_lo, _mm256_mul_epi32(lo, vv));
        acc_hi = _mm256_add_epi64(acc_hi, _mm256_mul_epi32(hi, vv));
    }
    // INVARIANT: `out` was sliced to exactly 8 `i64` (64 bytes) above,
    // so the two unaligned 256-bit stores stay inside it.
    unsafe {
        _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), acc_lo);
        _mm256_storeu_si256(out.as_mut_ptr().add(4).cast::<__m256i>(), acc_hi);
    }
}

/// Unit-stride AVX-512 hot loop: the 16-lane analog of [`unit_avx2`]
/// (one 256-bit load of 16 `i16`, sign-extend to `i32×16`, accumulate;
/// widen halves through `VPMULDQ` into two `i64×8` accumulators).
#[target_feature(enable = "avx512f", enable = "avx512bw")]
fn unit_avx512(
    values: &[i8],
    starts: &[u32],
    offsets: &[u32],
    data: &[i16],
    base: usize,
    out: &mut [i64],
) {
    let out = &mut out[..LANES_512];
    let mut acc_lo = _mm512_setzero_si512();
    let mut acc_hi = _mm512_setzero_si512();
    for (&v, w) in values.iter().zip(starts.windows(2)) {
        let mut p = _mm512_setzero_si512();
        for &off in &offsets[w[0] as usize..w[1] as usize] {
            let o = base + off as usize;
            let win = &data[o..o + LANES_512];
            // INVARIANT: `win` is a bounds-checked slice of exactly 16
            // `i16` (32 bytes), so this unaligned 256-bit load reads
            // only memory owned by `win`.
            let x = unsafe { _mm256_loadu_si256(win.as_ptr().cast::<__m256i>()) };
            p = _mm512_add_epi32(p, _mm512_cvtepi16_epi32(x));
        }
        let vv = _mm512_set1_epi64(v as i64);
        let lo = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<0>(p));
        let hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(p));
        acc_lo = _mm512_add_epi64(acc_lo, _mm512_mul_epi32(lo, vv));
        acc_hi = _mm512_add_epi64(acc_hi, _mm512_mul_epi32(hi, vv));
    }
    // INVARIANT: `out` was sliced to exactly 16 `i64` (128 bytes)
    // above, so the two unaligned 512-bit stores stay inside it.
    unsafe {
        _mm512_storeu_si512(out.as_mut_ptr().cast::<__m512i>(), acc_lo);
        _mm512_storeu_si512(out.as_mut_ptr().add(8).cast::<__m512i>(), acc_hi);
    }
}
