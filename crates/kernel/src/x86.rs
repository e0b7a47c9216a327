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
//!
//! ## Register blocking
//!
//! Each ISA has **one** hot loop, generic over `B` — the vectors of
//! pixels it advances per decoded offset. Per offset the loop pays one
//! `u32` load, one index add and one checked window of `lanes·B`
//! contiguous `i16`, then issues `B` independent load-extend-adds into
//! `B` stage-1 registers; stage 2 widens each into its own pair of
//! `i64` accumulators. That is the accelerator's `S_ec` argument on the
//! host: the address generator steps once and `lanes·B` adjacent pixels
//! advance in lock-step, so the cheap accumulate stage is bound by its
//! two vector ports, not by offset decode and loop control. The `::<1>`
//! instance is [`AbmKernel::gather_unit`], the `::<BLOCK>` instance
//! [`AbmKernel::gather_block`]. A lane sees the same additions in the
//! same order whichever instance carries it, so the accumulator proof
//! above and bit-identity are untouched; the wider window is covered by
//! the in-bounds proof the caller already holds (see the [`AbmKernel`]
//! contract).
//!
//! ## The lane pitch
//!
//! An offset addresses `base + off · pitch`. Convolutions pass
//! `pitch = 1`; a fully-connected layer swept across a batch passes the
//! lane buffer's row length, so its unscaled offset stream picks the
//! row of one input feature and the window is that feature in `lanes·B`
//! images. Whether an offset is scaled at all is a second const
//! parameter of the one hot loop, `PITCHED`: as a plain runtime argument
//! the multiply cost `vgg16_image` 5 % (EXPERIMENTS.md, "FC on batch
//! lanes"), so convolutions run the `false` instance, whose address is
//! `base + off` as it always was, and only lane sweeps pay for the
//! multiply they need.

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

/// Pixels per AVX2 vector: 8 × i32 stage-1 lanes in one 256-bit register.
const LANES_256: usize = 8;
/// Pixels per AVX-512 vector: 16 × i32 lanes in one 512-bit register.
const LANES_512: usize = 16;
/// Vectors per [`AbmKernel::gather_block`] call, on both ISAs. Chosen by
/// measurement (EXPERIMENTS.md, "Block width"): 2 leaves a fifth to a
/// quarter of the gain behind, 8 buys nothing more on AVX-512 (a
/// 128-position block loses fill on 13×13 planes). Register budget:
/// `BLOCK` partials + `2·BLOCK` accumulators + 3 temporaries = 15 of
/// the 16 ymm / 32 zmm registers.
const BLOCK: usize = 4;

/// Declares a zero-sized vector kernel: the safe [`AbmKernel`] surface
/// over one `#[target_feature]` hot loop, which both call widths — one
/// vector, one block — enter through `run`, unit pitch or not.
macro_rules! vector_kernel {
    ($(#[$doc:meta])* $name:ident, $isa:expr, $lanes:expr, $hot:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name;

        impl $name {
            fn run<const B: usize>(
                values: &[i8],
                starts: &[u32],
                offsets: &[u32],
                data: &[i16],
                base: usize,
                pitch: usize,
                out: &mut [i64],
            ) {
                // INVARIANT: values of this type are crate-private and
                // only handed out by `crate::resolve`, after it verified
                // on this CPU every feature the hot loop's
                // `#[target_feature]` attribute names — that contract
                // holds.
                unsafe {
                    // A convolution's sweeps run the instance whose
                    // address is `base + off`, as before the pitch.
                    if pitch == 1 {
                        $hot::<B, false>(values, starts, offsets, data, base, pitch, out)
                    } else {
                        $hot::<B, true>(values, starts, offsets, data, base, pitch, out)
                    }
                }
            }
        }

        impl AbmKernel for $name {
            fn selection(&self) -> Selection {
                Selection {
                    isa: $isa,
                    acc: AccWidth::I32,
                }
            }

            fn lanes(&self) -> usize {
                $lanes
            }

            fn block(&self) -> usize {
                BLOCK
            }

            fn gather_unit_pitched(
                &self,
                values: &[i8],
                starts: &[u32],
                offsets: &[u32],
                data: &[i16],
                base: usize,
                pitch: usize,
                out: &mut [i64],
            ) {
                Self::run::<1>(values, starts, offsets, data, base, pitch, out);
            }

            fn gather_block_pitched(
                &self,
                values: &[i8],
                starts: &[u32],
                offsets: &[u32],
                data: &[i16],
                base: usize,
                pitch: usize,
                out: &mut [i64],
            ) {
                Self::run::<BLOCK>(values, starts, offsets, data, base, pitch, out);
            }
        }
    };
}

vector_kernel! {
    /// 256-bit kernel: 8 pixels per vector, `i32` stage-1 accumulation.
    /// [`crate::resolve`] falls back to the scalar port unless
    /// `is_x86_feature_detected!("avx2")` held.
    Avx2I32, Isa::Avx2, LANES_256, unit_avx2
}

vector_kernel! {
    /// 512-bit kernel: 16 pixels per vector, `i32` stage-1 accumulation;
    /// handed out only after `avx512f` + `avx512bw` were detected.
    Avx512I32, Isa::Avx512, LANES_512, unit_avx512
}

/// Unit-stride AVX2 hot loop over `B` adjacent vectors of 8 positions.
/// Stage 1: per offset, **one** offset load and **one** checked window
/// of `8·B` contiguous `i16` at `base + off·pitch` feed `B` independent
/// accumulators (a 128-bit load each, sign-extended to `i32` lanes).
/// Stage 2: each vector's `i32` partials widen exactly through `VPMULDQ`
/// against the group value and reduce into its own pair of `i64×4`
/// accumulators.
#[target_feature(enable = "avx2")]
fn unit_avx2<const B: usize, const PITCHED: bool>(
    values: &[i8],
    starts: &[u32],
    offsets: &[u32],
    data: &[i16],
    base: usize,
    pitch: usize,
    out: &mut [i64],
) {
    let out = &mut out[..LANES_256 * B];
    let mut acc = [[_mm256_setzero_si256(); 2]; B];
    for (&v, w) in values.iter().zip(starts.windows(2)) {
        let mut p = [_mm256_setzero_si256(); B];
        for &off in &offsets[w[0] as usize..w[1] as usize] {
            let o = base + off as usize * if PITCHED { pitch } else { 1 };
            let win = &data[o..o + LANES_256 * B];
            for (p, px) in p.iter_mut().zip(win.chunks_exact(LANES_256)) {
                // INVARIANT: `px` is a `chunks_exact` piece of the
                // bounds-checked window — exactly 8 `i16` (16 bytes) —
                // so this unaligned 128-bit load reads only memory
                // owned by `px`.
                let x = unsafe { _mm_loadu_si128(px.as_ptr().cast::<__m128i>()) };
                *p = _mm256_add_epi32(*p, _mm256_cvtepi16_epi32(x));
            }
        }
        let vv = _mm256_set1_epi64x(v as i64);
        for (acc, &p) in acc.iter_mut().zip(&p) {
            let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p));
            let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(p));
            acc[0] = _mm256_add_epi64(acc[0], _mm256_mul_epi32(lo, vv));
            acc[1] = _mm256_add_epi64(acc[1], _mm256_mul_epi32(hi, vv));
        }
    }
    for (dst, acc) in out.chunks_exact_mut(LANES_256).zip(acc) {
        // INVARIANT: `dst` is a `chunks_exact_mut` piece of `out` —
        // exactly 8 `i64` (64 bytes) — so the two unaligned 256-bit
        // stores stay inside it.
        unsafe {
            _mm256_storeu_si256(dst.as_mut_ptr().cast::<__m256i>(), acc[0]);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4).cast::<__m256i>(), acc[1]);
        }
    }
}

/// Unit-stride AVX-512 hot loop: the 16-lane analog of [`unit_avx2`]
/// (per offset one checked window of `16·B` pixels, a 256-bit load per
/// vector sign-extended to `i32×16`; halves widen through `VPMULDQ`
/// into each vector's two `i64×8` accumulators).
#[target_feature(enable = "avx512f", enable = "avx512bw")]
fn unit_avx512<const B: usize, const PITCHED: bool>(
    values: &[i8],
    starts: &[u32],
    offsets: &[u32],
    data: &[i16],
    base: usize,
    pitch: usize,
    out: &mut [i64],
) {
    let out = &mut out[..LANES_512 * B];
    let mut acc = [[_mm512_setzero_si512(); 2]; B];
    for (&v, w) in values.iter().zip(starts.windows(2)) {
        let mut p = [_mm512_setzero_si512(); B];
        for &off in &offsets[w[0] as usize..w[1] as usize] {
            let o = base + off as usize * if PITCHED { pitch } else { 1 };
            let win = &data[o..o + LANES_512 * B];
            for (p, px) in p.iter_mut().zip(win.chunks_exact(LANES_512)) {
                // INVARIANT: `px` is a `chunks_exact` piece of the
                // bounds-checked window — exactly 16 `i16` (32 bytes)
                // — so this unaligned 256-bit load reads only memory
                // owned by `px`.
                let x = unsafe { _mm256_loadu_si256(px.as_ptr().cast::<__m256i>()) };
                *p = _mm512_add_epi32(*p, _mm512_cvtepi16_epi32(x));
            }
        }
        let vv = _mm512_set1_epi64(v as i64);
        for (acc, &p) in acc.iter_mut().zip(&p) {
            let lo = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<0>(p));
            let hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(p));
            acc[0] = _mm512_add_epi64(acc[0], _mm512_mul_epi32(lo, vv));
            acc[1] = _mm512_add_epi64(acc[1], _mm512_mul_epi32(hi, vv));
        }
    }
    for (dst, acc) in out.chunks_exact_mut(LANES_512).zip(acc) {
        // INVARIANT: `dst` is a `chunks_exact_mut` piece of `out` —
        // exactly 16 `i64` (128 bytes) — so the two unaligned 512-bit
        // stores stay inside it.
        unsafe {
            _mm512_storeu_si512(dst.as_mut_ptr().cast::<__m512i>(), acc[0]);
            _mm512_storeu_si512(dst.as_mut_ptr().add(8).cast::<__m512i>(), acc[1]);
        }
    }
}
