//! The portable scalar kernel — a bit-identical port of the original
//! `gather_pixel_vec_unit` hot loop from `abm_conv::abm` (8-pixel
//! lock-step, `i64` partial sums), kept as
//! the universal fallback and the `<5 %` performance floor the SIMD
//! variants are measured against.

use crate::{AbmKernel, AccWidth, Isa, Selection};

/// Pixels per lock-step walk — the original `PIXEL_VEC`.
const LANES: usize = 8;

/// The scalar `i64` port.
#[derive(Debug, Clone, Copy)]
pub struct ScalarI64;

impl AbmKernel for ScalarI64 {
    fn selection(&self) -> Selection {
        Selection {
            isa: Isa::Scalar,
            acc: AccWidth::I64,
        }
    }

    fn lanes(&self) -> usize {
        LANES
    }

    /// The eight positions' reads for one offset are **contiguous**, so
    /// a single bounds-checked window load replaces eight scattered
    /// checked reads.
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
        let mut acc = [0i64; LANES];
        for (&v, w) in values.iter().zip(starts.windows(2)) {
            let mut p = [0i64; LANES];
            for &off in &offsets[w[0] as usize..w[1] as usize] {
                let o = base + off as usize * pitch;
                // One range check covers all eight reads: the slice is
                // exactly LANES long, so the constant-index loads below
                // need no further checks. The lowering verifier proves
                // base + off·pitch + LANES stays inside the swept buffer
                // for every swept position.
                let win = &data[o..o + LANES];
                for i in 0..LANES {
                    p[i] += win[i] as i64;
                }
            }
            let v = v as i64;
            for i in 0..LANES {
                acc[i] += v * p[i];
            }
        }
        out[..LANES].copy_from_slice(&acc);
    }
}
