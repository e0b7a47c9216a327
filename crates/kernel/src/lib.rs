//! Runtime-dispatched SIMD kernels for the ABM-SpConv hot path.
//!
//! The accelerator's stage-1 datapath is a gather-and-add over small
//! per-value accumulators; stage 2 multiplies each partial sum once.
//! On the host that loop shape maps directly onto vector registers,
//! and — mirroring the DSP48 SIMD-packing trick of the INT8-packing
//! accelerator line — *narrower accumulators pack more lanes per
//! register*: proving at lowering time that a layer's stage-1 partial
//! sums fit `i32` lets the AVX2 kernel hold 8 partial sums in one
//! 256-bit register and the AVX-512 kernel 16 per 512-bit register,
//! instead of the 2/4 an `i64` accumulator allows.
//!
//! Three ISA variants live behind the safe [`AbmKernel`] trait:
//!
//! * [`Isa::Scalar`] — a bit-identical port of the original
//!   `gather_pixel_vec_unit` loop (plain safe Rust, 8-pixel lock-step,
//!   `i64` accumulators);
//! * [`Isa::Avx2`] — 8 pixels per call, `i32` stage-1 accumulation
//!   with exact widening `i32×i32→i64` stage-2 multiplies;
//! * [`Isa::Avx512`] — 16 pixels per call, same narrow-accumulator
//!   scheme on 512-bit registers.
//!
//! The vector variants are additionally **register-blocked**: besides
//! the one-vector [`AbmKernel::gather_unit`] they offer
//! [`AbmKernel::gather_block`], which advances
//! [`AbmKernel::block`] vectors of pixels under one offset decode (one
//! offset load and one bounds-checked window feed that many independent
//! accumulators — the accelerator's `S_ec` pixels under one address).
//! The block is a constant of the kernel object; dispatch, telemetry
//! and the simulator count in [`AbmKernel::lanes`] and never see it.
//!
//! What a kernel's lanes *are* is the caller's choice, through the
//! **lane pitch** of the one sweep contract ([`AbmKernel`]): adjacent
//! pixels of one image for a convolution (`pitch = 1`,
//! [`AbmKernel::gather_unit`] / [`AbmKernel::gather_block`]), the images
//! of a batch for a fully-connected layer
//! ([`AbmKernel::gather_unit_pitched`] /
//! [`AbmKernel::gather_block_pitched`] over a `[feature][lane]` buffer,
//! kernels resolved by [`select_lane_kernels`]) — the same offset
//! stream either way.
//!
//! Dispatch is resolved **once** per prepared layer
//! ([`select`]): `is_x86_feature_detected!` picks the widest ISA the
//! CPU offers, `ABM_FORCE_ISA` (or an explicit request) can pin any
//! variant for debugging, and the caller passes the layer's
//! verifier-derived worst-case stage-1 magnitude so the narrow path is
//! only taken when **proven** overflow-free. Layers that do not fit
//! `i32` fall back to the checked `i64` scalar port, so results are
//! bit-identical everywhere: integer addition is associative and the
//! proof rules out wrap-around, hence re-packing the same additions
//! into wider vectors cannot change a single bit.
//!
//! All `unsafe` lives in the single allowlisted island `x86`
//! (`cargo xtask lint` enforces both the confinement and the
//! `INVARIANT:` comment on every unsafe block); this crate root denies
//! `unsafe_code` so nothing escapes the island.

#![deny(unsafe_code)]

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

/// The widest pixel vector any kernel variant has — the most a
/// [`AbmKernel::gather_unit`] call writes, so a buffer of this length
/// serves every variant's one-vector call.
pub const MAX_LANES: usize = 16;

/// An instruction-set variant of the gather kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable safe-Rust port of the original hot loops.
    Scalar,
    /// 256-bit AVX2 (8 × i32 stage-1 lanes).
    Avx2,
    /// 512-bit AVX-512 F+BW (16 × i32 stage-1 lanes).
    Avx512,
}

impl Isa {
    /// Every variant this build knows about, widest last.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// Stable lowercase name (CLI / env / telemetry vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses a CLI / `ABM_FORCE_ISA` spelling. `auto` (or the empty
    /// string) means "detect", expressed as `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised spelling.
    pub fn parse(s: &str) -> Result<Option<Isa>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(Isa::Scalar)),
            "avx2" => Ok(Some(Isa::Avx2)),
            "avx512" | "avx-512" => Ok(Some(Isa::Avx512)),
            other => Err(format!(
                "unknown ISA '{other}' (expected auto|scalar|avx2|avx512)"
            )),
        }
    }

    /// Whether the running CPU can execute this variant.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest variant the running CPU supports.
    #[must_use]
    pub fn detect() -> Isa {
        *Isa::ALL
            .iter()
            .rev()
            .find(|isa| isa.available())
            .unwrap_or(&Isa::Scalar)
    }

    /// Every variant the running CPU can execute, narrowest first.
    #[must_use]
    pub fn detect_all() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|i| i.available()).collect()
    }

    /// Pixel lanes this variant's kernel processes per call (the
    /// unit-stride sweep width). Kept in sync with the kernel structs
    /// by `lanes_agree_with_kernels`.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar | Isa::Avx2 => 8,
            Isa::Avx512 => 16,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stage-1 accumulator width a kernel packs its lanes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccWidth {
    /// Narrow 32-bit partial sums — requires the verifier's proof that
    /// the layer's worst-case stage-1 magnitude fits 32 signed bits.
    I32,
    /// Full 64-bit partial sums — always safe (the host accumulator
    /// model), used when the narrow proof fails.
    I64,
}

impl AccWidth {
    /// Signed bits this width holds.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            AccWidth::I32 => 32,
            AccWidth::I64 => 64,
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccWidth::I32 => "i32",
            AccWidth::I64 => "i64",
        }
    }

    /// The narrowest width a kernel implements for a stage-1 partial
    /// sum needing `required_bits` (magnitude + sign).
    #[must_use]
    pub fn narrowest(required_bits: u32) -> AccWidth {
        if required_bits <= AccWidth::I32.bits() {
            AccWidth::I32
        } else {
            AccWidth::I64
        }
    }
}

impl std::fmt::Display for AccWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One resolved kernel choice: the ISA that will run and the stage-1
/// accumulator width it was proven safe at. `Copy + Eq` so prepared
/// layers stay cheaply comparable; [`resolve`] maps it back to the
/// executing kernel object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Selection {
    /// The variant that will execute.
    pub isa: Isa,
    /// The stage-1 accumulator width it runs at.
    pub acc: AccWidth,
}

impl Selection {
    /// Display name, e.g. `avx512/i32`.
    #[must_use]
    pub fn name(self) -> String {
        format!("{}/{}", self.isa, self.acc)
    }

    /// Pixel lanes the resolved kernel processes per call.
    #[must_use]
    pub fn lanes(self) -> usize {
        resolve(self).lanes()
    }
}

impl std::fmt::Display for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.isa, self.acc)
    }
}

/// The environment variable that pins a kernel variant process-wide
/// (`scalar` / `avx2` / `avx512` / `auto`).
pub const FORCE_ISA_ENV: &str = "ABM_FORCE_ISA";

/// Reads [`FORCE_ISA_ENV`]. Unset or `auto` means no pin.
///
/// # Errors
///
/// Returns a description of an unparsable value — a typo'd pin must
/// surface, not silently fall back to auto-detection.
pub fn forced_isa() -> Result<Option<Isa>, String> {
    match std::env::var(FORCE_ISA_ENV) {
        Ok(v) => Isa::parse(&v).map_err(|e| format!("{FORCE_ISA_ENV}: {e}")),
        Err(_) => Ok(None),
    }
}

/// Resolves the kernel variant for one prepared layer. Called once at
/// lowering time (`PreparedConv::try_new`), never on the execution path.
///
/// Priority: explicit `requested` pin, then the [`FORCE_ISA_ENV`]
/// environment pin, then the widest detected ISA. `stage1_bits` is the
/// verifier's worst-case stage-1 accumulator requirement (magnitude +
/// sign, see `abm_verify::AccumulatorModel::stage1_required_bits`):
/// vector ISAs take the narrow `i32` packing only when it provably
/// fits, and otherwise fall back to the checked `i64` scalar port —
/// the bit-identity guarantee never rests on luck.
///
/// # Errors
///
/// Returns a description when a pinned ISA is not executable on this
/// CPU, or the environment pin does not parse.
pub fn select(requested: Option<Isa>, stage1_bits: u32) -> Result<Selection, String> {
    let isa = match requested {
        Some(isa) => isa,
        None => match forced_isa()? {
            Some(isa) => isa,
            None => Isa::detect(),
        },
    };
    if !isa.available() {
        return Err(format!(
            "ISA '{isa}' is not available on this CPU (detected best: {})",
            Isa::detect()
        ));
    }
    let acc = AccWidth::narrowest(stage1_bits);
    Ok(match (isa, acc) {
        (Isa::Scalar, _) => Selection {
            isa: Isa::Scalar,
            acc: AccWidth::I64,
        },
        // The vector kernels only implement the proven narrow packing;
        // a layer too hot for i32 runs the checked i64 scalar port.
        (_, AccWidth::I64) => Selection {
            isa: Isa::Scalar,
            acc: AccWidth::I64,
        },
        (isa, _) => Selection { isa, acc },
    })
}

/// [`select`] with a geometry hint: when nothing pins the ISA, picks
/// the widest *useful* variant for the layer instead of the widest the
/// CPU has. `sweep_len` is the shortest run of adjacent positions the
/// executor sweeps for this layer (`FlatLayout::shortest_sweep`): a run
/// shorter than a variant's lane count never issues a vector call —
/// every position takes the one-at-a-time fallback — so the hint caps
/// the lane count (in practice only fully-connected rows, whose sweep is
/// one position, stay below the vector widths). Explicit pins (argument
/// or [`FORCE_ISA_ENV`]) bypass the heuristic entirely — a forced
/// variant must actually run.
///
/// # Errors
///
/// Same conditions as [`select`].
pub fn select_auto(
    requested: Option<Isa>,
    stage1_bits: u32,
    sweep_len: usize,
) -> Result<Selection, String> {
    let pinned = match requested {
        Some(isa) => Some(isa),
        None => forced_isa()?,
    };
    let isa = pinned.unwrap_or_else(|| {
        *Isa::detect_all()
            .iter()
            .rev()
            .find(|isa| isa.lanes() <= sweep_len)
            .unwrap_or(&Isa::Scalar)
    });
    select(Some(isa), stage1_bits)
}

/// Resolves the kernels a one-position layer (a fully-connected row)
/// sweeps *across a batch* with: the batch's images are the lanes, so
/// what bounds the useful width is how many images there are, known
/// only when a batch arrives. Both answers are resolved here, once per
/// prepared layer: `[narrow, wide]`, the narrowest vector the CPU has
/// (eight images fill one AVX2 register; sixteen lanes with eight live
/// would read twice the lane buffer for nothing) and the widest. A pin
/// (argument, then [`FORCE_ISA_ENV`]) makes both the pinned variant,
/// and a layer whose stage-1 worst case does not fit `i32` gets the
/// checked `i64` scalar port for both, exactly as [`select`] decides.
///
/// # Errors
///
/// Same conditions as [`select`].
pub fn select_lane_kernels(
    requested: Option<Isa>,
    stage1_bits: u32,
) -> Result<[Selection; 2], String> {
    let pinned = match requested {
        Some(isa) => Some(isa),
        None => forced_isa()?,
    };
    let detected = Isa::detect_all();
    let vectors = || detected.iter().copied().filter(|&isa| isa != Isa::Scalar);
    let narrow = pinned.or_else(|| vectors().min_by_key(|isa| isa.lanes()));
    let wide = pinned.or_else(|| vectors().max_by_key(|isa| isa.lanes()));
    let pick = |isa: Option<Isa>| select(Some(isa.unwrap_or(Isa::Scalar)), stage1_bits);
    Ok([pick(narrow)?, pick(wide)?])
}

/// Maps a [`Selection`] to its executing kernel. Total: every value
/// [`select`] can produce resolves, and a hand-built selection for an
/// ISA this build lacks (or the running CPU cannot execute) degrades to
/// the scalar port rather than faulting. That availability re-check is
/// the soundness gate the vector kernels rely on: the `unsafe` island
/// only hands out a vector kernel through this function, so its
/// `#[target_feature]` contract always holds. `is_x86_feature_detected!`
/// caches its answer, and this runs once per prepared layer, never on
/// the execution path.
#[must_use]
pub fn resolve(sel: Selection) -> &'static dyn AbmKernel {
    if !sel.isa.available() {
        return &scalar::ScalarI64;
    }
    match (sel.isa, sel.acc) {
        (Isa::Scalar, _) | (_, AccWidth::I64) => &scalar::ScalarI64,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, AccWidth::I32) => &x86::Avx2I32,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, AccWidth::I32) => &x86::Avx512I32,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &scalar::ScalarI64,
    }
}

/// One ISA variant of the two-stage gather kernels.
///
/// A call accumulates adjacent sweep positions in lock-step — `lanes()`
/// of them through [`gather_unit_pitched`](Self::gather_unit_pitched),
/// `lanes() × block()` through
/// [`gather_block_pitched`](Self::gather_block_pitched): stage 1 walks
/// each value group's flat offset stream once, adding the gathered input
/// pixels into per-lane partial sums; stage 2 multiplies each group's
/// partials by its value and reduces into the per-lane `i64` output
/// accumulators written to `out`.
///
/// # Contract (shared by every implementation)
///
/// * `starts` is the group-bounds table: group `g` owns
///   `offsets[starts[g] as usize .. starts[g + 1] as usize]`, and
///   `values.len() + 1 == starts.len()` (the lowered `FlatKernel`
///   shape, re-proven by `abm-verify`).
/// * **The lane pitch.** Position `i` of a call reads
///   `data[base + i + off · pitch]` for every offset `off`. A
///   convolution sweeps adjacent pixels of one image, whose offsets are
///   addresses already: `pitch = 1`. A fully-connected layer swept
///   *across a batch* reads a lane buffer `[in_feature][lane]` —
///   feature `f` of the image in lane `c` lives at `f · pitch + c` — so
///   the same unscaled offset stream serves every image at
///   `base = 0, pitch = lanes in the buffer`: one offset decode, one
///   weight fetch, a whole vector of images (the accelerator's `S_ec`
///   images on a fully-connected layer).
/// * A call computing `n` positions reads only
///   `data[base + off · pitch .. base + off · pitch + n]`;
///   implementations bounds-check that whole window once per offset
///   (exactly like the original scalar loop), so a violated caller
///   contract panics rather than reading wild.
/// * `out.len()` is at least `n`; exactly the first `n` entries are
///   written, whatever `out.len()` is.
/// * Results are **bit-identical** across implementations, call widths
///   and pitches for inputs within the proven accumulator bound: every
///   lane sees the same additions in the same order, whichever call
///   carried it.
///
/// # Why a block needs no proof of its own
///
/// The executor issues a block at position `i` of a `span`-long sweep
/// only while `i + lanes·block <= span`, so the furthest element any
/// call reads is still `base + span - 1 + max_offset · pitch`. For a
/// convolution that is the bound `abm-verify`'s in-bounds pass already
/// proves `< relaid_len` for the whole output plane; for a lane sweep (`base = 0`, `span = pitch`) it is
/// `max_offset · pitch + pitch - 1`, inside the `in_features · pitch`
/// lane buffer exactly when `max_offset < in_features` — the same
/// obligation at one position. The block is a property of the kernel
/// *object* only: dispatch, telemetry and the simulator keep counting in
/// [`lanes`](Self::lanes).
pub trait AbmKernel: Send + Sync {
    /// The selection this kernel executes.
    fn selection(&self) -> Selection;

    /// Adjacent sweep positions per vector: what one
    /// [`gather_unit_pitched`](Self::gather_unit_pitched) call computes.
    fn lanes(&self) -> usize;

    /// Vectors per [`gather_block_pitched`](Self::gather_block_pitched)
    /// call — how many [`lanes`](Self::lanes)-wide accumulators one
    /// decoded offset feeds (the host's `S_ec`: one address-generator
    /// step, many pixels). A constant of the kernel, `1` unless it
    /// register-blocks.
    fn block(&self) -> usize {
        1
    }

    /// Stage 1 + 2 for `lanes()` adjacent positions from `base`: one
    /// offset's reads form a contiguous window at `base + off · pitch`,
    /// checked with a single slice. (The re-laid-out input makes every
    /// convolution sweep unit-stride, whatever the convolution's
    /// stride; a lane buffer keeps a feature's images adjacent.)
    #[allow(clippy::too_many_arguments)]
    fn gather_unit_pitched(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        pitch: usize,
        out: &mut [i64],
    );

    /// [`gather_unit_pitched`](Self::gather_unit_pitched) for
    /// `lanes() × block()` adjacent positions: per offset, one offset
    /// load and one checked window feed `block()` independent
    /// accumulators.
    #[allow(clippy::too_many_arguments)]
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
        self.gather_unit_pitched(values, starts, offsets, data, base, pitch, out);
    }

    /// [`gather_unit_pitched`](Self::gather_unit_pitched) at
    /// `pitch = 1`: adjacent pixels of one image.
    fn gather_unit(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        out: &mut [i64],
    ) {
        self.gather_unit_pitched(values, starts, offsets, data, base, 1, out);
    }

    /// [`gather_block_pitched`](Self::gather_block_pitched) at
    /// `pitch = 1`.
    fn gather_block(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        out: &mut [i64],
    ) {
        self.gather_block_pitched(values, starts, offsets, data, base, 1, out);
    }
}

/// One output pixel, scalar — stage-1 pointer-bump walk into the
/// shared `partials` scratch, then the stage-2 multiply reduction.
/// Shared by every variant (narrow spans below one vector are not
/// worth re-dispatching) and bit-identical to the lane kernels.
#[inline]
pub fn gather_one(
    values: &[i8],
    starts: &[u32],
    offsets: &[u32],
    data: &[i16],
    base: usize,
    partials: &mut [i64],
) -> i64 {
    for (w, partial) in starts.windows(2).zip(partials.iter_mut()) {
        let mut p = 0i64;
        for &off in &offsets[w[0] as usize..w[1] as usize] {
            p += data[base + off as usize] as i64;
        }
        *partial = p;
    }
    values
        .iter()
        .zip(partials.iter())
        .map(|(&v, &p)| v as i64 * p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random flat kernel + input for
    /// differential tests: `groups` value groups with mixed signs,
    /// offsets spread over a `span`-wide window.
    fn fixture(
        seed: u64,
        groups: usize,
        per_group: usize,
        span: u32,
        data_len: usize,
    ) -> (Vec<i8>, Vec<u32>, Vec<u32>, Vec<i16>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut values = Vec::new();
        let mut starts = vec![0u32];
        let mut offsets = Vec::new();
        for g in 0..groups {
            let v = (g as i8 + 1) * if g % 2 == 0 { 1 } else { -1 };
            values.push(v);
            let mut group: Vec<u32> = (0..per_group).map(|_| next() % span).collect();
            group.sort_unstable();
            group.dedup();
            offsets.extend_from_slice(&group);
            starts.push(offsets.len() as u32);
        }
        let data: Vec<i16> = (0..data_len).map(|_| (next() % 65536) as i16).collect();
        (values, starts, offsets, data)
    }

    fn reference_lanes(
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        lanes: usize,
    ) -> Vec<i64> {
        let mut partials = vec![0i64; values.len()];
        (0..lanes)
            .map(|i| gather_one(values, starts, offsets, data, base + i, &mut partials))
            .collect()
    }

    /// Both call widths of a kernel: `(pixels computed, the call)`.
    type Call = fn(&dyn AbmKernel, &[i8], &[u32], &[u32], &[i16], usize, &mut [i64]);
    fn widths(kern: &dyn AbmKernel) -> [(usize, Call); 2] {
        [
            (kern.lanes(), |k, v, s, o, d, b, out| {
                k.gather_unit(v, s, o, d, b, out)
            }),
            (kern.lanes() * kern.block(), |k, v, s, o, d, b, out| {
                k.gather_block(v, s, o, d, b, out)
            }),
        ]
    }

    /// Every available kernel variant, at its one-vector and its block
    /// width, agrees with the scalar single-pixel oracle across bases —
    /// up to the last legal one, where the furthest read is the buffer's
    /// last element. Full-range i16 inputs, so the i32 variants are
    /// exercised at the worst magnitudes the proof admits; `out` is
    /// longer than the call needs and must stay untouched past it.
    #[test]
    fn variants_match_scalar_oracle() {
        let (values, starts, offsets, data) = fixture(0x5eed, 6, 40, 512, 4096);
        let max_off = *offsets.iter().max().unwrap() as usize;
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 32).expect("available ISA selects");
            let kern = resolve(sel);
            for (n, call) in widths(kern) {
                for base in [0usize, 7, data.len() - max_off - n] {
                    let mut out = vec![i64::MIN; n + 3];
                    call(kern, &values, &starts, &offsets, &data, base, &mut out);
                    let want = reference_lanes(&values, &starts, &offsets, &data, base, n);
                    assert_eq!(&out[..n], &want[..], "{sel} x{n} base {base}");
                    assert!(out[n..].iter().all(|&x| x == i64::MIN), "{sel} x{n}");
                }
            }
        }
    }

    /// One position past the last legal base the widest call must panic
    /// on its window check — never read past the buffer. (The kernel is
    /// the ambient selection, so each `ABM_FORCE_ISA` leg checks its own.)
    #[test]
    #[should_panic(expected = "out of range")]
    fn block_one_past_the_last_base_panics() {
        let (values, starts, offsets, data) = fixture(0x5eed, 6, 40, 512, 4096);
        let max_off = *offsets.iter().max().unwrap() as usize;
        let kern = resolve(select(None, 32).expect("selects"));
        let n = kern.lanes() * kern.block();
        let mut out = vec![0i64; n];
        let base = data.len() - max_off - n + 1;
        kern.gather_block(&values, &starts, &offsets, &data, base, &mut out);
    }

    /// A lane sweep whose offset names a feature the lane buffer has no
    /// row for panics on its window check, like a convolution's sweep
    /// one position past the plane: here 16 features at pitch 16, and an
    /// offset of 16. (The ambient selection, so each `ABM_FORCE_ISA` leg
    /// checks its own kernel.)
    #[test]
    #[should_panic(expected = "out of range")]
    fn pitched_offset_past_the_last_feature_panics() {
        let kern = resolve(select(None, 32).expect("selects"));
        let lanes = vec![1i16; 16 * 16];
        let mut out = vec![0i64; kern.lanes()];
        kern.gather_unit_pitched(&[1], &[0, 2], &[3, 16], &lanes, 0, 16, &mut out);
    }

    /// The lane kernels of a fully-connected layer: unpinned, the
    /// narrowest and the widest vector the CPU has; pinned, the pin for
    /// both; too hot for `i32`, the checked scalar port for both — and
    /// nothing outside the three selections [`select`] returns.
    #[test]
    fn lane_kernels_are_the_narrowest_and_the_widest_vector() {
        let saved = forced_isa().expect("parsable pin");
        for isa in Isa::detect_all() {
            let pinned = select_lane_kernels(Some(isa), 24).expect("selects");
            assert_eq!(pinned, [select(Some(isa), 24).unwrap(); 2], "{isa}");
        }
        let scalar = select(Some(Isa::Scalar), 24).unwrap();
        for isa in Isa::detect_all() {
            assert_eq!(select_lane_kernels(Some(isa), 40).unwrap(), [scalar; 2]);
        }
        let [narrow, wide] = select_lane_kernels(None, 24).expect("selects");
        match saved {
            Some(isa) => assert_eq!(
                [narrow.isa, wide.isa],
                [select(Some(isa), 24).unwrap().isa; 2]
            ),
            None => {
                let vectors: Vec<Isa> = Isa::detect_all().into_iter().skip(1).collect();
                let first = vectors.first().copied().unwrap_or(Isa::Scalar);
                assert_eq!(narrow.isa, first);
                assert_eq!(wide.isa, Isa::detect());
                assert!(narrow.lanes() <= wide.lanes());
            }
        }
    }

    /// The whole dispatch space: every available ISA, pinned and
    /// unpinned, across stage-1 widths either side of the `i32` proof
    /// and sweeps narrower and wider than any lane count. Whatever the
    /// inputs, the result is one of the three selections a kernel exists
    /// for, a layer too hot for `i32` runs the checked scalar port, and
    /// the selection resolves to the kernel that reports it. (The unpinned rows defer to an ambient
    /// `ABM_FORCE_ISA`, which is itself one of the pinned rows.)
    #[test]
    fn dispatch_space_is_three_selections() {
        let scalar = Selection {
            isa: Isa::Scalar,
            acc: AccWidth::I64,
        };
        let reachable = [
            scalar,
            Selection {
                isa: Isa::Avx2,
                acc: AccWidth::I32,
            },
            Selection {
                isa: Isa::Avx512,
                acc: AccWidth::I32,
            },
        ];
        let pins = std::iter::once(None).chain(Isa::detect_all().into_iter().map(Some));
        for pin in pins {
            for bits in [12u32, 24, 32, 33, 48] {
                let mut picked = vec![select(pin, bits).expect("available ISA selects")];
                for sweep in [1usize, 8, 13, 16, 224] {
                    picked.push(select_auto(pin, bits, sweep).expect("available ISA selects"));
                }
                for sel in picked {
                    assert!(reachable.contains(&sel), "{pin:?}/{bits}: {sel}");
                    if bits > 32 {
                        assert_eq!(sel, scalar, "{pin:?}/{bits}");
                    }
                    assert_eq!(resolve(sel).selection(), sel);
                }
            }
        }
    }

    /// Empty groups contribute exactly zero, at either call width.
    #[test]
    fn empty_groups_are_zero() {
        let values = [3i8, -2];
        let starts = [0u32, 0, 0];
        let offsets: [u32; 0] = [];
        let data = vec![7i16; 64];
        for isa in Isa::detect_all() {
            let kern = resolve(select(Some(isa), 32).expect("selects"));
            for (n, call) in widths(kern) {
                let mut out = vec![1i64; n];
                call(kern, &values, &starts, &offsets, &data, 0, &mut out);
                assert!(out.iter().all(|&x| x == 0), "{isa} x{n}");
            }
        }
    }

    #[test]
    fn selection_rules() {
        // Narrow proof → vector ISA keeps its narrow packing.
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 31).expect("selects");
            if isa == Isa::Scalar {
                assert_eq!(sel.acc, AccWidth::I64);
            } else {
                assert_eq!(sel.isa, isa);
                assert_eq!(sel.acc, AccWidth::I32);
            }
        }
        // Failed proof → checked scalar/i64 fallback, whatever was asked.
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 33).expect("selects");
            assert_eq!(
                sel,
                Selection {
                    isa: Isa::Scalar,
                    acc: AccWidth::I64
                }
            );
        }
    }

    #[test]
    fn parse_round_trips() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()).unwrap(), Some(isa));
        }
        assert_eq!(Isa::parse("auto").unwrap(), None);
        assert_eq!(Isa::parse("").unwrap(), None);
        assert_eq!(Isa::parse("AVX2").unwrap(), Some(Isa::Avx2));
        assert!(Isa::parse("sse9").is_err());
    }

    #[test]
    fn acc_width_thresholds() {
        assert_eq!(AccWidth::narrowest(1), AccWidth::I32);
        assert_eq!(AccWidth::narrowest(32), AccWidth::I32);
        assert_eq!(AccWidth::narrowest(33), AccWidth::I64);
        assert_eq!(AccWidth::narrowest(64), AccWidth::I64);
    }

    /// `Isa::lanes` is a static promise about the kernel structs; if a
    /// kernel's width changes this pins the mismatch.
    #[test]
    fn lanes_agree_with_kernels() {
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 31).expect("selects");
            assert_eq!(resolve(sel).lanes(), sel.isa.lanes(), "{isa}");
        }
    }

    #[test]
    fn select_auto_picks_useful_width() {
        // This test exercises the *heuristic*, so it must neutralize an
        // ambient `ABM_FORCE_ISA` (CI runs the whole suite under pinned
        // legs). No other test in this binary touches the variable, and
        // explicit-pin tests are immune to it, so a scoped save/restore
        // is race-free here.
        let saved = std::env::var(FORCE_ISA_ENV).ok();
        std::env::remove_var(FORCE_ISA_ENV);

        // Wide sweep: auto takes the widest the CPU has.
        let wide = select_auto(None, 31, 224).expect("selects");
        assert_eq!(wide.isa, Isa::detect());
        // A 13-position sweep cannot fill 16 lanes: auto must stay <= 8.
        let narrow = select_auto(None, 31, 13).expect("selects");
        assert!(narrow.isa.lanes() <= 13, "{narrow}");
        // A one-position sweep (an FC row) fills no vector at all.
        let fc = select_auto(None, 31, 1).expect("selects");
        assert_eq!(fc.isa, Isa::Scalar);
        // Explicit pins bypass the heuristic.
        let pinned = select_auto(Some(Isa::Scalar), 31, 224).expect("selects");
        assert_eq!(pinned.isa, Isa::Scalar);
        // The environment pin is honored when no explicit pin is given.
        std::env::set_var(FORCE_ISA_ENV, "scalar");
        let forced = select_auto(None, 31, 224).expect("selects");
        assert_eq!(forced.isa, Isa::Scalar);
        std::env::remove_var(FORCE_ISA_ENV);

        if let Some(v) = saved {
            std::env::set_var(FORCE_ISA_ENV, v);
        }
    }
}
