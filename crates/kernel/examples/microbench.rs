//! Quick standalone throughput probe for the kernel variants:
//! `cargo run --release -p abm-kernel --example microbench`
//!
//! Shapes mimic a mid-network VGG layer: ~40 distinct values per
//! kernel, a few hundred taps, unit stride. Not a substitute for the
//! `hotpath` bench — just a sanity check that the vector paths pay.

use abm_kernel::{gather_one, resolve, select, Isa};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let groups = 40usize;
    let per_group = 12usize;
    let span = 3 * 230u32;
    let data_len = 230 * 230usize;
    let mut state = 0x5eed_u64 | 1;
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
        values.push((g as i8 % 63 + 1) * if g % 2 == 0 { 1 } else { -1 });
        let mut group: Vec<u32> = (0..per_group).map(|_| next() % span).collect();
        group.sort_unstable();
        group.dedup();
        offsets.extend_from_slice(&group);
        starts.push(offsets.len() as u32);
    }
    let data: Vec<i16> = (0..data_len).map(|_| (next() % 65536) as i16).collect();

    let pixels = 224 * 224usize;
    let reps = 20;

    // Single-pixel oracle baseline.
    let mut partials = vec![0i64; values.len()];
    let t0 = Instant::now();
    let mut sink = 0i64;
    for _ in 0..reps {
        for px in 0..pixels {
            sink ^= gather_one(&values, &starts, &offsets, &data, px % 1024, &mut partials);
        }
    }
    let oracle_ns = t0.elapsed().as_nanos() as f64 / (reps * pixels) as f64;
    black_box(sink);
    println!("{:>12}  {:7.2} ns/px  1.00x", "gather_one", oracle_ns);

    for isa in Isa::detect_all() {
        let kern = resolve(select(Some(isa), 32).expect("available"));
        let lanes = kern.lanes();
        let wide = lanes * kern.block();
        // One row per call width: a vector per call, then — where the
        // kernel register-blocks — `block()` vectors per offset decode.
        for blocked in [false, true] {
            if blocked && wide == lanes {
                continue;
            }
            let step = if blocked { wide } else { lanes };
            let mut out = vec![0i64; step];
            let t0 = Instant::now();
            for _ in 0..reps {
                let mut px = 0;
                while px + step <= pixels {
                    let base = px % 1024;
                    if blocked {
                        kern.gather_block(&values, &starts, &offsets, &data, base, &mut out);
                    } else {
                        kern.gather_unit(&values, &starts, &offsets, &data, base, &mut out);
                    }
                    px += step;
                }
                black_box(&out);
            }
            let ns = t0.elapsed().as_nanos() as f64 / (reps * pixels) as f64;
            println!(
                "{:>12}  {:7.2} ns/px  {:.2}x",
                format!("{} x{step}", isa.name()),
                ns,
                oracle_ns / ns
            );
        }
    }
}
