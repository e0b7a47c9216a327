//! Timing model of one kernel lane inside a convolution unit.
//!
//! A lane owns `S_ec` pixel accumulators working in lock-step on the same
//! weight-index stream, organized in groups of `N` that share one
//! multiplier through a partial-sum FIFO (Figure 2-(b)).
//!
//! For one vector of `S_ec` output pixels the lane walks the kernel's
//! encoded value groups in order. A group with `c_p` indexes takes `c_p`
//! accumulate cycles, then deposits `S_ec` partial sums into the FIFOs;
//! the `S_ec/N` multipliers drain one deposit in `N` cycles (round-robin
//! over their `N` accumulators). When values repeat rarely (`c_p < N` on
//! average, i.e. the kernel's Acc/Mult ratio is below `N`) the multiplier
//! becomes the bottleneck; when the FIFO fills, the accumulators stall —
//! exactly the behaviour that makes the paper pick `N` from the minimum
//! Acc/Mult ratio (Section 5.2).

use abm_sparse::KernelCode;

/// Cycle cost of one lane processing one `S_ec`-pixel vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaneCycles {
    /// Cycles the accumulators spend doing useful work.
    pub acc_busy: u64,
    /// Cycles the accumulators stall on a full FIFO.
    pub acc_stall: u64,
    /// Cycle at which the last multiply completes (the vector's makespan
    /// from the lane's perspective).
    pub makespan: u64,
}

impl LaneCycles {
    /// Total accumulate-stage occupancy (busy + stalled).
    pub fn acc_total(&self) -> u64 {
        self.acc_busy + self.acc_stall
    }
}

/// Simulates one vector sweep of a lane over a kernel's encoded stream.
///
/// `n` is the accumulators-per-multiplier ratio and `fifo_depth` the
/// number of partial-sum sets the FIFOs can hold.
///
/// # Panics
///
/// Panics if `n` or `fifo_depth` is zero.
pub fn vector_cycles(kernel: &KernelCode, n: u64, fifo_depth: usize) -> LaneCycles {
    vector_cycles_impl::<false>(kernel, n, fifo_depth).cycles
}

/// A lane timing result together with what a probe observed along the
/// way (currently the partial-sum FIFO's high-water mark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaneObservation {
    /// The timing result — identical to the unprobed recurrence.
    pub cycles: LaneCycles,
    /// Deepest simultaneous FIFO occupancy (deposits made but not yet
    /// fully consumed by the multiplier) observed during the sweep.
    pub fifo_high_water: u32,
}

/// [`vector_cycles`] with the FIFO-occupancy probe enabled. Timing is
/// identical to the unprobed call; the probe only *observes* (the
/// cycle-stepped model in [`crate::cycle`] cross-checks the high-water
/// semantics).
///
/// # Panics
///
/// Panics if `n` or `fifo_depth` is zero.
pub fn vector_cycles_probed(kernel: &KernelCode, n: u64, fifo_depth: usize) -> LaneObservation {
    vector_cycles_impl::<true>(kernel, n, fifo_depth)
}

/// The timing recurrence proper, over the kernel's Q-Table `NUM` column
/// in stream order, generic over whether the occupancy probe runs. With
/// `PROBE = false` the probe arm is a compile-time-dead branch, so the
/// hot path monomorphizes to exactly the historical recurrence.
fn vector_cycles_impl<const PROBE: bool>(
    kernel: &KernelCode,
    n: u64,
    fifo_depth: usize,
) -> LaneObservation {
    assert!(n > 0, "n must be positive");
    assert!(fifo_depth > 0, "fifo_depth must be positive");
    let mut acc_time = 0u64; // accumulate-stage clock
    let mut acc_stall = 0u64;
    let mut mult_free = 0u64; // when the multiplier finishes its backlog
    let mut high_water = 0u32;
    // Completion times of deposits still in the FIFO.
    let mut fifo: std::collections::VecDeque<u64> = std::collections::VecDeque::new();

    for c_p in kernel.group_counts() {
        // The accumulators need c_p cycles for this group...
        let mut ready = acc_time + c_p;
        // ...but can only deposit when a FIFO slot is free.
        // The loop guard holds fifo.len() >= fifo_depth >= 1, so the
        // pop always yields; `while let` makes that unconditionally
        // panic-free.
        while fifo.len() >= fifo_depth {
            let Some(drained) = fifo.pop_front() else {
                break;
            };
            if drained > ready {
                acc_stall += drained - ready;
                ready = drained;
            }
        }
        acc_time = ready;
        // Multiplier consumes this deposit in n cycles once it gets to it.
        let start = mult_free.max(ready);
        mult_free = start + n;
        fifo.push_back(mult_free);
        if PROBE {
            // True occupancy at deposit time: entries the multiplier has
            // not fully consumed yet (the queue keeps drained entries
            // around lazily, so len() alone over-counts).
            let occ = fifo.iter().filter(|&&done| done > ready).count();
            high_water = high_water.max(u32::try_from(occ).unwrap_or(u32::MAX));
        }
    }
    LaneObservation {
        cycles: LaneCycles {
            acc_busy: u64::from(kernel.total()),
            acc_stall,
            makespan: acc_time.max(mult_free),
        },
        fifo_high_water: high_water,
    }
}

/// Cycle cost of a lane computing `vectors` vector sweeps of the same
/// kernel (the per-vector structure repeats; sweeps pipeline back to
/// back).
pub fn lane_cycles(kernel: &KernelCode, vectors: u64, n: u64, fifo_depth: usize) -> u64 {
    if vectors == 0 || kernel.total() == 0 {
        return 0;
    }
    let v = vector_cycles(kernel, n, fifo_depth);
    // Steady state: back-to-back sweeps pipeline, so each additional
    // sweep costs the occupancy of the busier stage — the accumulators
    // (busy + stall cycles) or the shared multiplier (`Q·N` cycles per
    // sweep). The final sweep exposes its full makespan.
    let mult_occupancy = kernel.distinct() as u64 * n;
    let per_sweep = v.acc_total().max(mult_occupancy);
    (vectors - 1) * per_sweep + v.makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(kernel: &[i8]) -> KernelCode {
        KernelCode::encode(kernel).unwrap()
    }

    #[test]
    fn long_runs_keep_multiplier_fed() {
        // One value, 16 occurrences: 16 acc cycles, one deposit, N=4.
        let k = code(&[7i8; 16]);
        let v = vector_cycles(&k, 4, 8);
        assert_eq!(v.acc_busy, 16);
        assert_eq!(v.acc_stall, 0);
        assert_eq!(v.makespan, 20); // 16 acc + 4 mult tail
    }

    #[test]
    fn short_runs_bottleneck_on_multiplier() {
        // 8 distinct values, one occurrence each: acc 8 cycles, mult
        // needs 8*4 = 32.
        let vals: Vec<i8> = (1..=8).collect();
        let k = code(&vals);
        let v = vector_cycles(&k, 4, 64);
        assert_eq!(v.acc_busy, 8);
        // Deep FIFO: no stalls, but makespan is multiplier-bound.
        assert_eq!(v.acc_stall, 0);
        assert_eq!(v.makespan, 1 + 8 * 4); // first deposit at t=1, then serial
    }

    #[test]
    fn shallow_fifo_stalls_accumulators() {
        let vals: Vec<i8> = (1..=8).collect();
        let k = code(&vals);
        let deep = vector_cycles(&k, 4, 64);
        let shallow = vector_cycles(&k, 4, 1);
        assert!(shallow.acc_stall > 0, "depth-1 FIFO must stall");
        // Stalling cannot change the multiplier-bound makespan here.
        assert_eq!(shallow.makespan, deep.makespan);
    }

    #[test]
    fn balanced_ratio_meets_n() {
        // c_p = N = 4 for every group: perfectly pipelined.
        let mut vals = Vec::new();
        for v in 1..=4i8 {
            vals.extend_from_slice(&[v; 4]);
        }
        let k = code(&vals);
        let v = vector_cycles(&k, 4, 8);
        assert_eq!(v.acc_busy, 16);
        assert_eq!(v.acc_stall, 0);
        assert_eq!(v.makespan, 4 + 16); // mult trails by one group
    }

    #[test]
    fn empty_kernel_is_free() {
        let k = code(&[0i8; 9]);
        let v = vector_cycles(&k, 4, 8);
        assert_eq!(v.makespan, 0);
        assert_eq!(lane_cycles(&k, 100, 4, 8), 0);
    }

    #[test]
    fn lane_cycles_scale_with_vectors() {
        let k = code(&[3i8; 10]);
        let one = lane_cycles(&k, 1, 4, 8);
        let ten = lane_cycles(&k, 10, 4, 8);
        assert!(ten > one);
        // Steady-state sweeps cost at least the accumulate occupancy.
        assert!(ten >= 9 * 10 + one);
        assert_eq!(lane_cycles(&k, 0, 4, 8), 0);
    }

    #[test]
    fn acc_bound_kernel_steady_state_is_acc_time() {
        // nnz=20, Q=2: heavily accumulate-bound, so 100 sweeps ≈ 100*20.
        let mut vals = vec![1i8; 10];
        vals.extend_from_slice(&[2i8; 10]);
        let k = code(&vals);
        let total = lane_cycles(&k, 100, 4, 8);
        assert!(total >= 2000);
        assert!(
            total < 2000 + 50,
            "tail overhead should be small, got {total}"
        );
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zero_n_panics() {
        let k = code(&[1i8]);
        let _ = vector_cycles(&k, 0, 8);
    }

    #[test]
    fn probe_never_perturbs_timing() {
        let mut vals = Vec::new();
        for (v, c) in [(1i8, 5usize), (2, 1), (3, 3), (4, 1), (5, 7)] {
            vals.extend(std::iter::repeat_n(v, c));
        }
        let k = code(&vals);
        for n in [1u64, 2, 4] {
            for depth in [1usize, 2, 8] {
                let plain = vector_cycles(&k, n, depth);
                let probed = vector_cycles_probed(&k, n, depth);
                assert_eq!(plain, probed.cycles, "n={n} depth={depth}");
                let hw = probed.fifo_high_water as usize;
                assert!(hw >= 1 && hw <= depth, "n={n} depth={depth}: {hw}");
            }
        }
    }

    #[test]
    fn deep_fifo_high_water_tracks_backlog() {
        // Singleton groups at N=4 outpace the multiplier 4:1, so the
        // backlog grows until the FIFO bounds it.
        let vals: Vec<i8> = (1..=8).collect();
        let k = code(&vals);
        let deep = vector_cycles_probed(&k, 4, 64);
        let shallow = vector_cycles_probed(&k, 4, 2);
        assert!(deep.fifo_high_water > shallow.fifo_high_water);
        assert_eq!(shallow.fifo_high_water, 2);
    }
}
