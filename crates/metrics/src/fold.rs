//! The simulator's aggregates as a fold over its event stream.
//!
//! The simulator writes none of its own aggregates. It records
//! telemetry events, and [`MetricsRegistry::fold`] turns a recorded
//! stream into the `sim_*` counters and gauges, so every simulator
//! aggregate is a function of the stream by construction and cannot
//! drift from it. `tests/metrics.rs` pins the fold to the totals
//! `NetworkSim` carries itself.

use crate::registry::MetricsRegistry;
use abm_telemetry::Event;
use std::collections::BTreeMap;

/// The prefix every aggregate [`MetricsRegistry::fold`] writes carries.
pub const SIM_PREFIX: &str = "sim_";
/// Compute cycles summed over layers: each `LayerEnd` minus its
/// `LayerBegin`.
pub const SIM_COMPUTE_CYCLES: &str = "sim_compute_cycles_total";
/// Layers retired: `LayerEnd`s that closed a `LayerBegin`.
pub const SIM_LAYERS: &str = "sim_layers_total";

impl MetricsRegistry {
    /// Folds a recorded simulator event stream into the `sim_*`
    /// aggregates:
    ///
    /// | event | counters (sum) | gauges (maximum) |
    /// |---|---|---|
    /// | `LaneStats` | `sim_{acc_busy,acc_stall,mult_busy}_cycles_total` | `sim_fifo_high_water` |
    /// | `QueueDepth` | | `sim_queue_depth_high_water` |
    /// | `DdrWindow` | `sim_ddr_{read,write}_bytes_total` | |
    /// | `CuTask` | `sim_cu{c}_busy_cycles_total`, `sim_cu_busy_cycles_total` | |
    /// | `LayerBegin` … `LayerEnd` | `sim_layers_total`, `sim_compute_cycles_total` | |
    ///
    /// Counters add to what the registry already holds; gauges rise to
    /// the stream's maximum. A metric is written only if the stream
    /// holds its event, and every other event is ignored. A `LayerEnd`
    /// whose `LayerBegin` is not in the stream (a tail cut mid-layer)
    /// is skipped. Does nothing while the registry is disabled.
    pub fn fold(&self, events: &[Event]) {
        if !self.is_enabled() {
            return;
        }
        let (mut counters, mut gauges) = (BTreeMap::new(), BTreeMap::new());
        let mut add = |name: &'static str, v: u64| *counters.entry(name).or_default() += v;
        let mut raise = |name: &'static str, v: u64| {
            let peak: &mut u64 = gauges.entry(name).or_default();
            *peak = (*peak).max(v);
        };
        let mut cu_busy: BTreeMap<u32, u64> = BTreeMap::new();
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        for event in events {
            match event {
                Event::LaneStats {
                    acc_busy,
                    acc_stall,
                    mult_busy,
                    fifo_high_water,
                    ..
                } => {
                    add("sim_acc_busy_cycles_total", *acc_busy);
                    add("sim_acc_stall_cycles_total", *acc_stall);
                    add("sim_mult_busy_cycles_total", *mult_busy);
                    raise("sim_fifo_high_water", u64::from(*fifo_high_water));
                }
                Event::QueueDepth { depth, .. } => {
                    raise("sim_queue_depth_high_water", u64::from(*depth));
                }
                Event::DdrWindow {
                    read_bytes,
                    write_bytes,
                    ..
                } => {
                    add("sim_ddr_read_bytes_total", *read_bytes);
                    add("sim_ddr_write_bytes_total", *write_bytes);
                }
                Event::CuTask { cu, start, end, .. } => {
                    *cu_busy.entry(*cu).or_default() += end.saturating_sub(*start);
                }
                Event::LayerBegin { layer, cycle, .. } => {
                    open.insert(*layer, *cycle);
                }
                Event::LayerEnd { layer, cycle } => {
                    if let Some(begin) = open.remove(layer) {
                        add(SIM_LAYERS, 1);
                        add(SIM_COMPUTE_CYCLES, cycle.saturating_sub(begin));
                    }
                }
                _ => {}
            }
        }
        for (cu, busy) in cu_busy {
            self.counter(&format!("sim_cu{cu}_busy_cycles_total"))
                .add(busy);
            add("sim_cu_busy_cycles_total", busy);
        }
        for (name, total) in counters {
            self.counter(name).add(total);
        }
        for (name, peak) in gauges {
            self.gauge(name).set_max(peak);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two layers on a cumulative timeline (the second begins where the
    /// first ends, neither at cycle 0), three CU tasks on two CUs, and
    /// an event the fold ignores.
    fn stream() -> Vec<Event> {
        let lanes = |layer, acc_busy, fifo_high_water| Event::LaneStats {
            layer,
            kernel: 0,
            acc_busy,
            acc_stall: 1,
            mult_busy: 10,
            fifo_high_water,
        };
        let task = |layer, cu, start, end| Event::CuTask {
            layer,
            cu,
            start,
            end,
        };
        vec![
            Event::LayerBegin {
                layer: 0,
                name: "CONV1".into(),
                cycle: 100,
            },
            lanes(0, 40, 5),
            Event::QueueDepth {
                layer: 0,
                window: 0,
                depth: 4,
            },
            Event::DdrWindow {
                layer: 0,
                window: 0,
                read_bytes: 300,
                write_bytes: 30,
            },
            task(0, 0, 100, 130),
            task(0, 1, 100, 150),
            Event::LayerEnd {
                layer: 0,
                cycle: 160,
            },
            Event::LayerBegin {
                layer: 1,
                name: "CONV2".into(),
                cycle: 160,
            },
            lanes(1, 2, 3),
            Event::QueueDepth {
                layer: 1,
                window: 0,
                depth: 2,
            },
            Event::DdrWindow {
                layer: 1,
                window: 0,
                read_bytes: 7,
                write_bytes: 3,
            },
            task(1, 0, 160, 200),
            Event::WorkerClaims {
                worker: 0,
                tasks: 9,
                busy_ns: 9,
            },
            Event::LayerEnd {
                layer: 1,
                cycle: 200,
            },
        ]
    }

    #[test]
    fn fold_sums_counters_and_takes_gauge_maxima() {
        let r = MetricsRegistry::new(8);
        r.fold(&stream());
        let s = r.snapshot();
        let counters: Vec<(&str, u64)> = s.counters.iter().map(|(k, v)| (&**k, *v)).collect();
        assert_eq!(
            counters,
            [
                ("sim_acc_busy_cycles_total", 42),
                ("sim_acc_stall_cycles_total", 2),
                (SIM_COMPUTE_CYCLES, 100),
                ("sim_cu0_busy_cycles_total", 70),
                ("sim_cu1_busy_cycles_total", 50),
                ("sim_cu_busy_cycles_total", 120),
                ("sim_ddr_read_bytes_total", 307),
                ("sim_ddr_write_bytes_total", 33),
                (SIM_LAYERS, 2),
                ("sim_mult_busy_cycles_total", 20),
            ]
        );
        assert_eq!(s.gauges["sim_fifo_high_water"], 5);
        assert_eq!(s.gauges["sim_queue_depth_high_water"], 4);
        assert!(s.counters.keys().all(|k| k.starts_with(SIM_PREFIX)));

        // A second fold adds to every counter; the gauges stay at the
        // maximum instead of summing.
        r.fold(&stream());
        let s = r.snapshot();
        assert_eq!(s.counters[SIM_COMPUTE_CYCLES], 200);
        assert_eq!(s.counters["sim_cu0_busy_cycles_total"], 140);
        assert_eq!(s.gauges["sim_fifo_high_water"], 5);
        assert_eq!(s.gauges["sim_queue_depth_high_water"], 4);
    }

    #[test]
    fn an_end_without_its_begin_is_skipped() {
        let r = MetricsRegistry::new(8);
        r.fold(&stream()[1..]);
        let s = r.snapshot();
        assert_eq!(s.counters[SIM_LAYERS], 1);
        assert_eq!(s.counters[SIM_COMPUTE_CYCLES], 40);
    }

    #[test]
    fn a_disabled_registry_stays_at_zero() {
        let r = MetricsRegistry::new(8);
        r.set_enabled(false);
        r.fold(&stream());
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty(), "{s:?}");
    }
}
