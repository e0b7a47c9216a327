//! Pass 3 — the exhaustive-interleaving model checker.
//!
//! The repository has two hand-written concurrent protocols: the
//! work-stealing injector loop behind `abm-conv`'s `parallel_map` (the
//! host analogue of the paper's semi-synchronous CU scheduler), and the
//! accumulator→FIFO→multiplier hand-off inside a lane (`abm-sim`'s
//! timing recurrence models it; the hardware builds it). Both are
//! tested dynamically, but a racy protocol can pass any finite number
//! of timed runs. This module checks them the way a hardware team checks
//! a handshake: enumerate **every** interleaving of a small bounded
//! instance and prove the invariants in all reachable states.
//!
//! The harness is hand-rolled (no `loom`): a [`Model`] exposes an
//! initial state, a successor relation at the protocol's atomic-step
//! granularity (one mutex acquisition, one FIFO push), a state
//! invariant and a terminal-state acceptance check. [`explore`] walks
//! the reachable state graph depth-first with memoisation and returns a
//! [`VerifyReport`]: `facts` counts distinct states proven, and any
//! violation carries the exact action trace that reaches it.
//!
//! Both models take a fault knob ([`DequeFault`], [`FifoFault`]) that
//! re-introduces a concurrency bug (dropping the lock around the pop,
//! ignoring FIFO backpressure). The checker must catch each seeded
//! fault — that is what demonstrates the passes have teeth, the same
//! way the lowering verifier is validated against corrupted codes.

use crate::report::{Defect, VerifyReport};
use std::collections::HashSet;
use std::hash::Hash;

/// A finite-state concurrency model to exhaustively check.
pub trait Model {
    /// One global protocol state.
    type State: Clone + Eq + Hash;

    /// Model name (appears in defects).
    fn name(&self) -> &'static str;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Appends every `(action, next_state)` enabled in `state`.
    /// An empty successor set marks `state` terminal.
    fn successors(&self, state: &Self::State, out: &mut Vec<(&'static str, Self::State)>);

    /// A property every reachable state must satisfy.
    ///
    /// # Errors
    ///
    /// Describes the violated property.
    fn invariant(&self, state: &Self::State) -> Result<(), String>;

    /// A property every terminal (no-successor) state must satisfy —
    /// this is where deadlocks and lost/duplicated work surface.
    ///
    /// # Errors
    ///
    /// Describes the violated property.
    fn accept_terminal(&self, state: &Self::State) -> Result<(), String>;
}

/// Exhaustively explores `model`'s reachable states (bounded by
/// `max_states` as a runaway guard) and reports either the number of
/// states proven or the first violation with its action trace.
#[must_use]
pub fn explore<M: Model>(model: &M, max_states: u64) -> VerifyReport {
    let mut report = VerifyReport::new(model.name());
    let mut seen: HashSet<M::State> = HashSet::new();
    let mut stack: Vec<(M::State, Vec<&'static str>)> = Vec::new();
    let mut next = Vec::new();

    let initial = model.initial();
    seen.insert(initial.clone());
    stack.push((initial, Vec::new()));

    while let Some((state, trace)) = stack.pop() {
        if let Err(message) = model.invariant(&state) {
            report.defect(Defect::InterleavingViolation {
                model: model.name().into(),
                message,
                trace,
            });
            return report;
        }
        report.facts += 1;
        if report.facts > max_states {
            report.defect(Defect::InterleavingViolation {
                model: model.name().into(),
                message: format!("state space exceeds the {max_states}-state bound"),
                trace,
            });
            return report;
        }
        next.clear();
        model.successors(&state, &mut next);
        if next.is_empty() {
            if let Err(message) = model.accept_terminal(&state) {
                report.defect(Defect::InterleavingViolation {
                    model: model.name().into(),
                    message,
                    trace,
                });
                return report;
            }
            continue;
        }
        for (action, succ) in next.drain(..) {
            if seen.insert(succ.clone()) {
                let mut t = trace.clone();
                t.push(action);
                stack.push((succ, t));
            }
        }
    }
    report
}

// Per-actor action labels must be `&'static str` for the trace type;
// index by actor id (bounded instances only — up to 4 actors).
const ACT_LOCK: [&str; 4] = ["w0.lock", "w1.lock", "w2.lock", "w3.lock"];
const ACT_POP: [&str; 4] = ["w0.pop", "w1.pop", "w2.pop", "w3.pop"];
const ACT_EMPTY: [&str; 4] = ["w0.empty", "w1.empty", "w2.empty", "w3.empty"];
const ACT_EXEC: [&str; 4] = ["w0.exec", "w1.exec", "w2.exec", "w3.exec"];

/// A concurrency bug the deque model can re-introduce on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DequeFault {
    /// Faithful protocol: pop the queue head only while holding the
    /// injector mutex.
    #[default]
    None,
    /// Skip the mutex: read the head and remove it in two separately
    /// interleavable steps — the classic racy steal.
    RacyPop,
}

/// Bounded model of `parallel_map`'s work-stealing loop: `tasks` queued
/// up front in a mutex-protected injector, `workers` threads each
/// looping steal → execute → steal until the queue is empty.
#[derive(Debug, Clone)]
pub struct DequeModel {
    /// Worker threads (≤ 4).
    pub workers: usize,
    /// Tasks pushed before the workers start (≤ 8).
    pub tasks: usize,
    /// Seeded fault, if any.
    pub fault: DequeFault,
}

/// One worker's program counter in [`DequeModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WorkerPc {
    /// Between loop iterations, about to contend for the lock.
    Idle,
    /// Holding the injector mutex (faithful protocol).
    Locked,
    /// Racy variant: read the head (this task id), removal still pending.
    RacyRead(u8),
    /// Task claimed, executing it.
    Executing(u8),
    /// Observed an empty queue and retired.
    Done,
}

/// Global state of [`DequeModel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DequeState {
    queue: Vec<u8>,
    lock_held: bool,
    pcs: Vec<WorkerPc>,
    /// Stolen task ids in removal order (linearization of steals).
    steal_log: Vec<u8>,
    /// Per-task execution count.
    executed: Vec<u8>,
}

impl Model for DequeModel {
    type State = DequeState;

    fn name(&self) -> &'static str {
        match self.fault {
            DequeFault::None => "deque",
            DequeFault::RacyPop => "deque[racy-pop]",
        }
    }

    fn initial(&self) -> Self::State {
        DequeState {
            queue: (0..self.tasks as u8).collect(),
            lock_held: false,
            pcs: vec![WorkerPc::Idle; self.workers],
            steal_log: Vec::new(),
            executed: vec![0; self.tasks],
        }
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<(&'static str, Self::State)>) {
        for (w, &pc) in state.pcs.iter().enumerate() {
            match (pc, self.fault) {
                (WorkerPc::Idle, DequeFault::None) => {
                    // Acquire the injector mutex (blocks while held).
                    if !state.lock_held {
                        let mut s = state.clone();
                        s.lock_held = true;
                        s.pcs[w] = WorkerPc::Locked;
                        out.push((ACT_LOCK[w], s));
                    }
                }
                (WorkerPc::Locked, _) => {
                    // Pop the head and release, or observe empty and retire.
                    let mut s = state.clone();
                    s.lock_held = false;
                    if s.queue.is_empty() {
                        s.pcs[w] = WorkerPc::Done;
                        out.push((ACT_EMPTY[w], s));
                    } else {
                        let task = s.queue.remove(0);
                        s.steal_log.push(task);
                        s.pcs[w] = WorkerPc::Executing(task);
                        out.push((ACT_POP[w], s));
                    }
                }
                (WorkerPc::Idle, DequeFault::RacyPop) => {
                    // Unlocked read of the head...
                    match state.queue.first() {
                        Some(&task) => {
                            let mut s = state.clone();
                            s.pcs[w] = WorkerPc::RacyRead(task);
                            out.push((ACT_LOCK[w], s));
                        }
                        None => {
                            let mut s = state.clone();
                            s.pcs[w] = WorkerPc::Done;
                            out.push((ACT_EMPTY[w], s));
                        }
                    }
                }
                (WorkerPc::RacyRead(task), _) => {
                    // ...then a separately-interleaved removal: another
                    // worker may have raced us to it.
                    let mut s = state.clone();
                    if s.queue.first() == Some(&task) {
                        s.queue.remove(0);
                        s.steal_log.push(task);
                    }
                    s.pcs[w] = WorkerPc::Executing(task);
                    out.push((ACT_POP[w], s));
                }
                (WorkerPc::Executing(task), _) => {
                    let mut s = state.clone();
                    s.executed[task as usize] += 1;
                    s.pcs[w] = WorkerPc::Idle;
                    out.push((ACT_EXEC[w], s));
                }
                (WorkerPc::Done, _) => {}
            }
        }
    }

    fn invariant(&self, state: &Self::State) -> Result<(), String> {
        // Steal linearizability: the injector is FIFO and tasks were
        // queued in id order, so the removal log must read 0, 1, 2, ...
        for (i, &t) in state.steal_log.iter().enumerate() {
            if t as usize != i {
                return Err(format!(
                    "steal log position {i} holds task {t}: steals not linearizable in queue order"
                ));
            }
        }
        // No task observed more than once.
        for (task, &n) in state.executed.iter().enumerate() {
            if n > 1 {
                return Err(format!("task {task} executed {n} times"));
            }
        }
        Ok(())
    }

    fn accept_terminal(&self, state: &Self::State) -> Result<(), String> {
        if !state.pcs.iter().all(|&pc| pc == WorkerPc::Done) {
            return Err("deadlock: not all workers retired".into());
        }
        if !state.queue.is_empty() {
            return Err(format!(
                "{} task(s) left unclaimed in the queue",
                state.queue.len()
            ));
        }
        for (task, &n) in state.executed.iter().enumerate() {
            if n != 1 {
                return Err(format!("task {task} executed {n} times (expected once)"));
            }
        }
        Ok(())
    }
}

const ACT_ACC: &str = "acc.cycle";
const ACT_DEPOSIT: &str = "acc.deposit";
const ACT_MULT: &str = "mult.cycle";
const ACT_DRAIN: &str = "mult.drain";

/// A concurrency bug the FIFO model can re-introduce on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FifoFault {
    /// Faithful protocol: the accumulators stall while the FIFO is full.
    #[default]
    None,
    /// Ignore backpressure and deposit into a full FIFO.
    IgnoreBackpressure,
}

/// Bounded model of one lane's accumulator→FIFO→multiplier hand-off
/// (the protocol `abm-sim::lane`'s recurrence times): the accumulators
/// spend `c_p` cycles per value group, deposit a partial-sum set per
/// group, and the shared multiplier drains one set every `n` cycles.
#[derive(Debug, Clone)]
pub struct FifoModel {
    /// Per-group accumulate cycles, in stream order (≤ 4 groups).
    pub group_cycles: Vec<u8>,
    /// FIFO capacity in partial-sum sets.
    pub depth: usize,
    /// Multiplier cycles per drained set (`N`).
    pub n: u8,
    /// Seeded fault, if any.
    pub fault: FifoFault,
}

/// Global state of [`FifoModel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FifoState {
    /// Next group the accumulators work on.
    group: usize,
    /// Cycles remaining in the current group (0 = ready to deposit).
    remaining: u8,
    /// Deposit present but not yet handed to the accumulators' next
    /// group (deposit happens once per group).
    deposited: bool,
    /// Group ids currently in the FIFO, oldest first.
    fifo: Vec<u8>,
    /// Multiplier's current set and remaining cycles, if busy.
    mult: Option<(u8, u8)>,
    /// Group ids fully drained, in completion order.
    drained: Vec<u8>,
}

impl FifoModel {
    fn groups(&self) -> usize {
        self.group_cycles.len()
    }
}

impl Model for FifoModel {
    type State = FifoState;

    fn name(&self) -> &'static str {
        match self.fault {
            FifoFault::None => "lane-fifo",
            FifoFault::IgnoreBackpressure => "lane-fifo[no-backpressure]",
        }
    }

    fn initial(&self) -> Self::State {
        FifoState {
            group: 0,
            remaining: self.group_cycles.first().copied().unwrap_or(0),
            deposited: false,
            fifo: Vec::new(),
            mult: None,
            drained: Vec::new(),
        }
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<(&'static str, Self::State)>) {
        // Accumulator side.
        if state.group < self.groups() {
            if state.remaining > 0 {
                let mut s = state.clone();
                s.remaining -= 1;
                out.push((ACT_ACC, s));
            } else if !state.deposited {
                // Group finished: deposit its partial-sum set, honouring
                // (or, faulted, ignoring) backpressure.
                if state.fifo.len() < self.depth || self.fault == FifoFault::IgnoreBackpressure {
                    let mut s = state.clone();
                    s.fifo.push(state.group as u8);
                    s.deposited = true;
                    out.push((ACT_DEPOSIT, s));
                }
                // else: stalled — no accumulator successor until the
                // multiplier frees a slot.
            } else {
                // Advance to the next group.
                let mut s = state.clone();
                s.group += 1;
                s.remaining = self.group_cycles.get(s.group).copied().unwrap_or(0);
                s.deposited = false;
                out.push((ACT_ACC, s));
            }
        }
        // Multiplier side.
        match state.mult {
            Some((g, rem)) => {
                let mut s = state.clone();
                if rem > 1 {
                    s.mult = Some((g, rem - 1));
                    out.push((ACT_MULT, s));
                } else {
                    s.mult = None;
                    s.drained.push(g);
                    out.push((ACT_DRAIN, s));
                }
            }
            None => {
                if !state.fifo.is_empty() {
                    let mut s = state.clone();
                    let g = s.fifo.remove(0);
                    s.mult = Some((g, self.n.max(1)));
                    out.push((ACT_MULT, s));
                }
            }
        }
    }

    fn invariant(&self, state: &Self::State) -> Result<(), String> {
        if state.fifo.len() > self.depth {
            return Err(format!(
                "FIFO occupancy {} exceeds depth {}",
                state.fifo.len(),
                self.depth
            ));
        }
        // Sets must drain in deposit (group) order.
        for (i, &g) in state.drained.iter().enumerate() {
            if g as usize != i {
                return Err(format!(
                    "drain position {i} holds group {g}: partial sums consumed out of order"
                ));
            }
        }
        Ok(())
    }

    fn accept_terminal(&self, state: &Self::State) -> Result<(), String> {
        if state.group < self.groups() {
            return Err(format!(
                "deadlock: accumulators stuck at group {} of {}",
                state.group,
                self.groups()
            ));
        }
        if state.drained.len() != self.groups() {
            return Err(format!(
                "{} of {} partial-sum sets drained (lost deposits)",
                state.drained.len(),
                self.groups()
            ));
        }
        Ok(())
    }
}

/// The bounded instances CI explores: small enough to finish in
/// seconds, large enough to exercise contention (3 workers × 4 tasks
/// covers every lock interleaving; depth-1 and depth-2 FIFOs exercise
/// backpressure stalls).
#[must_use]
pub fn standard_suite() -> Vec<VerifyReport> {
    let mut reports = Vec::new();
    for (workers, tasks) in [(2, 2), (2, 4), (3, 3), (3, 4)] {
        let mut r = explore(
            &DequeModel {
                workers,
                tasks,
                fault: DequeFault::None,
            },
            2_000_000,
        );
        r.subject = format!("deque workers={workers} tasks={tasks}");
        reports.push(r);
    }
    for (cycles, depth, n) in [
        (vec![1u8, 1, 1], 1usize, 2u8),
        (vec![2, 1, 3], 2, 2),
        (vec![1, 1, 1, 1], 2, 3),
        (vec![3, 1], 1, 1),
    ] {
        let subject = format!("lane-fifo groups={} depth={depth} N={n}", cycles.len());
        let mut r = explore(
            &FifoModel {
                group_cycles: cycles,
                depth,
                n,
                fault: FifoFault::None,
            },
            2_000_000,
        );
        r.subject = subject;
        reports.push(r);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_deque_passes_exhaustively() {
        let r = explore(
            &DequeModel {
                workers: 3,
                tasks: 4,
                fault: DequeFault::None,
            },
            2_000_000,
        );
        assert!(r.is_clean(), "{r}");
        assert!(
            r.facts > 100,
            "expected a real state space, got {}",
            r.facts
        );
    }

    #[test]
    fn racy_pop_is_caught_with_a_trace() {
        let r = explore(
            &DequeModel {
                workers: 2,
                tasks: 2,
                fault: DequeFault::RacyPop,
            },
            2_000_000,
        );
        assert!(r.has_class("interleaving_violation"), "{r}");
        // The counterexample names the interleaved actions.
        let Defect::InterleavingViolation { trace, .. } = &r.defects[0] else {
            panic!("wrong defect: {r}");
        };
        assert!(!trace.is_empty());
    }

    #[test]
    fn faithful_fifo_passes_exhaustively() {
        for r in standard_suite() {
            assert!(r.is_clean(), "{r}");
        }
    }

    #[test]
    fn ignored_backpressure_overflows_the_fifo() {
        let r = explore(
            &FifoModel {
                group_cycles: vec![1, 1, 1],
                depth: 1,
                n: 3,
                fault: FifoFault::IgnoreBackpressure,
            },
            2_000_000,
        );
        assert!(r.has_class("interleaving_violation"), "{r}");
        assert!(r.to_string().contains("occupancy"), "{r}");
    }

    #[test]
    fn state_bound_guards_runaway() {
        let r = explore(
            &DequeModel {
                workers: 3,
                tasks: 4,
                fault: DequeFault::None,
            },
            10,
        );
        assert!(r.has_class("interleaving_violation"));
        assert!(r.to_string().contains("bound"));
    }
}
