//! The typed error hierarchy surfaced by runtime guards across the
//! stack: conv contract violations, corrupted streams, watchdog
//! deadlines and budget timeouts — everything that used to be a panic
//! or did not exist at all.

use abm_sparse::EncodeError;
use std::error::Error;
use std::fmt;

/// A detected fault or contract violation anywhere in the inference /
/// simulation stack.
///
/// Variants are grouped by the guard that raises them:
///
/// * **contract guards** (`Encode`, `BadGrouping`, `ChannelMismatch`,
///   `ShapeMismatch`, `NotPrepared`) — the former panic sites of
///   `crates/conv`, now typed;
/// * **integrity guards** (`CodeCorrupt`, `ChecksumMismatch`,
///   `InputCorrupt`, `AbftMismatch`) — online detection of corrupted
///   WT/Q-Table/FI streams and accumulator upsets;
/// * **watchdogs** (`CuDeadline`, `FifoOverflow`, `LostDeposit`,
///   `BandwidthCollapse`) — the simulator's timing-domain detectors;
/// * **budgets & recovery** (`WallBudgetExceeded`,
///   `CycleBudgetExceeded`, `WorkerPanic`, `RecoveryExhausted`,
///   `Layer`) — bounded execution and the recovery policy's terminal
///   state.
#[derive(Debug, Clone, PartialEq)]
pub enum AbmError {
    /// The weight encoder rejected a layer (e.g. 16-bit index overflow).
    Encode(EncodeError),
    /// `groups` does not divide the output channels (or is zero).
    BadGrouping {
        /// The offending group count.
        groups: usize,
        /// Output channels that must be divisible by `groups`.
        out_channels: usize,
    },
    /// The input carries the wrong number of channels for the weights.
    ChannelMismatch {
        /// Channels the input actually carries.
        input_channels: usize,
        /// Channels the weights expect (`in_channels × groups`).
        expected: usize,
    },
    /// An input feature map does not match the shape a layer (or the
    /// network) was prepared against. Shapes are `(channels, rows,
    /// cols)`.
    ShapeMismatch {
        /// The shape that arrived.
        got: (usize, usize, usize),
        /// The shape that was prepared for.
        want: (usize, usize, usize),
    },
    /// The prepared weights passed in were built for a different
    /// engine than the one executing.
    NotPrepared {
        /// Layer index in execution order.
        layer: usize,
        /// The engine that found nothing prepared for it.
        engine: &'static str,
    },
    /// A lowered code stream failed structural validation at load: a
    /// flat offset disagrees with its tap, group bounds are not
    /// monotone, or stream lengths are inconsistent.
    CodeCorrupt {
        /// Kernel whose streams are inconsistent.
        kernel: usize,
        /// Human-readable description of the first inconsistency.
        detail: String,
    },
    /// The checksum stored when a `PreparedConv` was built no longer
    /// matches its streams — the signature of a post-load bit flip
    /// (an M20K SEU in hardware terms).
    ChecksumMismatch {
        /// Checksum recorded at preparation time.
        stored: u64,
        /// Checksum of the streams as they are now.
        computed: u64,
    },
    /// An input feature stream's checksum changed between enqueue and
    /// consumption — a DDR-window corruption of FI words.
    InputCorrupt {
        /// Checksum recorded when the input was admitted.
        expected: u64,
        /// Checksum of the stream at consumption.
        computed: u64,
    },
    /// An ABFT activation column-checksum disagrees with the
    /// prediction derived from the input: the output of `kernel` was
    /// corrupted somewhere along the accumulate/multiply/write path.
    AbftMismatch {
        /// Kernel (output channel) whose column sum is off.
        kernel: usize,
        /// Column sum predicted from the input and the code.
        predicted: i64,
        /// Column sum actually observed in the output.
        observed: i64,
    },
    /// A host worker panicked while processing one batch item.
    WorkerPanic {
        /// Index of the poisoned item within the batch.
        item: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A CU task overran its analytic deadline — the CU-progress
    /// watchdog's signature for a hung or badly stalled kernel.
    CuDeadline {
        /// Layer index.
        layer: usize,
        /// Task index within the layer's window-ordered task stream.
        task: usize,
        /// Cycles the task was observed to run beyond its nominal cost.
        delay: u64,
        /// Slack the watchdog tolerates before firing.
        slack: u64,
    },
    /// An injected lane stall exceeded the partial-sum FIFO's
    /// remaining absorption slack — the high-water watchdog's overflow
    /// signature.
    FifoOverflow {
        /// Layer index.
        layer: usize,
        /// Kernel (lane) whose FIFO overflowed.
        kernel: usize,
        /// Stall cycles injected into the lane.
        stall: u64,
        /// Cycles of jitter the FIFO headroom could have absorbed.
        slack: u64,
    },
    /// A partial-sum FIFO deposit was lost: the consumer can never
    /// complete the sweep, so the CU-progress watchdog fires at its
    /// deadline.
    LostDeposit {
        /// Layer index.
        layer: usize,
        /// Kernel (lane) that lost a deposit.
        kernel: usize,
    },
    /// A bandwidth throttle pushed the layer past its latency
    /// deadline: the transfer no longer hides under compute and the
    /// layer-latency watchdog fires.
    BandwidthCollapse {
        /// Layer index.
        layer: usize,
        /// Layer latency with the throttle applied, in seconds.
        seconds: f64,
        /// The watchdog's latency deadline, in seconds.
        deadline: f64,
    },
    /// A budgeted network simulation ran out of wall-clock budget.
    WallBudgetExceeded {
        /// Layers fully simulated before the budget ran out.
        layers_done: usize,
        /// Milliseconds elapsed when the budget check fired.
        elapsed_ms: u64,
        /// The configured budget in milliseconds.
        budget_ms: u64,
    },
    /// A budgeted network simulation ran out of simulated-cycle budget.
    CycleBudgetExceeded {
        /// Layers fully simulated before the budget ran out.
        layers_done: usize,
        /// Cumulative simulated cycles at the check.
        cycles: u64,
        /// The configured cycle budget.
        budget: u64,
    },
    /// Every recovery stage (re-lowering retries, oracle fallback)
    /// failed for a layer.
    RecoveryExhausted {
        /// Layer index.
        layer: usize,
        /// Recovery attempts made before giving up.
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<AbmError>,
    },
    /// A pinned kernel ISA (via `--isa` or `ABM_FORCE_ISA`) cannot run
    /// here: the CPU lacks the feature set, or the spelling did not
    /// parse.
    IsaUnavailable {
        /// What was requested and why it was rejected.
        detail: String,
    },
    /// Admission control refused a request: the bounded queue is full,
    /// or its predicted drain time already exceeds the request's
    /// deadline. The serving layer's typed load-shedding rejection —
    /// nothing ran on behalf of the request.
    Overloaded {
        /// Requests queued or in flight when admission refused.
        queue_depth: usize,
        /// Predicted microseconds until the request would have
        /// completed (queue wait plus service estimate).
        predicted_us: u64,
        /// Microseconds of deadline budget the request arrived with.
        deadline_us: u64,
    },
    /// A per-request (or per-batch-item) deadline expired before the
    /// item ran: the work was cut at a cooperative cancellation point,
    /// never half-applied.
    DeadlineExceeded {
        /// Index of the item within its batch (0 for single requests).
        item: usize,
        /// Microseconds past the deadline when the item was abandoned
        /// (0 means it was cut at the deadline check itself).
        late_us: u64,
    },
    /// An error annotated with the layer it occurred in (execution
    /// order) — the context wrapper the network-level paths add.
    Layer {
        /// Layer index in execution order.
        layer: usize,
        /// The underlying error.
        source: Box<AbmError>,
    },
}

impl AbmError {
    /// Wraps the error with the layer (execution order) it surfaced in.
    /// Already-wrapped errors are left as is.
    #[must_use]
    pub fn at_layer(self, layer: usize) -> Self {
        match self {
            AbmError::Layer { .. } => self,
            source => AbmError::Layer {
                layer,
                source: Box::new(source),
            },
        }
    }

    /// The innermost error, unwrapping [`AbmError::Layer`] and
    /// [`AbmError::RecoveryExhausted`] context.
    #[must_use]
    pub fn root_cause(&self) -> &AbmError {
        match self {
            AbmError::Layer { source, .. } => source.root_cause(),
            AbmError::RecoveryExhausted { last, .. } => last.root_cause(),
            other => other,
        }
    }

    /// Whether this error came from an integrity guard (corruption
    /// detection) rather than a contract violation or budget.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(
            self.root_cause(),
            AbmError::CodeCorrupt { .. }
                | AbmError::ChecksumMismatch { .. }
                | AbmError::InputCorrupt { .. }
                | AbmError::AbftMismatch { .. }
        )
    }

    /// Whether this error is a serving-layer rejection (load shed or
    /// deadline cut) rather than a fault or contract violation: the
    /// request never produced a half-result and is safe to retry
    /// against another replica.
    #[must_use]
    pub fn is_rejection(&self) -> bool {
        matches!(
            self.root_cause(),
            AbmError::Overloaded { .. } | AbmError::DeadlineExceeded { .. }
        )
    }

    /// Whether this error came from a simulator watchdog (timing
    /// domain).
    #[must_use]
    pub fn is_watchdog(&self) -> bool {
        matches!(
            self.root_cause(),
            AbmError::CuDeadline { .. }
                | AbmError::FifoOverflow { .. }
                | AbmError::LostDeposit { .. }
                | AbmError::BandwidthCollapse { .. }
        )
    }
}

impl fmt::Display for AbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbmError::Encode(e) => write!(f, "encode failed: {e}"),
            AbmError::BadGrouping {
                groups,
                out_channels,
            } => write!(
                f,
                "groups {groups} must be positive and divide out_channels {out_channels}"
            ),
            AbmError::ChannelMismatch {
                input_channels,
                expected,
            } => write!(
                f,
                "input channels {input_channels} != weight in_channels x groups {expected}"
            ),
            AbmError::ShapeMismatch { got, want } => write!(
                f,
                "input shape {}x{}x{} != prepared shape {}x{}x{}",
                got.0, got.1, got.2, want.0, want.1, want.2
            ),
            AbmError::NotPrepared { layer, engine } => write!(
                f,
                "layer {layer} has no prepared weights for the {engine} engine"
            ),
            AbmError::CodeCorrupt { kernel, detail } => {
                write!(f, "kernel {kernel} code streams corrupt: {detail}")
            }
            AbmError::ChecksumMismatch { stored, computed } => write!(
                f,
                "code checksum mismatch: stored {stored:#018x}, streams now hash {computed:#018x}"
            ),
            AbmError::InputCorrupt { expected, computed } => write!(
                f,
                "input stream checksum mismatch: admitted {expected:#018x}, consumed {computed:#018x}"
            ),
            AbmError::AbftMismatch {
                kernel,
                predicted,
                observed,
            } => write!(
                f,
                "ABFT column checksum mismatch on kernel {kernel}: predicted {predicted}, observed {observed}"
            ),
            AbmError::WorkerPanic { item, message } => {
                write!(f, "worker panicked on batch item {item}: {message}")
            }
            AbmError::CuDeadline {
                layer,
                task,
                delay,
                slack,
            } => write!(
                f,
                "CU-progress watchdog: layer {layer} task {task} ran {delay} cycles past nominal (slack {slack})"
            ),
            AbmError::FifoOverflow {
                layer,
                kernel,
                stall,
                slack,
            } => write!(
                f,
                "FIFO high-water watchdog: layer {layer} lane {kernel} stalled {stall} cycles, headroom {slack}"
            ),
            AbmError::LostDeposit { layer, kernel } => write!(
                f,
                "CU-progress watchdog: layer {layer} lane {kernel} lost a partial-sum deposit"
            ),
            AbmError::BandwidthCollapse {
                layer,
                seconds,
                deadline,
            } => write!(
                f,
                "layer-latency watchdog: layer {layer} took {seconds:.6}s against a {deadline:.6}s deadline"
            ),
            AbmError::WallBudgetExceeded {
                layers_done,
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "simulation wall budget exceeded after {layers_done} layers ({elapsed_ms} ms of {budget_ms} ms)"
            ),
            AbmError::CycleBudgetExceeded {
                layers_done,
                cycles,
                budget,
            } => write!(
                f,
                "simulation cycle budget exceeded after {layers_done} layers ({cycles} of {budget} cycles)"
            ),
            AbmError::RecoveryExhausted {
                layer,
                attempts,
                last,
            } => write!(
                f,
                "layer {layer} unrecoverable after {attempts} attempts: {last}"
            ),
            AbmError::IsaUnavailable { detail } => {
                write!(f, "kernel ISA unavailable: {detail}")
            }
            AbmError::Overloaded {
                queue_depth,
                predicted_us,
                deadline_us,
            } => write!(
                f,
                "overloaded: {queue_depth} request(s) ahead, predicted {predicted_us} us against a {deadline_us} us deadline"
            ),
            AbmError::DeadlineExceeded { item, late_us } => write!(
                f,
                "deadline exceeded: item {item} abandoned {late_us} us past its deadline"
            ),
            AbmError::Layer { layer, source } => write!(f, "layer {layer}: {source}"),
        }
    }
}

impl Error for AbmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AbmError::Encode(e) => Some(e),
            AbmError::Layer { source, .. } => Some(source.as_ref()),
            AbmError::RecoveryExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<EncodeError> for AbmError {
    /// A corrupt code is an integrity failure like any other corrupted
    /// stream ([`AbmError::CodeCorrupt`]); the rest are contract errors.
    fn from(e: EncodeError) -> Self {
        match e {
            EncodeError::CorruptCode { kernel } => AbmError::CodeCorrupt {
                kernel,
                detail: e.to_string(),
            },
            _ => AbmError::Encode(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = AbmError::BadGrouping {
            groups: 2,
            out_channels: 3,
        };
        assert!(e.to_string().contains("divide out_channels 3"));
        let e = AbmError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn layer_context_wraps_once() {
        let e = AbmError::LostDeposit {
            layer: 3,
            kernel: 7,
        }
        .at_layer(3);
        let again = e.clone().at_layer(9);
        assert_eq!(e, again, "at_layer must be idempotent");
        assert_eq!(
            e.root_cause(),
            &AbmError::LostDeposit {
                layer: 3,
                kernel: 7
            }
        );
        assert!(e.is_watchdog());
        assert!(!e.is_corruption());
    }

    #[test]
    fn encode_error_converts() {
        let enc = EncodeError::IndexOverflow { kernel_len: 70000 };
        let e: AbmError = enc.into();
        assert_eq!(e, AbmError::Encode(enc));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn rejections_are_typed_and_descriptive() {
        let shed = AbmError::Overloaded {
            queue_depth: 12,
            predicted_us: 9000,
            deadline_us: 4000,
        };
        assert!(shed.is_rejection());
        assert!(!shed.is_corruption() && !shed.is_watchdog());
        assert!(shed.to_string().contains("12 request(s) ahead"));
        let cut = AbmError::DeadlineExceeded {
            item: 3,
            late_us: 250,
        };
        assert!(cut.is_rejection());
        assert!(cut.to_string().contains("item 3"));
        // Layer context does not hide the rejection classification.
        assert!(cut.at_layer(1).is_rejection());
        assert!(!AbmError::LostDeposit {
            layer: 0,
            kernel: 0
        }
        .is_rejection());
    }

    #[test]
    fn recovery_exhausted_unwraps_to_root() {
        let e = AbmError::RecoveryExhausted {
            layer: 1,
            attempts: 2,
            last: Box::new(AbmError::AbftMismatch {
                kernel: 0,
                predicted: 10,
                observed: 11,
            }),
        };
        assert!(e.is_corruption());
        assert!(e.to_string().contains("unrecoverable after 2 attempts"));
    }
}
