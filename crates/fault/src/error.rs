//! The typed error hierarchy surfaced by runtime guards across the
//! stack: contract violations, corrupted streams, watchdog deadlines
//! and serving rejections — everything that used to be a panic or did
//! not exist at all.

use abm_sparse::EncodeError;
use std::error::Error;
use std::fmt;

/// A detected fault or contract violation anywhere in the inference /
/// simulation stack.
///
/// Variants are grouped by the guard that raises them:
///
/// * **contract guards** (`Encode`, `BadGrouping`, `ChannelMismatch`,
///   `ShapeMismatch`, `NotPrepared`, `IsaUnavailable`, `InvalidConfig`)
///   — the former panic sites of `crates/conv`, a kernel ISA pin the
///   CPU cannot honour, and a serving configuration that cannot run;
/// * **integrity guards** (`CodeCorrupt`, `ChecksumMismatch`,
///   `AbftMismatch`) — a code that no longer lowers, and online
///   detection of corrupted WT/Q-Table streams and accumulator upsets;
/// * **watchdogs** (`CuDeadline`, `FifoOverflow`, `LostDeposit`,
///   `BandwidthCollapse`) — the simulator's timing-domain detectors;
/// * **rejections** (`Overloaded`, `DeadlineExceeded`) — the serving
///   layer's load shedding and deadline cuts;
/// * **context** (`WorkerPanic`, `Layer`) — a panicked pool item, and
///   the layer an error surfaced in.
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
    /// A code no longer walks: an index past the kernel volume, or
    /// Q-Table counts that do not tile the index stream. Lowering such a
    /// code returns it.
    CodeCorrupt {
        /// Kernel whose streams are inconsistent.
        kernel: usize,
        /// Human-readable description of the first inconsistency,
        /// naming the kernel first.
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
    /// A layer's ABFT checksum — the total of its output plane over
    /// every kernel — disagrees with the prediction from the input and
    /// the column checksum built at preparation: an output was
    /// corrupted somewhere along the accumulate/multiply/write path (or
    /// the column checksum itself was). Which kernel is not named: the
    /// recovery ladder re-lowers whole layers.
    AbftMismatch {
        /// Plane total predicted from the input and the weights.
        predicted: i64,
        /// Plane total actually observed in the output.
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
    /// A pinned kernel ISA (via `--isa` or `ABM_FORCE_ISA`) cannot run
    /// here: the CPU lacks the feature set, or the spelling did not
    /// parse.
    IsaUnavailable {
        /// What was requested and why it was rejected.
        detail: String,
    },
    /// A serving configuration cannot run: a knob that must be
    /// positive is zero. Nothing was prepared or started.
    InvalidConfig {
        /// Which field is wrong, and why.
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

    /// The innermost error, unwrapping [`AbmError::Layer`] context.
    #[must_use]
    pub fn root_cause(&self) -> &AbmError {
        match self {
            AbmError::Layer { source, .. } => source.root_cause(),
            other => other,
        }
    }

    /// Whether this error came from an integrity guard (corruption
    /// detection) rather than a contract violation or a rejection.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(
            self.root_cause(),
            AbmError::CodeCorrupt { .. }
                | AbmError::ChecksumMismatch { .. }
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
            // The detail names the kernel itself (a verifier defect, an
            // `EncodeError::CorruptCode`).
            AbmError::CodeCorrupt { detail, .. } => write!(f, "code streams corrupt: {detail}"),
            AbmError::ChecksumMismatch { stored, computed } => write!(
                f,
                "code checksum mismatch: stored {stored:#018x}, streams now hash {computed:#018x}"
            ),
            AbmError::AbftMismatch {
                predicted,
                observed,
            } => write!(
                f,
                "ABFT checksum mismatch: predicted plane total {predicted}, observed {observed}"
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
            AbmError::IsaUnavailable { detail } => {
                write!(f, "kernel ISA unavailable: {detail}")
            }
            AbmError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
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
}
