//! Typed engine errors: the taxonomy degradation policies dispatch on.
//!
//! The simulator's [`SimError`] says *what* went wrong at the kernel level;
//! [`EngineError`] says what it *means* at the serving level, which is the
//! distinction a policy needs:
//!
//! - **plan-time** failures ([`EngineError::PlanOom`],
//!   [`EngineError::PlanInfeasible`]) — the batch shape itself doesn't fit
//!   the device. Retrying is pointless; the only recovery is a smaller
//!   batch (bucket downshift).
//! - **execute-time transients** ([`EngineError::Transient`]) — one launch
//!   of an otherwise-valid plan failed. Bounded retry with backoff is the
//!   right response; a fresh launch index gets a fresh fault roll.
//! - **execute-time OOM** ([`EngineError::ExecOom`]) — the device rejected
//!   an allocation mid-plan. Same-size retry keeps failing; degrade.
//! - **terminal** failures ([`EngineError::RetriesExhausted`],
//!   [`EngineError::Fatal`]) — the policy gave up or the error is outside
//!   the taxonomy. These surface to the caller as `Err`, never a panic.

use memcnn_gpusim::{Fault, SimError};
use std::fmt;

/// A typed engine/serving error. See the module docs for the taxonomy.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// Planning a batch failed because its footprint exceeds device memory.
    /// Degradable: a smaller batch may fit.
    PlanOom {
        /// Batch size that failed to plan.
        batch: usize,
        /// Bytes the failing kernel needed.
        needed: u64,
        /// Bytes the device has.
        available: u64,
    },
    /// Planning failed for a structural reason (unlaunchable kernel,
    /// un-rebatchable network). Not recoverable by shrinking the batch.
    PlanInfeasible(String),
    /// One launch of a valid plan failed transiently (injected
    /// launch-failure). Retryable: the next launch index rolls fresh.
    Transient {
        /// Layer whose launch failed.
        layer: String,
        /// Launch index the fault fired at.
        launch: u64,
        /// The underlying fault.
        fault: Fault,
    },
    /// The device rejected an allocation while executing a plan. Retrying
    /// at the same size keeps failing; degradable to a smaller batch.
    ExecOom {
        /// Layer whose allocation failed.
        layer: String,
        /// Launch index the fault fired at.
        launch: u64,
    },
    /// A bounded-retry loop exhausted its budget. Terminal; carries the
    /// last transient error for diagnosis.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<EngineError>,
    },
    /// An error outside the taxonomy. Terminal.
    Fatal(String),
}

impl EngineError {
    /// Classify a plan-time [`SimError`] for a batch of `batch` images.
    pub fn plan(batch: usize, err: SimError) -> EngineError {
        match err {
            SimError::OutOfMemory { needed, available } => {
                EngineError::PlanOom { batch, needed, available }
            }
            SimError::Unlaunchable(msg) => EngineError::PlanInfeasible(msg),
            err @ SimError::AddressOutOfRange(_) => EngineError::Fatal(err.to_string()),
        }
    }

    /// Whether retrying the same operation can succeed (only transients).
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Transient { .. })
    }

    /// Whether shrinking the batch can succeed (the OOM classes).
    pub fn is_degradable(&self) -> bool {
        matches!(self, EngineError::PlanOom { .. } | EngineError::ExecOom { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::PlanOom { batch, needed, available } => write!(
                f,
                "plan for batch {batch} exceeds device memory ({:.1} MB needed, {:.1} MB available)",
                *needed as f64 / 1e6,
                *available as f64 / 1e6
            ),
            EngineError::PlanInfeasible(msg) => write!(f, "plan infeasible: {msg}"),
            EngineError::Transient { layer, launch, fault } => {
                write!(f, "transient fault {fault:?} on layer {layer} at launch {launch}")
            }
            EngineError::ExecOom { layer, launch } => {
                write!(f, "device out of memory on layer {layer} at launch {launch}")
            }
            EngineError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            EngineError::Fatal(msg) => write!(f, "fatal: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Run `attempt` up to `1 + max_retries` times, retrying only transient
/// errors. `attempt` receives the attempt number (0 for the first try) so
/// callers can vary launch indices or charge backoff per attempt.
///
/// Non-transient errors return immediately (retrying a structural failure
/// is wasted work); transient exhaustion returns
/// [`EngineError::RetriesExhausted`] wrapping the last error — a typed
/// `Err`, never a panic.
pub fn with_retries<T>(
    max_retries: u32,
    mut attempt: impl FnMut(u32) -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let mut last = None;
    for i in 0..=max_retries {
        match attempt(i) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(EngineError::RetriesExhausted {
        attempts: max_retries + 1,
        last: Box::new(last.unwrap_or(EngineError::Fatal("retry loop ran zero attempts".into()))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_classifies_sim_errors() {
        let oom = EngineError::plan(64, SimError::OutOfMemory { needed: 10, available: 5 });
        assert_eq!(oom, EngineError::PlanOom { batch: 64, needed: 10, available: 5 });
        assert!(oom.is_degradable() && !oom.is_transient());
        let inf = EngineError::plan(64, SimError::Unlaunchable("too many threads".into()));
        assert_eq!(inf, EngineError::PlanInfeasible("too many threads".into()));
        assert!(!inf.is_degradable() && !inf.is_transient());
    }

    #[test]
    fn with_retries_retries_transients_and_gives_up_typed() {
        // Succeeds on the third attempt: two transients absorbed.
        let mut calls = 0;
        let out = with_retries(3, |i| {
            calls += 1;
            if i < 2 {
                Err(EngineError::Transient {
                    layer: "CV1".into(),
                    launch: i as u64,
                    fault: Fault::LaunchFailed,
                })
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);

        // Always-transient: typed exhaustion, with the attempt count.
        let out: Result<(), _> = with_retries(2, |i| {
            Err(EngineError::Transient {
                layer: "CV1".into(),
                launch: i as u64,
                fault: Fault::LaunchFailed,
            })
        });
        match out {
            Err(EngineError::RetriesExhausted { attempts: 3, last }) => {
                assert!(last.is_transient())
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }

        // Non-transient errors are not retried.
        let mut calls = 0;
        let out: Result<(), _> = with_retries(5, |_| {
            calls += 1;
            Err(EngineError::ExecOom { layer: "CV1".into(), launch: 0 })
        });
        assert!(matches!(out, Err(EngineError::ExecOom { .. })));
        assert_eq!(calls, 1);
    }
}
