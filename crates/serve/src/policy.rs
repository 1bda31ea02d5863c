//! Degradation policies: what the server *does* about injected faults.
//!
//! The error taxonomy (`memcnn_core::EngineError`) classifies failures;
//! this module decides the response, one policy per class:
//!
//! - **transient launch failures** → bounded retry with deterministic
//!   exponential backoff ([`FaultPolicy::max_retries`],
//!   [`FaultPolicy::backoff_base`]); exhaustion sheds the batch.
//! - **execute-time OOM** → bucket downshift: the batch re-forms at half
//!   the bucket, and a circuit-style *degraded mode* pins that smaller
//!   bucket until [`FaultPolicy::recovery_batches`] consecutive clean
//!   batches pass (retrying the full size on every batch would thrash).
//! - **queue pressure** → deadline-based load shedding: requests whose
//!   wait already exceeds [`FaultPolicy::shed_deadline`] when the device
//!   frees up are dropped instead of served hopelessly late.
//!
//! Every decision is counted in [`FaultStats`], whose invariant — each
//! injected fault is accounted exactly once as retried, degraded, or shed
//! ([`FaultStats::balanced`]) — is what the chaos tests enforce.

use memcnn_core::EngineError;
use serde::Serialize;

/// Tunable fault-handling policy for a serving run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FaultPolicy {
    /// Retries after the first failed attempt of a batch (so a batch
    /// launches at most `1 + max_retries` times). 0 sheds on first
    /// transient.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based): `backoff_base * 2^(k-1)`
    /// simulated seconds. Deterministic — no jitter, so replays are
    /// bit-identical.
    pub backoff_base: f64,
    /// Maximum time a request may wait in queue before it is shed instead
    /// of served (`None`: never shed on deadline). Checked when the device
    /// frees up, before batch formation.
    pub shed_deadline: Option<f64>,
    /// Consecutive clean batches (no retries, no throttles) required to
    /// leave degraded mode and unpin the bucket cap after an OOM
    /// downshift.
    pub recovery_batches: u64,
}

impl Default for FaultPolicy {
    fn default() -> FaultPolicy {
        FaultPolicy { max_retries: 3, backoff_base: 2e-4, shed_deadline: None, recovery_batches: 8 }
    }
}

impl FaultPolicy {
    /// Backoff charged before 1-based retry `k`: `backoff_base * 2^(k-1)`.
    pub fn backoff(&self, retry: u32) -> f64 {
        self.backoff_base * f64::powi(2.0, retry.saturating_sub(1) as i32)
    }
}

/// Fault accounting for one serving run. `injected` counts every fault the
/// plan fired; each is resolved exactly once as `retried` (a fresh launch
/// attempt), `degraded` (absorbed slower: a throttle, or an OOM bucket
/// downshift), or `shed` (the batch's requests were dropped).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Faults the plan fired during the run.
    pub injected: u64,
    /// Transient faults answered with a retry.
    pub retried: u64,
    /// Faults absorbed by degrading: throttles plus OOM downshifts.
    pub degraded: u64,
    /// Faults resolved by shedding the batch (retry exhaustion, or OOM at
    /// bucket 1 with nothing left to shrink).
    pub shed: u64,
    /// Throttle faults among `injected` (a subset of `degraded`).
    pub throttled: u64,
    /// OOM-triggered bucket downshifts (a subset of `degraded`).
    pub oom_downshifts: u64,
    /// Times the server entered degraded mode (pinned a smaller bucket).
    pub degraded_entries: u64,
    /// Times the server left degraded mode (clean-batch streak reached).
    pub degraded_exits: u64,
}

impl FaultStats {
    /// The counter-discipline invariant: every injected fault accounted
    /// exactly once. The chaos suite asserts this on every run.
    pub fn balanced(&self) -> bool {
        self.injected == self.retried + self.degraded + self.shed
    }

    /// [`FaultStats::balanced`] as a typed error, checked in release
    /// builds too: `EngineError::Fatal` naming `scope` and the tallies.
    pub(crate) fn check_balanced(&self, scope: impl std::fmt::Display) -> Result<(), EngineError> {
        if self.balanced() {
            return Ok(());
        }
        Err(EngineError::Fatal(format!(
            "{scope} fault accounting out of balance: injected {} != retried {} + degraded {} \
             + shed {}",
            self.injected, self.retried, self.degraded, self.shed
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_retry() {
        let p = FaultPolicy { backoff_base: 1e-4, ..FaultPolicy::default() };
        assert_eq!(p.backoff(1), 1e-4);
        assert_eq!(p.backoff(2), 2e-4);
        assert_eq!(p.backoff(3), 4e-4);
    }

    #[test]
    fn balanced_checks_the_exact_identity() {
        let mut s =
            FaultStats { injected: 5, retried: 2, degraded: 2, shed: 1, ..Default::default() };
        assert!(s.balanced());
        assert_eq!(s.check_balanced("fleet"), Ok(()));
        s.injected += 1;
        assert!(!s.balanced());
        assert_eq!(
            s.check_balanced(format_args!("device {}", 3)),
            Err(EngineError::Fatal(
                "device 3 fault accounting out of balance: injected 6 != retried 2 + degraded 2 \
                 + shed 1"
                    .to_string()
            ))
        );
    }
}
