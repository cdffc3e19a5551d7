//! Typed training anomalies and the deterministic fault-injection harness.
//!
//! The divergence guard of every fit ([`crate::Pipeline::fit`]) checks three things
//! every epoch — loss finiteness after the forward pass, gradient finiteness
//! (via the global gradient norm) after the backward pass, and parameter
//! finiteness after the optimizer step — and surfaces each violation as a
//! [`TrainAnomaly`] instead of letting NaNs silently poison every task head.
//!
//! `FaultPlan` is the test harness for that machinery: it corrupts a chosen
//! gradient or parameter at a chosen epoch so tests can prove the whole
//! detect → rollback → retry → converge pipeline end-to-end. It is
//! compiled only for this crate's unit tests and behind the
//! `fault-injection` cargo feature; production builds carry no injection
//! code path.

use std::fmt;

/// A divergence detected by the per-epoch training guard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrainAnomaly {
    /// The summed training or validation loss left the finite range.
    NonFiniteLoss {
        /// Epoch index (0-based) at which the check fired.
        epoch: usize,
        /// Summed training loss that epoch.
        train: f32,
        /// Summed validation loss that epoch.
        val: f32,
    },
    /// Some parameter gradient contained a non-finite element, observed as a
    /// non-finite global gradient norm.
    NonFiniteGradient {
        /// Epoch index at which the check fired.
        epoch: usize,
        /// The offending global L2 norm (`NaN` or `inf`).
        norm: f64,
    },
    /// Some trainable parameter value became non-finite after the optimizer
    /// step.
    NonFiniteParameter {
        /// Epoch index at which the check fired.
        epoch: usize,
    },
    /// One attribute's task loss left the finite range while the others
    /// stayed healthy. The per-column degradation ladder demotes only that
    /// column to its baseline tier; no rollback is triggered.
    NonFiniteTaskLoss {
        /// Epoch index at which the check fired.
        epoch: usize,
        /// Index of the diverging column/task.
        column: usize,
    },
}

impl TrainAnomaly {
    /// Epoch index at which the anomaly was detected.
    pub fn epoch(&self) -> usize {
        match *self {
            TrainAnomaly::NonFiniteLoss { epoch, .. }
            | TrainAnomaly::NonFiniteGradient { epoch, .. }
            | TrainAnomaly::NonFiniteParameter { epoch }
            | TrainAnomaly::NonFiniteTaskLoss { epoch, .. } => epoch,
        }
    }
}

impl fmt::Display for TrainAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainAnomaly::NonFiniteLoss { epoch, train, val } => write!(
                f,
                "epoch {epoch}: non-finite loss (train {train}, val {val})"
            ),
            TrainAnomaly::NonFiniteGradient { epoch, norm } => {
                write!(f, "epoch {epoch}: non-finite gradient norm ({norm})")
            }
            TrainAnomaly::NonFiniteParameter { epoch } => {
                write!(
                    f,
                    "epoch {epoch}: non-finite parameter after optimizer step"
                )
            }
            TrainAnomaly::NonFiniteTaskLoss { epoch, column } => {
                write!(
                    f,
                    "epoch {epoch}: non-finite task loss for column {column} \
                     (demoted to its baseline tier)"
                )
            }
        }
    }
}

/// What a [`FaultPlan`] corrupts.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one element of the first parameter gradient with `NaN`
    /// after the backward pass.
    GradNan,
    /// Overwrite one element of the first trainable parameter with `NaN`
    /// after the optimizer step.
    ParamNan,
    /// Poison the task loss of column `.0` with `NaN` after the forward
    /// pass, driving the per-column degradation ladder for exactly that
    /// column while every other task stays healthy.
    TaskLossNan(usize),
    /// Fail the next checkpoint save with an injected I/O error, exercising
    /// the save-time error path without touching the filesystem.
    CheckpointWrite,
}

/// A deterministic fault to inject during training: at epoch `at_epoch`
/// (0-based, counted over *attempted* epochs so a rolled-back epoch is hit
/// again on retry), corrupt state according to `kind`, up to `times` times
/// over the whole run.
///
/// With `times: 1` the retry after rollback runs clean and must converge;
/// with a large `times` every retry is re-poisoned until the recovery budget
/// is exhausted and the model degrades to the mode/mean baseline.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Epoch at which to inject.
    pub at_epoch: usize,
    /// Maximum number of injections across the run (retries included).
    pub times: usize,
    /// What to corrupt.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomalies_render_their_epoch_and_cause() {
        let a = TrainAnomaly::NonFiniteLoss {
            epoch: 3,
            train: f32::NAN,
            val: 1.0,
        };
        assert_eq!(a.epoch(), 3);
        assert!(a.to_string().contains("epoch 3"));
        let g = TrainAnomaly::NonFiniteGradient {
            epoch: 7,
            norm: f64::INFINITY,
        };
        assert_eq!(g.epoch(), 7);
        assert!(g.to_string().contains("gradient"));
        let p = TrainAnomaly::NonFiniteParameter { epoch: 11 };
        assert_eq!(p.epoch(), 11);
        assert!(p.to_string().contains("parameter"));
    }
}
