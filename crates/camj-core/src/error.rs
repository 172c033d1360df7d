//! Framework-level error types.

use std::error::Error;
use std::fmt;

use camj_digital::sim::SimError;

/// Any failure CamJ can report while checking or estimating a design.
///
/// The pre-simulation checks (paper Sec. 3.2) surface as the
/// `Check`-prefixed variants; the cycle-level simulation surfaces
/// [`CamjError::Sim`]; an over-committed frame budget surfaces
/// [`CamjError::FrameRateInfeasible`].
#[derive(Debug, Clone, PartialEq)]
pub enum CamjError {
    /// The algorithm DAG is malformed (cycle, unknown stage, size
    /// mismatch along an edge, …).
    CheckDag {
        /// What is wrong.
        reason: String,
    },
    /// The algorithm/hardware combination is not functionally viable
    /// (domain mismatch, missing ADC between analog and digital, …).
    CheckFunctional {
        /// What is wrong.
        reason: String,
    },
    /// The mapping is incomplete or references unknown units.
    CheckMapping {
        /// What is wrong.
        reason: String,
    },
    /// The digital pipeline cannot sustain the pixel readout rate at the
    /// target FPS; the paper asks the user to re-design the hardware.
    StallDetected {
        /// The underlying simulator diagnosis.
        cause: SimError,
    },
    /// The digital latency alone exceeds the frame time — no time is
    /// left for the analog pipeline at the target FPS.
    FrameRateInfeasible {
        /// Target frame time in seconds.
        frame_time_s: f64,
        /// Measured digital latency in seconds.
        digital_latency_s: f64,
    },
    /// The cycle-level simulation itself failed.
    Sim(SimError),
    /// A functional simulation would allocate a tensor above
    /// [`MAX_FRAME_ELEMENTS`](crate::functional::MAX_FRAME_ELEMENTS).
    FrameTooLarge {
        /// The algorithm stage whose input or output is too large.
        stage: String,
        /// Elements the tensor would hold.
        elements: u64,
        /// The limit it exceeds.
        limit: u64,
    },
}

impl fmt::Display for CamjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CamjError::CheckDag { reason } => write!(f, "algorithm DAG check failed: {reason}"),
            CamjError::CheckFunctional { reason } => {
                write!(f, "functional viability check failed: {reason}")
            }
            CamjError::CheckMapping { reason } => write!(f, "mapping check failed: {reason}"),
            CamjError::StallDetected { cause } => {
                write!(f, "pipeline stall at the target frame rate: {cause}")
            }
            CamjError::FrameRateInfeasible {
                frame_time_s,
                digital_latency_s,
            } => write!(
                f,
                "digital latency {digital_latency_s:.6} s exceeds the frame time \
                 {frame_time_s:.6} s; no budget remains for the analog pipeline"
            ),
            CamjError::Sim(e) => write!(f, "cycle-level simulation failed: {e}"),
            CamjError::FrameTooLarge {
                stage,
                elements,
                limit,
            } => write!(
                f,
                "stage '{stage}' needs a {elements}-element tensor, above the functional \
                 simulation limit of {limit} elements"
            ),
        }
    }
}

impl Error for CamjError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CamjError::Sim(e) | CamjError::StallDetected { cause: e } => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CamjError {
    fn from(e: SimError) -> Self {
        CamjError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CamjError::CheckFunctional {
            reason: "charge-domain producer feeds voltage-domain consumer".into(),
        };
        assert!(e.to_string().contains("charge-domain"));

        let e = CamjError::FrameRateInfeasible {
            frame_time_s: 0.033,
            digital_latency_s: 0.050,
        };
        assert!(e.to_string().contains("0.050000"));
    }

    #[test]
    fn sim_error_converts() {
        let sim = SimError::CycleLimitExceeded { limit: 10 };
        let e: CamjError = sim.clone().into();
        assert_eq!(e, CamjError::Sim(sim));
    }
}
