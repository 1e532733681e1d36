//! [`QcsError`]: the one top-level error enum the service speaks.
//!
//! `qcs-core` has [`SimError`] and [`IoError`], `qcs-dist` has
//! [`DistError`], and the server adds its own admission failures. The
//! wire protocol needs exactly one mapping from "anything went wrong"
//! to an HTTP status plus a *stable* machine-readable code string —
//! clients match on `"serve/quota-exceeded"`, not on English prose that
//! may be reworded. `From` conversions fold every lower-level error in,
//! so handler code is plain `?`.

use qcs_core::io::IoError;
use qcs_core::qasm::QasmError;
use qcs_core::sim::SimError;
use qcs_dist::error::DistError;

/// Top-level error: every failure the service can surface.
#[derive(Debug)]
pub enum QcsError {
    /// Simulation engine failure.
    Sim(SimError),
    /// State-file persistence failure.
    Io(IoError),
    /// Distributed engine failure.
    Dist(DistError),
    /// The request itself is invalid (malformed JSON, unknown gate,
    /// out-of-range qubit, bad strategy string, …).
    BadRequest(String),
    /// No such job (or endpoint).
    NotFound(String),
    /// The tenant is at its concurrent-job quota.
    QuotaExceeded { tenant: String, limit: usize },
    /// The global admission queue is full; retry later.
    QueueFull { limit: usize },
    /// The requested width exceeds what this server admits.
    TooWide { n: u32, max: u32 },
}

impl QcsError {
    /// Stable machine-readable code, one per variant (and one per
    /// underlying variant for the wrapped enums). Part of the public
    /// wire contract: codes never change meaning, new ones may appear.
    pub fn code(&self) -> &'static str {
        match self {
            QcsError::Sim(e) => match e {
                SimError::QubitMismatch { .. } => "sim/qubit-mismatch",
                SimError::InvalidConfig(_) => "sim/invalid-config",
                SimError::TraceIo(_) => "sim/trace-io",
                SimError::Integrity(_) => "sim/integrity",
                SimError::Checkpoint(_) => "sim/checkpoint",
            },
            QcsError::Io(e) => match e {
                IoError::Io(_) => "io/os",
                IoError::BadMagic => "io/bad-magic",
                IoError::Truncated { .. } => "io/truncated",
                IoError::NonFinite { .. } => "io/non-finite",
                IoError::ChecksumMismatch { .. } => "io/checksum-mismatch",
                IoError::Corrupt(_) => "io/corrupt",
            },
            QcsError::Dist(e) => match e {
                DistError::UnsupportedGate { .. } => "dist/unsupported-gate",
                DistError::Partition { .. } => "dist/partition",
                DistError::WidthMismatch { .. } => "dist/width-mismatch",
                DistError::Exchange(_) => "dist/exchange",
                DistError::Integrity(_) => "dist/integrity",
                DistError::Checkpoint(_) => "dist/checkpoint",
                DistError::Injected { .. } => "dist/injected-fault",
                DistError::RecoveryExhausted { .. } => "dist/recovery-exhausted",
                DistError::TraceIo(_) => "dist/trace-io",
                DistError::Internal(_) => "dist/internal",
            },
            QcsError::BadRequest(_) => "serve/bad-request",
            QcsError::NotFound(_) => "serve/not-found",
            QcsError::QuotaExceeded { .. } => "serve/quota-exceeded",
            QcsError::QueueFull { .. } => "serve/queue-full",
            QcsError::TooWide { .. } => "serve/too-wide",
        }
    }

    /// The single error→HTTP-status mapping the server uses. Client
    /// mistakes are 4xx, engine failures 5xx.
    pub fn http_status(&self) -> u16 {
        match self {
            QcsError::BadRequest(_) | QcsError::TooWide { .. } => 400,
            QcsError::NotFound(_) => 404,
            QcsError::QuotaExceeded { .. } => 429,
            QcsError::QueueFull { .. } => 503,
            // A config the engine rejected is the submitter's fault.
            QcsError::Sim(SimError::QubitMismatch { .. })
            | QcsError::Sim(SimError::InvalidConfig(_)) => 400,
            QcsError::Dist(DistError::UnsupportedGate { .. })
            | QcsError::Dist(DistError::Partition { .. })
            | QcsError::Dist(DistError::WidthMismatch { .. }) => 400,
            _ => 500,
        }
    }
}

impl std::fmt::Display for QcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QcsError::Sim(e) => write!(f, "{e}"),
            QcsError::Io(e) => write!(f, "{e}"),
            QcsError::Dist(e) => write!(f, "{e}"),
            QcsError::BadRequest(why) => write!(f, "bad request: {why}"),
            QcsError::NotFound(what) => write!(f, "not found: {what}"),
            QcsError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant '{tenant}' is at its quota of {limit} concurrent jobs")
            }
            QcsError::QueueFull { limit } => {
                write!(f, "admission queue is full ({limit} jobs); retry later")
            }
            QcsError::TooWide { n, max } => {
                write!(f, "{n}-qubit request exceeds this server's limit of {max}")
            }
        }
    }
}

impl std::error::Error for QcsError {}

impl From<SimError> for QcsError {
    fn from(e: SimError) -> QcsError {
        QcsError::Sim(e)
    }
}

impl From<IoError> for QcsError {
    fn from(e: IoError) -> QcsError {
        QcsError::Io(e)
    }
}

impl From<DistError> for QcsError {
    fn from(e: DistError) -> QcsError {
        QcsError::Dist(e)
    }
}

/// A circuit that does not parse is a client mistake, not an engine
/// failure.
impl From<QasmError> for QcsError {
    fn from(e: QasmError) -> QcsError {
        QcsError::BadRequest(format!("qasm: {e}"))
    }
}

/// The error JSON body every failing endpoint returns:
/// `{"error":"<code>","message":"<prose>"}`.
pub fn error_body(err: &QcsError) -> String {
    format!(
        "{{\"error\":{},\"message\":{}}}",
        crate::json::quote(err.code()),
        crate::json::quote(&err.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_stable_code_and_status() {
        let cases: Vec<(QcsError, &str, u16)> = vec![
            (
                QcsError::Sim(SimError::QubitMismatch { circuit: 3, state: 4 }),
                "sim/qubit-mismatch",
                400,
            ),
            (QcsError::Sim(SimError::TraceIo("x".into())), "sim/trace-io", 500),
            (QcsError::Io(IoError::BadMagic), "io/bad-magic", 500),
            (
                QcsError::Dist(DistError::WidthMismatch { circuit: 3, state: 4 }),
                "dist/width-mismatch",
                400,
            ),
            (QcsError::BadRequest("no".into()), "serve/bad-request", 400),
            (QcsError::NotFound("job 9".into()), "serve/not-found", 404),
            (
                QcsError::QuotaExceeded { tenant: "acme".into(), limit: 4 },
                "serve/quota-exceeded",
                429,
            ),
            (QcsError::QueueFull { limit: 128 }, "serve/queue-full", 503),
            (QcsError::TooWide { n: 30, max: 20 }, "serve/too-wide", 400),
        ];
        for (err, code, status) in cases {
            assert_eq!(err.code(), code, "{err}");
            assert_eq!(err.http_status(), status, "{err}");
        }
    }

    #[test]
    fn from_conversions_compose_with_question_mark() {
        fn run() -> Result<(), QcsError> {
            Err(SimError::InvalidConfig("zero threads".into()))?
        }
        let err = run().unwrap_err();
        assert_eq!(err.code(), "sim/invalid-config");
        assert_eq!(err.http_status(), 400);
        let body = error_body(&err);
        assert!(body.starts_with("{\"error\":\"sim/invalid-config\""));
    }
}
