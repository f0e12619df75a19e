//! Typed errors for the statistics entry points.
//!
//! The library used to signal degenerate inputs with `Option`, which pushed
//! callers toward `.expect(...)` and lost *why* a test could not run. Every
//! public entry point now returns `Result<_, StatsError>` so the audit
//! pipeline can record the reason (e.g. in a "skipped" table row) without a
//! panic path anywhere in library code.

use std::fmt;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsError {
    /// An input sample was empty.
    EmptySample,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "empty sample"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        assert_eq!(StatsError::EmptySample.to_string(), "empty sample");
    }
}
