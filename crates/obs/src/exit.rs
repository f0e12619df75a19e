//! The workspace's exit-code contract, as a type.
//!
//! Every binary and example ends through [`Exit::exit`]; `clippy.toml`
//! bans `std::process::exit` and `std::process::ExitCode` everywhere
//! else, so a status outside the contract does not compile.

/// How a run ended. The discriminant is the process exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// A complete run with nothing to report.
    Clean = 0,
    /// Findings (drift, a failed gate), a campaign determinism break, or an
    /// I/O failure.
    Findings = 1,
    /// A usage error or malformed input: unknown flag or artifact, bad
    /// value, invalid plan or bundle.
    Usage = 2,
    /// Degraded but valid: injected faults cost observations after retry.
    Degraded = 3,
}

impl Exit {
    /// End the process with this status, without running destructors.
    /// `repro` relies on that to skip tearing down its observation graph;
    /// stdout is still flushed.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned process exit: every status goes through this enum"
    )]
    pub fn exit(self) -> ! {
        std::process::exit(self as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::Exit;

    #[test]
    fn statuses_match_the_documented_contract() {
        let codes = [Exit::Clean, Exit::Findings, Exit::Usage, Exit::Degraded].map(|e| e as i32);
        assert_eq!(codes, [0, 1, 2, 3]);
    }
}
