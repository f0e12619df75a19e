//! Analyses: one module per research question, each a pure function of the
//! shared [`crate::index::AnalysisIndex`] producing a typed table/figure
//! struct. Rows are keyed by [`crate::Persona`], which orders and prints as
//! its paper name, and each artifact has exactly one renderer,
//! `render_into`, which streams into a caller-owned buffer and returns its
//! render work units.

pub mod audio;
pub mod bids;
pub mod creatives;
pub mod defense;
pub mod partners;
pub mod policy;
pub mod profiling;
pub mod significance;
pub mod traffic;

#[cfg(test)]
pub(crate) mod test_support {
    use crate::index::AnalysisIndex;
    use crate::{AuditConfig, AuditRun, Observations};
    use std::sync::OnceLock;

    /// A shared small audit run for analysis unit tests (computed once).
    pub(crate) fn obs() -> &'static Observations {
        static OBS: OnceLock<Observations> = OnceLock::new();
        OBS.get_or_init(|| AuditRun::execute(AuditConfig::small(2222)))
    }

    /// The shared analysis index over [`obs`] (built once).
    pub(crate) fn ix() -> &'static AnalysisIndex<'static> {
        static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
        IX.get_or_init(|| AnalysisIndex::build(obs()))
    }

    /// What one `render_into` call streams into a fresh buffer.
    pub(crate) fn rendered(render_into: impl FnOnce(&mut String) -> usize) -> String {
        let mut out = String::new();
        render_into(&mut out);
        out
    }
}
