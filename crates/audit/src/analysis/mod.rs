//! Analyses: one module per research question, each a pure function of the
//! shared [`crate::index::AnalysisIndex`] producing a typed table/figure
//! struct with a streaming text renderer (`render_into`).

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
}
