//! Wallclock reader for the fixture workspace. No per-file lint flags a
//! clock (clippy's `disallowed_types` does that in the real workspace), but
//! AS01 taint still flows through it.

pub fn read() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn fixed() -> u64 {
    42
}
