//! Fixture library: one deliberate violation (or near-miss) per lint.

pub fn entropy() -> u64 {
    thread_rng()
}

pub fn escaped() -> u64 {
    // analyzer:allow(AD02) -- fixture: the escape is documented here
    thread_rng()
}

pub fn reasonless() -> u64 {
    // analyzer:allow(AD02)
    thread_rng()
}

// analyzer:allow(AD02) -- stale: nothing on these lines draws entropy
pub fn stale_escape() {}

pub fn obs_names(rec: &Recorder) {
    rec.stage("boot", || {});
    rec.count("Not-Registered", 1);
    rec.count("mystery.name", 1);
    rec.time("timer.unregistered", || {});
    agg_count("fault.unknown", 1);
}

pub fn live_names(rec: &Recorder) {
    // Keeps these registry entries live for AS03; fault.packet_drop and
    // fault.mystery have no emitting site anywhere and stay dead.
    rec.count("render.bytes", 1);
    agg_count("fault.injected", 1);
}

pub fn near_misses() {
    // thread_rng in a comment is data, not a finding.
    let _s = "thread_rng() and OsRng";
    let _r = r#"getrandom in a raw string"#;
    // AS04 checks binaries only: a library exit is not an exit-code site.
    std::process::exit(9);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let _ = thread_rng();
        rec.count("Not-Registered", 1);
    }
}
