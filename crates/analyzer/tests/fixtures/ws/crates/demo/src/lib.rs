//! Fixture library: one deliberate violation (or near-miss) per lint.

pub fn escaped(rec: &Recorder) {
    // analyzer:allow(AO01) -- fixture: the escape is documented here
    rec.count("escaped.unregistered", 1);
}

pub fn reasonless(rec: &Recorder) {
    // analyzer:allow(AO01)
    rec.count("reasonless.unregistered", 1);
}

// analyzer:allow(AO01) -- stale: nothing on these lines emits a name
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
    // rec.count("Commented-Out", 1) in a comment is data, not a finding.
    let _s = "rec.count(\"In-A-String\", 1)";
    let _r = r#"rec.count("In-A-Raw-String", 1)"#;
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        rec.count("Not-Registered", 1);
    }
}
