//! Fixture binary: exit statuses must come from the documented contract
//! (AS04), and the determinism lints apply to binaries too.

fn main() {
    let v: Option<u32> = Some(1);
    let _ = thread_rng(); // AD02 applies everywhere
    if v.is_none() {
        std::process::exit(7); // AS04: 7 is not a documented status
    }
    if v == Some(2) {
        std::process::exit(1); // near-miss: 1 (findings) is documented
    }
    std::process::exit(3); // near-miss: 3 is in the documented contract
}
