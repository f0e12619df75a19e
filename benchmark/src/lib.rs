//! `alexa-benchmark` — end-to-end and per-layer benchmark of `repro`.
//!
//! * [`measure`] drives the release `repro` binary from outside, tracing
//!   off, one closed-loop client, and yields the end-to-end metrics.
//! * [`trace`] replays items in-process with spans around each layer's
//!   public entry point and yields the per-layer metrics.
//! * [`reference`] holds the output digests every item is checked against;
//!   [`compare`] judges two sets of results against `BENCHMARK.json`.
//!
//! See `benchmark/README.md` for the workloads and every metric.

pub mod compare;
pub mod measure;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

use alexa_obs::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where the benchmark reads and writes: everything stays inside the
/// repository checkout that contains this package.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The checkout root (the parent of `benchmark/`).
    pub root: PathBuf,
    /// Cargo's target directory for the root workspace.
    pub target: PathBuf,
    /// Scratch space for plans, campaign directories and bundles.
    pub work: PathBuf,
}

impl Paths {
    /// The checkout this binary was built from. The target directory honours
    /// `CARGO_TARGET_DIR`, resolved against the checkout root.
    pub fn detect() -> Paths {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark package sits one level below the checkout root")
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let work = target.join("alexa-benchmark");
        Paths { root, target, work }
    }

    /// A fresh scratch directory of this process under [`Paths::work`],
    /// unique even when several runs share the process (as tests do).
    pub fn scratch(&self, what: &str) -> Result<PathBuf, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = self.work.join(format!("{what}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// The release `repro` binary.
    pub fn repro(&self) -> PathBuf {
        self.target.join("release").join("repro")
    }

    /// The committed reference digests.
    pub fn reference(&self) -> PathBuf {
        self.root.join("benchmark").join("reference.json")
    }

    /// The benchmark definition at the checkout root.
    pub fn definition(&self) -> PathBuf {
        self.root.join("BENCHMARK.json")
    }
}

/// Build the release `repro` binary from the checkout's sources and return
/// its path. A no-op rebuild costs well under a second.
pub fn build_repro(paths: &Paths) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "alexa-bench", "--bin", "repro"])
        .current_dir(&paths.root)
        .env("CARGO_TARGET_DIR", &paths.target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    Ok(paths.repro())
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V`, recorded with every result.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// 64-bit FNV-1a, the digest of an item's standard output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render `json` compactly with every float at full precision (the
/// workspace renderer keeps three decimals, which would round measured
/// times).
pub fn render_json(json: &Json) -> String {
    let mut out = String::new();
    write_json(json, &mut out);
    out
}

fn write_json(json: &Json, out: &mut String) {
    match json {
        Json::Float(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&Json::Str(key.clone()).render());
                out.push_str(": ");
                write_json(value, out);
            }
            out.push('}');
        }
        other => out.push_str(&other.render()),
    }
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric value as printed in every result: value, unit, sample count.
pub fn metric_json(value: f64, unit: &str, n: usize) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Float(value)),
        ("unit".into(), Json::Str(unit.into())),
        ("n".into(), Json::Int(n as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn floats_render_with_all_digits() {
        let doc = Json::Obj(vec![
            ("ms".into(), Json::Float(201.123456789)),
            ("tag".into(), Json::Str("a\"b".into())),
            ("n".into(), Json::Arr(vec![Json::Int(3), Json::Null])),
        ]);
        let text = render_json(&doc);
        assert_eq!(
            text,
            r#"{"ms": 201.123456789, "tag": "a\"b", "n": [3, null]}"#
        );
        assert_eq!(Json::parse(&text).expect("parses"), doc);
    }
}
