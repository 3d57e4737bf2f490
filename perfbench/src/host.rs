//! Host fingerprint and process memory.
//!
//! Every result carries the fingerprint, so figures taken on different
//! hosts (or different toolchains, or different code) are never compared
//! as if they were alike.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What identifies the host, toolchain and code a result was taken on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The [`Calibrator`] rate at start-up, M ops/s.
    pub calib_mops: f64,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` when run from a git checkout, else `none`.
    pub commit: String,
    /// FNV-1a digest of the workspace manifest and every file under
    /// `crates/` and `perfbench/src/`: identifies the code where no git
    /// metadata exists.
    pub source_digest: String,
}

impl Fingerprint {
    /// Measures the fingerprint of this process's host and checkout.
    pub fn measure(calibrator: &Calibrator) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            calib_mops: calibrator.measure(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into())
            } else {
                "none".into()
            },
            source_digest: source_digest(),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"calib_mops\": {:?}, \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.nproc,
            self.calib_mops,
            json_escape(&self.rustc),
            json_escape(&self.commit),
            self.source_digest
        )
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} calib_mops={:.2} rustc=\"{}\" commit={} source_digest={}",
            self.nproc, self.calib_mops, self.rustc, self.commit, self.source_digest
        )
    }
}

/// Calibrator rate of the reference host, M ops/s: normalised wall-clock
/// metrics read as if measured at this host speed.
pub const CALIB_REF_MOPS: f64 = 35.0;

/// A fixed workload, independent of the code under test, that tracks how
/// fast this host runs the simulator right now.
///
/// On a shared host the simulator's speed swings by up to 2x over seconds
/// to minutes as neighbours contend for the core and its caches. A pure
/// arithmetic loop moves by under 10% and a memory-latency chase by about
/// half as much as the simulator; branchy, allocation-heavy work like the
/// simulator's own moves with it most closely. So each timed repeat is
/// paired with one calibration taken right after it, and reported
/// normalised: `rate × CALIB_REF_MOPS / calibration`.
#[derive(Debug, Default)]
pub struct Calibrator;

impl Calibrator {
    /// Geometric mean of two rates, M ops/s (about 10 ms): sorting 32 Ki
    /// random keys six times, and 200 Ki upserts into a hash map of 50 Ki
    /// keys. Inputs are fixed, so only the host's speed moves it.
    pub fn measure(&self) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut keys: Vec<u64> = (0..SORT_KEYS).map(|_| next()).collect();
        let start = Instant::now();
        for _ in 0..SORT_ROUNDS {
            for k in keys.iter_mut() {
                *k ^= next();
            }
            keys.sort_unstable();
            black_box(&keys);
        }
        let sort = (SORT_ROUNDS * SORT_KEYS) as f64 / start.elapsed().as_secs_f64() / 1e6;
        let start = Instant::now();
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..MAP_UPSERTS {
            *map.entry(next() % MAP_KEYS).or_insert(0) += i;
        }
        black_box(&map);
        let upsert = MAP_UPSERTS as f64 / start.elapsed().as_secs_f64() / 1e6;
        (sort * upsert).sqrt()
    }

    /// [`measure`](Self::measure) on `threads` threads at once, geometric
    /// mean: the yardstick for work spread over that many cores.
    pub fn measure_on(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.measure();
        }
        let rates: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| self.measure())).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration threads do not panic"))
                .collect()
        });
        crate::stats::geomean(&rates)
    }
}

const SORT_KEYS: usize = 32 * 1024;
const SORT_ROUNDS: usize = 6;
const MAP_KEYS: u64 = 50 * 1024;
const MAP_UPSERTS: u64 = 200 * 1024;

/// Hardware threads available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes `s` for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for path in &files {
        if let Ok(bytes) = fs::read(path) {
            feed(path.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    if files.is_empty() {
        "unknown".into()
    } else {
        format!("{hash:016x}")
    }
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}
