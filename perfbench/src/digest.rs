//! The row-correctness gate: every delivered artifact is digested and
//! compared with the scalar serial oracle's rows for the same spec.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dream_serve::{campaign_id, hash::sha256_hex};
use dream_sim::report::JsonlSink;
use dream_sim::scenario::{CampaignRunner, Scenario};

/// Reference digests stored with the benchmark: every timed campaign of
/// every workload under [`crate::workload::DEFAULT_SEED`] (regenerate
/// with `perfbench --emit-references`).
pub const STORED: &str = include_str!("../reference_digests.txt");

/// SHA-256 (hex) of an artifact's row bytes.
pub fn digest(rows: &[u8]) -> String {
    sha256_hex(rows)
}

/// Reference digests by campaign id (`{spec_hash16}-{seed:016x}`).
#[derive(Clone, Debug, Default)]
pub struct References {
    by_id: BTreeMap<String, String>,
}

impl References {
    /// Parses `<campaign id> <sha256 hex>` lines; `#` starts a comment.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut by_id = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(id), Some(hex), None)
                    if hex.len() == 64 && hex.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    by_id.insert(id.to_string(), hex.to_ascii_lowercase());
                }
                _ => return Err(format!("reference line {}: {line:?}", n + 1)),
            }
        }
        Ok(References { by_id })
    }

    /// The stored references.
    pub fn stored() -> References {
        References::parse(STORED).expect("stored reference digests parse")
    }

    /// Renders the references in [`References::parse`] format.
    pub fn render(&self) -> String {
        self.by_id
            .iter()
            .map(|(id, hex)| format!("{id} {hex}\n"))
            .collect()
    }

    /// Adds every reference of `other`.
    pub fn merge(&mut self, other: References) {
        self.by_id.extend(other.by_id);
    }

    /// The reference digest of `sc`, if known.
    pub fn get(&self, sc: &Scenario) -> Option<&str> {
        self.by_id.get(&campaign_id(sc)).map(String::as_str)
    }

    /// Whether `rows` are exactly the reference rows of `sc`. A spec
    /// without a reference never matches.
    pub fn matches(&self, sc: &Scenario, rows: &[u8]) -> bool {
        self.get(sc) == Some(digest(rows).as_str())
    }

    /// Computes, on `threads` threads, the oracle digest of every spec
    /// in `specs` that has no reference yet. Returns how many it computed.
    pub fn ensure(&mut self, specs: &[Scenario], threads: usize) -> usize {
        let mut missing: Vec<&Scenario> = Vec::new();
        for sc in specs {
            if self.get(sc).is_none() && !missing.iter().any(|m| campaign_id(m) == campaign_id(sc))
            {
                missing.push(sc);
            }
        }
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1).min(missing.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sc) = missing.get(i) else { break };
                    let hex = digest(&oracle_rows(sc));
                    done.lock()
                        .expect("oracle results lock")
                        .push((campaign_id(sc), hex));
                });
            }
        });
        let done = done.into_inner().expect("oracle results lock");
        let computed = done.len();
        self.by_id.extend(done);
        computed
    }
}

/// The rows of `sc` from the scalar serial oracle: one engine thread,
/// bit-sliced batching off.
pub fn oracle_rows(sc: &Scenario) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .threads(1)
        .batch(false)
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("oracle run of {}: {e}", sc.name));
    sink.into_inner()
}

/// Oracle digests this very executable computed in earlier runs, kept
/// in `<dir>/<executable sha256 prefix>.txt`: a rebuilt program never
/// reads another build's references.
#[derive(Debug)]
pub struct OracleCache {
    path: PathBuf,
}

impl OracleCache {
    /// The cache of the running executable under `dir`; `None` when the
    /// executable cannot be read.
    pub fn open(dir: &Path) -> Option<OracleCache> {
        let exe = std::fs::read(std::env::current_exe().ok()?).ok()?;
        let key = &digest(&exe)[..16];
        Some(OracleCache {
            path: dir.join(format!("{key}.txt")),
        })
    }

    /// The cached references (none when absent or unreadable).
    pub fn load(&self) -> References {
        std::fs::read_to_string(&self.path)
            .ok()
            .and_then(|text| References::parse(&text).ok())
            .unwrap_or_default()
    }

    /// Replaces the cached references with `refs` (best effort).
    pub fn save(&self, refs: &References) {
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&self.path, refs.render());
    }
}
