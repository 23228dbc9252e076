//! The result store: a content-addressed cache of completed cells.
//!
//! Every finished cell's report is filed under
//! `sha256(config_key_material(config, CODE_REV))` — a digest of the
//! *canonical* config encoding ([`crate::schema`]) with the simulator
//! revision folded in. Because report bytes are a pure function of that
//! key material (the determinism suite proves `--jobs` never changes a
//! byte), a key hit can serve the stored bytes as if the simulation had
//! run. The figure sweeps (`--cache-dir`, [`crate::SweepOptions`]) and
//! the `bc-serve` job gateway share this one store and its one policy,
//! [`Cas::memo`]: absent, corrupt or undecodable object → miss →
//! simulate → put.
//!
//! Objects are one file per key:
//!
//! ```text
//! bc-cas 1 <sha256 hex of payload>
//! <payload bytes>
//! ```
//!
//! The header digest is recomputed on every load; a mismatch (bit rot,
//! truncation, a partial write that survived a crash) is treated as a
//! **miss** — counted separately, never served, and overwritten by the
//! re-run's `put`. [`Cas::memo`] also decodes the payload, and a
//! digest-valid payload that [`schema::decode_report`] rejects is the same
//! kind of miss. Writes go through a temp file + rename so a concurrent
//! reader sees either the old object or the new one, never a torn write.
//!
//! A store opened with [`Cas::open_bounded`] enforces a byte budget:
//! after every `put` the oldest objects — ordered by (modification time,
//! object name), the name tiebreak making eviction deterministic when a
//! burst of puts lands inside the filesystem's timestamp granularity —
//! are deleted until the store fits, never touching the object just
//! written (so a single oversize object is stored, not thrashed).
//! Eviction only ever costs a future *miss*: every object is a pure
//! function of its key, so the next client that wants an evicted result
//! re-simulates and re-files it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bc_sim::sha256;
use bc_system::{RunReport, SystemConfig};

use crate::schema;

/// Magic + format version on every object's header line.
const HEADER_TAG: &str = "bc-cas 1";

/// Hit/miss/corruption counters, as told by [`Cas::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CasStats {
    /// Loads that served stored bytes.
    pub hits: u64,
    /// Loads that found no object.
    pub misses: u64,
    /// Loads that found an object whose payload failed its digest
    /// re-check, or (through [`Cas::memo`]) did not decode as a report.
    /// Served as misses.
    pub corrupt: u64,
    /// Objects written.
    pub puts: u64,
    /// Objects deleted to keep the store under its byte budget.
    pub evictions: u64,
    /// Total payload-file bytes those evictions reclaimed.
    pub evicted_bytes: u64,
}

/// Why a load served nothing.
enum Miss {
    /// No object under the key.
    Absent,
    /// An object that failed its digest re-check or did not decode.
    Corrupt,
}

/// A report served by [`Cas::memo`].
#[derive(Debug)]
pub struct Memo {
    /// The report, decoded from the store on a hit.
    pub report: RunReport,
    /// Its canonical bytes ([`schema::encode_report`]).
    pub payload: String,
    /// Whether the store supplied it (`false`: `run` simulated it).
    pub hit: bool,
}

/// A directory of content-addressed result objects.
#[derive(Debug)]
pub struct Cas {
    dir: PathBuf,
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    puts: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl Cas {
    /// Opens (creating if needed) the store rooted at `dir`, unbounded.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Cas> {
        Cas::open_bounded(dir, None)
    }

    /// Opens the store with an optional byte budget: `Some(n)` caps the
    /// sum of object file sizes at `n`, evicting oldest-first after each
    /// `put` (see the module docs for the exact order). `None` is
    /// [`Cas::open`].
    pub fn open_bounded(dir: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<Cas> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Cas {
            dir,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        })
    }

    /// The byte budget, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache key of `config` under the current [`schema::CODE_REV`]:
    /// lowercase-hex SHA-256 of the canonical key material.
    #[must_use]
    pub fn key_for(config: &SystemConfig) -> String {
        Self::key_for_rev(config, schema::CODE_REV)
    }

    /// [`Cas::key_for`] under an explicit code revision (tests pin that a
    /// revision bump re-keys every object).
    #[must_use]
    pub fn key_for_rev(config: &SystemConfig, code_rev: &str) -> String {
        sha256::hex_digest(schema::config_key_material(config, code_rev).as_bytes())
    }

    fn object_path(&self, key: &str) -> PathBuf {
        self.dir.join(key)
    }

    /// Loads the payload stored under `key`, re-checking its digest.
    /// Absent objects and digest mismatches both return `None`; only the
    /// counters tell them apart.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<String> {
        self.count(self.read(key))
    }

    /// The cache policy: serves the report filed under `key` when its
    /// object is present, digest-valid and decodes; otherwise calls `run`
    /// and files the result. A miss never changes an answer — the caller
    /// gets exactly what `run` returns — and a failed `put` only costs the
    /// next client a miss.
    ///
    /// # Errors
    ///
    /// Whatever `run` returns on a miss; nothing is filed then.
    pub fn memo<E>(
        &self,
        key: &str,
        run: impl FnOnce() -> Result<RunReport, E>,
    ) -> Result<Memo, E> {
        let stored = self.read(key).and_then(|payload| {
            schema::decode_report(&payload)
                .map(|report| (report, payload))
                .map_err(|_| Miss::Corrupt)
        });
        if let Some((report, payload)) = self.count(stored) {
            return Ok(Memo {
                report,
                payload,
                hit: true,
            });
        }
        let report = run()?;
        let payload = schema::encode_report(&report);
        let _ = self.put(key, &payload);
        Ok(Memo {
            report,
            payload,
            hit: false,
        })
    }

    /// Reads and digest-checks the object under `key`, counting nothing.
    fn read(&self, key: &str) -> Result<String, Miss> {
        let text = fs::read_to_string(self.object_path(key)).map_err(|_| Miss::Absent)?;
        let (header, payload) = text.split_once('\n').ok_or(Miss::Corrupt)?;
        let stored_digest = header
            .strip_prefix(HEADER_TAG)
            .map(str::trim)
            .ok_or(Miss::Corrupt)?;
        if sha256::hex_digest(payload.as_bytes()) != stored_digest {
            return Err(Miss::Corrupt);
        }
        Ok(payload.to_string())
    }

    /// Records one load in the hit/miss/corrupt counters.
    fn count<T>(&self, load: Result<T, Miss>) -> Option<T> {
        let counter = match &load {
            Ok(_) => &self.hits,
            Err(Miss::Absent) => &self.misses,
            Err(Miss::Corrupt) => &self.corrupt,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        load.ok()
    }

    /// Stores `payload` under `key` (temp file + rename; last writer
    /// wins, which is safe because all writers of one key hold identical
    /// bytes).
    pub fn put(&self, key: &str, payload: &str) -> io::Result<()> {
        let object = format!(
            "{HEADER_TAG} {}\n{payload}",
            sha256::hex_digest(payload.as_bytes())
        );
        let tmp = self.dir.join(format!(".{key}.tmp.{}", std::process::id()));
        fs::write(&tmp, object)?;
        fs::rename(&tmp, self.object_path(key))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.enforce_bound(key);
        Ok(())
    }

    /// Deletes oldest objects (by modification time, then name) until the
    /// store fits its budget, sparing `fresh_key` — the object the caller
    /// just wrote. Enumeration failures degrade to an unenforced bound;
    /// the store keeps serving either way.
    fn enforce_bound(&self, fresh_key: &str) {
        let Some(max) = self.max_bytes else { return };
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        // bc-lint: allow(wall-clock) — file modification times order
        // eviction only; no report byte depends on them.
        let mut objects: Vec<(std::time::SystemTime, String, u64)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            // Temp files are in-flight writes, not store contents.
            if name.starts_with('.') {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            objects.push((mtime, name, meta.len()));
        }
        let mut total: u64 = objects.iter().map(|(_, _, len)| len).sum();
        objects.sort(); // oldest mtime first, name breaks ties
        for (_, name, len) in objects {
            if total <= max {
                break;
            }
            if name == fresh_key {
                continue;
            }
            if fs::remove_file(self.dir.join(&name)).is_ok() {
                // bc-lint: allow(saturating-counter) — local byte-total
                // accumulator, not simulator state; clamping at zero only
                // ends eviction early, the safe direction.
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(len, Ordering::Relaxed);
            }
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CasStats {
        CasStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }
}
