//! The persistent, content-addressed result store.
//!
//! Campaign memoization used to live only in RAM: every process re-measured
//! the full grid, so warm re-runs and grid *extensions* paid for points that
//! had already been computed. [`ResultStore`] persists finished results on
//! disk, keyed by the same structural hashes the in-memory [`crate::memo`]
//! layer uses — widened to 128 bits end to end — so a re-run restores every
//! previously measured point and only computes what the spec added.
//!
//! # Layout
//!
//! The store is a **directory** holding one append-only text log per
//! [`StoreTable`], one table of finished points per workload, so
//! million-entry sweeps load per-table. [`ResultStore::open_read_only`]
//! reads it without side effects. A path that exists but is not a
//! directory (such as a pre-sharding single-file store) is refused, never
//! read or rewritten. The `(curve, Q)` bounds table an older build kept
//! in the directory (`bounds.tbl`) is never opened, counted or rewritten.
//!
//! Each record is a single line:
//!
//! ```text
//! FNPR2 <tag:8hex> <key:32hex> <fingerprint:16hex> <stamp> <len> <sum:16hex> <payload>
//! ```
//!
//! * `FNPR2` — the record **format version**; lines of any other version
//!   (including the stampless `FNPR1` predecessor) are invalid and
//!   recompute;
//! * `tag` — the [`StoreTable`] the entry belongs to (the run ledger,
//!   [`crate::ledger`], frames its lines the same way under its own tag);
//! * `key` — the 128-bit content address (structural scenario hash);
//! * `fingerprint` — the [`analysis_fingerprint`] of the writer; entries
//!   from a different analysis version are treated as stale and recomputed;
//! * `stamp` — unix seconds at write time, kept for provenance (never
//!   read into results; `store gc` writes it back as read);
//! * `len`/`sum` — payload byte length and checksum, so truncated tails and
//!   corrupted bytes are detected line-locally;
//! * `payload` — the result as compact JSON (single line by construction).
//!
//! # Correctness contract
//!
//! *Never crash, never serve wrong data.* Any unreadable, truncated,
//! corrupt, version- or fingerprint-mismatched entry degrades to a cache
//! miss: the point recomputes and a fresh valid entry is appended. A value
//! is only persisted after a **round-trip self-check** on one JSON tree
//! ([`lossless_json`]): the value's tree is written, the text is parsed
//! back and deserialized, and the value must compare equal while the
//! parsed tree must equal the written one with floats compared by bits.
//! Because writing is a function of the tree alone, a bitwise-equal tree
//! re-serializes to the same bytes, so every restored value writes the
//! payload it was stored as — and because the JSON float encoding is
//! shortest-round-trip exact, warm aggregates are **byte-identical** to a
//! cold run's. Non-finite floats (JSON has no NaN/Inf), integers above
//! `i64::MAX` and types that serialize to `null` are the lossy cases; the
//! self-check fails for them and the point simply stays uncached. The
//! check costs one tree build, one write, one parse and one decode per
//! point, paid before the table's file lock is taken.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize, Value};

use crate::memo::ScenarioHasher;
use crate::report::StoreStats;

/// Magic token carrying the on-disk record format version. Bump on any
/// record-layout change; old lines then read as invalid and recompute.
pub const STORE_FORMAT: &str = "FNPR2";

/// Version of the *result schemas* this crate writes (the point payload
/// shapes). Folded into [`analysis_fingerprint`]; bump when a
/// report struct changes shape or meaning.
const RESULTS_VERSION: u64 = 1;

/// Domain tags for store-internal key derivation.
const TAG_FINGERPRINT: u64 = 0x464e_5052; // "FNPR"
const TAG_CHECKSUM: u64 = 0x434b_534d; // "CKSM"

/// The fingerprint stamped on every entry this build writes: a hash of the
/// workspace analysis version ([`fnpr_core::ANALYSIS_VERSION`]) and the
/// result-schema version. Entries carrying any other fingerprint are
/// *stale* — possibly computed by different analysis semantics — and are
/// never served, only garbage-collected.
#[must_use]
pub fn analysis_fingerprint() -> u64 {
    ScenarioHasher::new(TAG_FINGERPRINT)
        .word(fnpr_core::ANALYSIS_VERSION)
        .word(RESULTS_VERSION)
        .finish()
}

/// The tables a store multiplexes — one log file each under the store
/// directory, holding one workload's finished grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreTable {
    /// Finished acceptance grid points.
    AcceptancePoints,
    /// Finished soundness shards.
    SoundnessShards,
    /// Finished multicore grid points.
    MulticorePoints,
    /// Finished `[cfg]` grid points.
    CfgPoints,
}

impl StoreTable {
    /// Every table, in display order.
    pub const ALL: [StoreTable; 4] = [
        StoreTable::AcceptancePoints,
        StoreTable::SoundnessShards,
        StoreTable::MulticorePoints,
        StoreTable::CfgPoints,
    ];

    /// The on-disk tag.
    #[must_use]
    pub fn tag(self) -> u32 {
        match self {
            StoreTable::AcceptancePoints => 0x4143_4350, // "ACCP"
            StoreTable::SoundnessShards => 0x534e_4453,  // "SNDS"
            StoreTable::MulticorePoints => 0x4d43_4f52,  // "MCOR"
            StoreTable::CfgPoints => 0x4347_5054,        // "CGPT"
        }
    }

    /// The table's shard file name under a store directory.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            StoreTable::AcceptancePoints => "acceptance_points.tbl",
            StoreTable::SoundnessShards => "soundness_shards.tbl",
            StoreTable::MulticorePoints => "multicore_points.tbl",
            StoreTable::CfgPoints => "cfg_points.tbl",
        }
    }

    /// Position in [`Self::ALL`] (file-handle and display index).
    #[must_use]
    pub fn index(self) -> usize {
        StoreTable::ALL
            .into_iter()
            .position(|t| t == self)
            .expect("every table is in ALL")
    }

    fn from_tag(tag: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.tag() == tag)
    }
}

/// One well-formed, checksum-valid record line, whatever its table and
/// fingerprint (see [`parse_record`]).
pub(crate) struct Record<'a> {
    pub(crate) tag: u32,
    pub(crate) key: u128,
    pub(crate) fingerprint: u64,
    pub(crate) stamp: u64,
    pub(crate) payload: &'a str,
}

/// Independently locked index shards, like [`crate::memo::Memo`]'s: cold
/// runs of large grids look up and insert from every worker thread, and a
/// single index mutex would serialize them all.
const INDEX_SHARDS: usize = 16;

/// One index shard: `(table tag, key)` → payload. Payloads are boxed at
/// their exact length, so a live entry keeps no writer-buffer slack.
type IndexShard = HashMap<(u32, u128), Box<str>>;

/// In-progress marker inside the store directory: written by
/// [`ResultStore::begin_run`], removed by [`ResultStore::end_run`]. A
/// marker left by a dead process means the previous run was interrupted.
const INPROGRESS_FILE: &str = "campaign.inprogress";

/// The persistent, content-addressed result store: an in-memory index over
/// per-table append-only log files. Shared by reference across worker
/// threads; the index is sharded so lookups on distinct keys do not contend
/// (each table's append file is a single writer per process).
pub struct ResultStore {
    path: PathBuf,
    fingerprint: u64,
    entries: Vec<Mutex<IndexShard>>,
    /// Append handles in [`StoreTable::ALL`] order; `None` when read-only
    /// (index only: no append handles, no healing).
    files: Option<Vec<Mutex<File>>>,
    // Counters (informational; never part of deterministic aggregates).
    points_restored: AtomicU64,
    points_computed: AtomicU64,
    invalid_entries: AtomicU64,
    stale_entries: AtomicU64,
    write_errors: AtomicU64,
    warned_write: AtomicBool,
    /// Content of a dead run's `campaign.inprogress` marker, found (and
    /// cleared) by a writable open.
    interrupted: Option<String>,
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish_non_exhaustive()
    }
}

/// Counts accumulated while loading log files.
#[derive(Default)]
struct LoadCounts {
    invalid: u64,
    stale: u64,
    healed: u64,
}

impl ResultStore {
    /// Opens (creating if absent) the store at `path` under the current
    /// build's [`analysis_fingerprint`]. `path` is the store *directory*
    /// (one log file per table). Existing content is indexed; truncated,
    /// corrupt, unknown-version or wrong-fingerprint lines are counted and
    /// skipped — they can only cause recomputation, never wrong data.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (unreadable existing files, uncreatable
    /// directory), and a `path` that exists but is not a directory;
    /// corrupt *content* is not an error.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Self::open_with_fingerprint(path, analysis_fingerprint())
    }

    /// [`Self::open`] with an explicit fingerprint (tests use this to
    /// emulate an analysis-version change).
    ///
    /// # Errors
    ///
    /// As [`Self::open`].
    pub fn open_with_fingerprint(path: &Path, fingerprint: u64) -> std::io::Result<Self> {
        require_store_dir(path)?;
        std::fs::create_dir_all(path)?;
        let mut entries: Vec<IndexShard> = (0..INDEX_SHARDS).map(|_| HashMap::new()).collect();
        let mut counts = LoadCounts::default();
        let mut files = Vec::with_capacity(StoreTable::ALL.len());
        for table in StoreTable::ALL {
            let file_path = path.join(table.file_name());
            load_log_file(&file_path, fingerprint, &mut entries, &mut counts)?;
            let (file, healed) = open_log_for_append(&file_path)?;
            counts.healed += u64::from(healed);
            files.push(Mutex::new(file));
        }
        counts.publish();
        let mut store = Self::assemble(path, fingerprint, entries, Some(files), &counts);
        // Crash-safe resume: report an in-progress marker left by a
        // killed run.
        store.interrupted = take_dead_marker(path);
        Ok(store)
    }

    /// Opens the store at `path` for reading only — no tail healing, no
    /// append handles. This is what `store stats` uses so inspecting a
    /// store never mutates it. A point computed through a read-only store
    /// counts a write error and is not persisted.
    ///
    /// # Errors
    ///
    /// Real I/O failures reading existing files, and a `path` that exists
    /// but is not a directory.
    pub fn open_read_only(path: &Path) -> std::io::Result<Self> {
        let fingerprint = analysis_fingerprint();
        require_store_dir(path)?;
        let mut entries: Vec<IndexShard> = (0..INDEX_SHARDS).map(|_| HashMap::new()).collect();
        let mut counts = LoadCounts::default();
        for table in StoreTable::ALL {
            load_log_file(
                &path.join(table.file_name()),
                fingerprint,
                &mut entries,
                &mut counts,
            )?;
        }
        counts.publish();
        Ok(Self::assemble(path, fingerprint, entries, None, &counts))
    }

    fn assemble(
        path: &Path,
        fingerprint: u64,
        entries: Vec<IndexShard>,
        files: Option<Vec<Mutex<File>>>,
        counts: &LoadCounts,
    ) -> Self {
        Self {
            path: path.to_path_buf(),
            fingerprint,
            entries: entries.into_iter().map(Mutex::new).collect(),
            files,
            points_restored: AtomicU64::new(0),
            points_computed: AtomicU64::new(0),
            invalid_entries: AtomicU64::new(counts.invalid),
            stale_entries: AtomicU64::new(counts.stale),
            write_errors: AtomicU64::new(0),
            warned_write: AtomicBool::new(false),
            interrupted: None,
        }
    }

    /// The store directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Marks a run as in progress: writes the `campaign.inprogress`
    /// marker (pid, start stamp, campaign name) into the store directory.
    /// Best-effort and writable handles only — a store that cannot take
    /// the marker still runs, it just cannot report interruptions later.
    pub fn begin_run(&self, name: &str) {
        if self.files.is_none() {
            return;
        }
        let content = format!(
            "pid={} started={} name={}\n",
            std::process::id(),
            fnpr_obs::unix_now(),
            name
        );
        let _ = std::fs::write(self.path.join(INPROGRESS_FILE), content);
    }

    /// Removes the in-progress marker written by [`Self::begin_run`] —
    /// only when it is ours, so a concurrent job's marker survives.
    pub fn end_run(&self) {
        if self.files.is_none() {
            return;
        }
        let marker = self.path.join(INPROGRESS_FILE);
        if let Ok(content) = std::fs::read_to_string(&marker) {
            if marker_pid(content.trim()) == Some(std::process::id()) {
                let _ = std::fs::remove_file(&marker);
            }
        }
    }

    /// The `campaign.inprogress` marker content of an interrupted
    /// (dead-pid) previous run, observed and cleared by a writable open.
    #[must_use]
    pub fn interrupted_run(&self) -> Option<&str> {
        self.interrupted.as_deref()
    }

    /// Fetches and decodes an entry; `None` on absence *or* undecodable
    /// payload (counted as invalid — the caller recomputes either way).
    fn get<V: Deserialize>(&self, table: StoreTable, key: u128) -> Option<V> {
        // Clone the payload under the shard lock, parse outside it.
        let payload = self.entries[index_shard(key)]
            .lock()
            .expect("store index poisoned")
            .get(&(table.tag(), key))
            .cloned()?;
        match serde_json::from_str(&payload) {
            Ok(v) => Some(v),
            Err(_) => {
                self.invalid_entries.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists an entry, **after** the [`lossless_json`] self-check. On a
    /// lossy value the entry is skipped so a later run recomputes instead
    /// of restoring it. Write failures are counted and warned once — the
    /// campaign result never depends on the store being writable.
    fn put<V>(&self, table: StoreTable, key: u128, value: &V)
    where
        V: Serialize + Deserialize + PartialEq,
    {
        let Some(payload) = lossless_json(value) else {
            self.count_write_error("value does not round-trip losslessly");
            return;
        };
        let Some(files) = &self.files else {
            self.count_write_error("store is read-only");
            return;
        };
        let line = format_record(
            table.tag(),
            key,
            self.fingerprint,
            fnpr_obs::unix_now(),
            &payload,
        );
        // Hold the table's file lock across the index insert too: `gc`
        // snapshots under the file locks, so an entry must never be on
        // disk without being indexed (the reverse order would let a
        // concurrent gc rewrite the file without this line and lose it).
        let mut file = files[table.index()].lock().expect("store file poisoned");
        if let Err(e) = file.write_all(line.as_bytes()) {
            self.count_write_error(&e.to_string());
            return;
        }
        self.entries[index_shard(key)]
            .lock()
            .expect("store index poisoned")
            .insert((table.tag(), key), payload.into_boxed_str());
    }

    /// The one access path: restore the point if present, otherwise run
    /// `compute` and persist its success. Errors from `compute` propagate
    /// unstored. Bumps the restored/computed counters (and mirrors them
    /// into the global telemetry registry — a write-only side channel,
    /// never read back into aggregates).
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_compute<V, E>(
        &self,
        table: StoreTable,
        key: u128,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        V: Serialize + Deserialize + PartialEq,
    {
        if let Some(v) = self.get(table, key) {
            fnpr_obs::counter!("campaign.store.points.restored").incr();
            self.points_restored.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        let v = compute()?;
        fnpr_obs::counter!("campaign.store.points.computed").incr();
        self.points_computed.fetch_add(1, Ordering::Relaxed);
        self.put(table, key, &v);
        Ok(v)
    }

    fn count_write_error(&self, why: &str) {
        fnpr_obs::counter!("campaign.store.write_errors").incr();
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        if !self.warned_write.swap(true, Ordering::Relaxed) {
            eprintln!(
                "fnpr-campaign: warning: result store {} not updated: {why} \
                 (results are unaffected; later runs recompute)",
                self.path.display()
            );
        }
    }

    /// Counters for this process's use of the store (scheduling-dependent;
    /// informational only — deliberately not part of the deterministic
    /// report surface).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            points_restored: self.points_restored.load(Ordering::Relaxed),
            points_computed: self.points_computed.load(Ordering::Relaxed),
            invalid_entries: self.invalid_entries.load(Ordering::Relaxed),
            stale_entries: self.stale_entries.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Live entry count per table (valid, current-fingerprint entries).
    #[must_use]
    pub fn table_counts(&self) -> Vec<(StoreTable, usize)> {
        let mut counts = vec![0usize; StoreTable::ALL.len()];
        for shard in &self.entries {
            let entries = shard.lock().expect("store index poisoned");
            for (i, table) in StoreTable::ALL.into_iter().enumerate() {
                counts[i] += entries.keys().filter(|(t, _)| *t == table.tag()).count();
            }
        }
        StoreTable::ALL.into_iter().zip(counts).collect()
    }

    /// Per-shard file inventory for `store stats`: each table's on-disk
    /// size and live record count.
    #[must_use]
    pub fn shard_files(&self) -> Vec<ShardFileInfo> {
        self.table_counts()
            .into_iter()
            .map(|(table, records)| ShardFileInfo {
                table,
                bytes: std::fs::metadata(self.path.join(table.file_name()))
                    .map(|m| m.len())
                    .unwrap_or(0),
                records,
            })
            .collect()
    }

    /// Rewrites every table file keeping exactly the live entries:
    /// duplicates (superseded appends), invalid, stale and unknown-version
    /// lines are dropped, and each kept line is written back as read,
    /// write stamp included, in `(tag, key)` order. Each rewrite goes
    /// through a sibling temp file + rename, so a crash mid-gc leaves
    /// either the old or the new file, never a torn one. Returns what was
    /// scanned, kept, dropped and reclaimed.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming the new files; also if this handle
    /// is read-only.
    pub fn gc(&self) -> std::io::Result<GcReport> {
        let Some(files) = &self.files else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "cannot gc a read-only store",
            ));
        };
        // Hold every table's file lock across the whole rewrite; `put`
        // holds the lock across both its append *and* its index insert —
        // so every entry on disk is indexed by the time this snapshot
        // runs, and no concurrent put can land a line the rewrite drops.
        let mut guards: Vec<_> = files
            .iter()
            .map(|f| f.lock().expect("store file poisoned"))
            .collect();
        let mut scanned = 0usize;
        let mut bytes_before = 0u64;
        // Latest valid line per (tag, key), with its stamp — re-parsed
        // from disk (not the index) because stamps only live in the files.
        let mut live: BTreeMap<(u32, u128), (u64, Box<str>)> = BTreeMap::new();
        for table in StoreTable::ALL {
            let file_path = self.path.join(table.file_name());
            let bytes = match std::fs::read(&file_path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            bytes_before += bytes.len() as u64;
            let text = String::from_utf8_lossy(&bytes);
            for line in text.lines() {
                if line.is_empty() {
                    continue;
                }
                scanned += 1;
                if let Some(r) = parse_record(line) {
                    if r.fingerprint == self.fingerprint && StoreTable::from_tag(r.tag).is_some() {
                        live.insert((r.tag, r.key), (r.stamp, r.payload.into()));
                    }
                }
            }
        }
        // Rewrite each table file in the map's (tag, key) order, so the
        // output is deterministic, then swap in the index matching it.
        let kept = live.len();
        let mut per_table: Vec<String> = vec![String::new(); StoreTable::ALL.len()];
        for ((tag, key), (stamp, payload)) in &live {
            let idx = StoreTable::from_tag(*tag).map_or(0, StoreTable::index);
            per_table[idx].push_str(&format_record(
                *tag,
                *key,
                self.fingerprint,
                *stamp,
                payload,
            ));
        }
        let mut bytes_after = 0u64;
        for (i, table) in StoreTable::ALL.into_iter().enumerate() {
            let file_path = self.path.join(table.file_name());
            let tmp = self.path.join(format!("{}.gc-tmp", table.file_name()));
            std::fs::write(&tmp, &per_table[i])?;
            std::fs::rename(&tmp, &file_path)?;
            bytes_after += per_table[i].len() as u64;
            // Reopen the append handle on the fresh file.
            *guards[i] = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&file_path)?;
        }
        for shard in &self.entries {
            shard.lock().expect("store index poisoned").clear();
        }
        for ((tag, key), (_, payload)) in live {
            self.entries[index_shard(key)]
                .lock()
                .expect("store index poisoned")
                .insert((tag, key), payload);
        }
        let report = GcReport {
            scanned,
            kept,
            dropped: scanned.saturating_sub(kept),
            bytes_before,
            bytes_after,
        };
        fnpr_obs::counter!("campaign.store.gc.scanned").add(report.scanned as u64);
        fnpr_obs::counter!("campaign.store.gc.dropped").add(report.dropped as u64);
        fnpr_obs::counter!("campaign.store.gc.bytes_reclaimed").add(report.bytes_reclaimed());
        Ok(report)
    }
}

impl LoadCounts {
    fn publish(&self) {
        fnpr_obs::counter!("campaign.store.invalid").add(self.invalid);
        fnpr_obs::counter!("campaign.store.stale").add(self.stale);
        fnpr_obs::counter!("campaign.store.healed").add(self.healed);
    }
}

/// One row of [`ResultStore::shard_files`].
#[derive(Debug, Clone)]
pub struct ShardFileInfo {
    /// The table this file holds (its file is `table.file_name()` under
    /// the store directory).
    pub table: StoreTable,
    /// On-disk size in bytes (0 if the file does not exist yet).
    pub bytes: u64,
    /// Live (valid, current-fingerprint) records indexed from this file's
    /// table.
    pub records: usize,
}

/// Refuses a `path` that exists but is not a directory — notably a
/// pre-sharding single-file store, which is left byte-for-byte untouched.
fn require_store_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() && !path.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} is not a result-store directory (single-file stores are not read)",
                path.display()
            ),
        ));
    }
    Ok(())
}

/// Collects (then clears) the in-progress marker of a dead run under
/// `dir`. A live pid's marker is left alone; one that cannot be parsed is
/// cleared too (nothing live can reclaim it).
fn take_dead_marker(dir: &Path) -> Option<String> {
    let marker = dir.join(INPROGRESS_FILE);
    let content = std::fs::read_to_string(&marker).ok()?;
    let content = content.trim().to_string();
    if marker_pid(&content).is_some_and(pid_is_live) {
        return None;
    }
    let _ = std::fs::remove_file(&marker);
    fnpr_obs::counter!("campaign.store.resume.interrupted").incr();
    Some(content)
}

/// The pid embedded in a `pid=<pid> …` in-progress marker line.
fn marker_pid(content: &str) -> Option<u32> {
    content
        .split_whitespace()
        .next()?
        .strip_prefix("pid=")?
        .parse()
        .ok()
}

/// Conservative liveness: our own pid is live, a pid with a `/proc`
/// entry is live, and on systems without `/proc` everything is live
/// (never report a running job as interrupted).
fn pid_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// What one [`ResultStore::gc`] pass scanned, kept and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Non-empty lines across all table files before the rewrite.
    pub scanned: usize,
    /// Live entries written back.
    pub kept: usize,
    /// Lines dropped structurally (superseded duplicates, invalid, stale,
    /// unknown versions and torn-tail terminators).
    pub dropped: usize,
    /// Total table-file bytes before the rewrite.
    pub bytes_before: u64,
    /// Total table-file bytes after the rewrite.
    pub bytes_after: u64,
}

impl GcReport {
    /// Bytes the rewrite gave back (0 if the store somehow grew).
    #[must_use]
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }

    /// The one-line summary `fnpr-campaign store gc` prints.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "scanned {} lines, kept {} entries, dropped {}; {} -> {} bytes ({} reclaimed)",
            self.scanned,
            self.kept,
            self.dropped,
            self.bytes_before,
            self.bytes_after,
            self.bytes_reclaimed()
        )
    }
}

/// Loads one log file into the index shards. Missing files load as empty;
/// a line whose tag names no [`StoreTable`] is invalid.
fn load_log_file(
    path: &Path,
    fingerprint: u64,
    entries: &mut [IndexShard],
    counts: &mut LoadCounts,
) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    // Lossy decoding: a line with invalid UTF-8 cannot checksum correctly
    // and parses as invalid, which is exactly right.
    let text = String::from_utf8_lossy(&bytes);
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        match parse_record(line) {
            Some(r) if StoreTable::from_tag(r.tag).is_none() => counts.invalid += 1,
            // Later lines supersede earlier ones (a point recomputed after
            // its earlier line failed to decode).
            Some(r) if r.fingerprint == fingerprint => {
                entries[index_shard(r.key)].insert((r.tag, r.key), r.payload.into());
            }
            Some(_) => counts.stale += 1,
            None => counts.invalid += 1,
        }
    }
    Ok(())
}

/// Opens the log at `path` for appending, creating it if absent. A final
/// line without its newline, a crashed writer's torn tail (which reads as
/// invalid), is terminated first so the next record starts on a fresh line
/// instead of gluing onto the wreckage; only the last byte is read.
/// Returns the handle and whether it healed a torn tail.
pub(crate) fn open_log_for_append(path: &Path) -> std::io::Result<(File, bool)> {
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let torn = file.metadata()?.len() > 0 && {
        let mut last = [0u8];
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
        last[0] != b'\n'
    };
    if torn {
        file.write_all(b"\n")?;
    }
    Ok((file, torn))
}

/// Serializes `value` as compact JSON after a two-sided round-trip
/// self-check on one tree: `written = value.to_value()` is written out,
/// the text is parsed back into a second tree, and that tree is
/// deserialized. The value must read back and compare equal (catches NaN
/// payloads — JSON has no NaN, and `NaN != NaN` makes `PartialEq` fail —
/// integers the JSON model cannot hold, and types that serialize to
/// `null`), *and* the parsed tree must equal `written` with floats
/// compared by bits (catches what value equality cannot see, e.g. a float
/// formatter normalizing `-0.0` to `0.0` — equal under `==`, different
/// bytes in the rendered aggregates). Writing is a pure function of the
/// tree, so a bitwise-equal tree writes the same bytes again: the text
/// restored from the store re-serializes to exactly the text stored.
/// `None` when the value would not survive a write and a read.
pub(crate) fn lossless_json<V>(value: &V) -> Option<String>
where
    V: Serialize + Deserialize + PartialEq,
{
    let written = value.to_value();
    let payload = serde_json::value_to_string(&written);
    debug_assert!(!payload.contains('\n'), "compact JSON is single-line");
    let back = serde_json::parse_value(&payload).ok()?;
    let parsed = V::from_value(&back).ok()?;
    (parsed == *value && same_bits(&back, &written)).then_some(payload)
}

/// Tree equality with floats compared by their bits: unlike `==` on
/// [`Value`], it tells `-0.0` from `0.0`.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        (Value::Null | Value::Bool(_) | Value::Int(_) | Value::Str(_), _) => a == b,
        _ => false,
    }
}

/// Formats one record line (trailing newline included).
pub(crate) fn format_record(
    tag: u32,
    key: u128,
    fingerprint: u64,
    stamp: u64,
    payload: &str,
) -> String {
    format!(
        "{STORE_FORMAT} {tag:08x} {key:032x} {fingerprint:016x} {stamp} {len} {sum:016x} {payload}\n",
        len = payload.len(),
        sum = checksum(tag, key, fingerprint, stamp, payload),
    )
}

/// Record checksum over every content-bearing field — table tag, key,
/// fingerprint, write stamp and payload text — so a bit flip anywhere in
/// the line (not just the payload) fails validation and counts as invalid,
/// rather than indexing a well-formed payload under a corrupted key or
/// misclassifying its analysis version.
fn checksum(tag: u32, key: u128, fingerprint: u64, stamp: u64, payload: &str) -> u64 {
    ScenarioHasher::new(TAG_CHECKSUM)
        .word(u64::from(tag))
        .word128(key)
        .word(fingerprint)
        .word(stamp)
        .str(payload)
        .finish()
}

/// Index shard for a key: by the low word, like the in-RAM memo tables.
fn index_shard(key: u128) -> usize {
    (key as u64 as usize) % INDEX_SHARDS
}

/// Parses one log line: structural and checksum validation only. `None`
/// for anything malformed — unknown format token, bad hex, wrong payload
/// length (truncation), wrong checksum (corruption). Which tags and
/// fingerprints are current is the caller's question: the store's loader
/// and [`crate::ledger`] each ask it of the fields returned.
pub(crate) fn parse_record(line: &str) -> Option<Record<'_>> {
    let rest = line.strip_prefix(STORE_FORMAT)?.strip_prefix(' ')?;
    let mut parts = rest.splitn(7, ' ');
    let (Some(tag), Some(key), Some(fp), Some(stamp), Some(len), Some(sum), Some(payload)) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) else {
        return None;
    };
    let (Ok(tag), Ok(key), Ok(fp), Ok(stamp), Ok(len), Ok(sum)) = (
        u32::from_str_radix(tag, 16),
        u128::from_str_radix(key, 16),
        u64::from_str_radix(fp, 16),
        stamp.parse::<u64>(),
        len.parse::<usize>(),
        u64::from_str_radix(sum, 16),
    ) else {
        return None;
    };
    if payload.len() != len || checksum(tag, key, fp, stamp, payload) != sum {
        return None;
    }
    Some(Record {
        tag,
        key,
        fingerprint: fp,
        stamp,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_path(name: &str) -> PathBuf {
        crate::testutil::scratch_dir("store_unit").join(name)
    }

    /// The `[cfg]` table's log file under a sharded store directory.
    fn cfg_file(store_dir: &Path) -> PathBuf {
        store_dir.join(StoreTable::CfgPoints.file_name())
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_store_path("basic.log");
        {
            let store = ResultStore::open(&path).unwrap();
            assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 42), None);
            store.put(StoreTable::CfgPoints, 42, &1.5f64);
            assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 42), Some(1.5));
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 42), Some(1.5));
        let stats = store.stats();
        assert_eq!(stats.invalid_entries, 0);
        assert_eq!(stats.stale_entries, 0);
        assert!(path.is_dir(), "a fresh store is a directory");
    }

    #[test]
    fn tables_do_not_alias() {
        let path = temp_store_path("tables.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::SoundnessShards, 7, &1.0f64);
        store.put(StoreTable::CfgPoints, 7, &2.0f64);
        assert_eq!(store.get::<f64>(StoreTable::SoundnessShards, 7), Some(1.0));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 7), Some(2.0));
        assert_eq!(store.get::<f64>(StoreTable::AcceptancePoints, 7), None);
        let counts: HashMap<_, _> = store.table_counts().into_iter().collect();
        assert_eq!(counts[&StoreTable::SoundnessShards], 1);
        assert_eq!(counts[&StoreTable::CfgPoints], 1);
        assert_eq!(counts[&StoreTable::MulticorePoints], 0);
        // And the sharded layout physically separates them.
        assert!(path.join(StoreTable::SoundnessShards.file_name()).is_file());
        assert!(path.join(StoreTable::CfgPoints.file_name()).is_file());
    }

    #[test]
    fn get_or_compute_counts_and_persists() {
        let path = temp_store_path("counted.log");
        let store = ResultStore::open(&path).unwrap();
        let v: Result<f64, ()> = store.get_or_compute(StoreTable::CfgPoints, 1, || Ok(2.5));
        assert_eq!(v, Ok(2.5));
        let v: Result<f64, ()> = store.get_or_compute(StoreTable::CfgPoints, 1, || panic!());
        assert_eq!(v, Ok(2.5));
        let stats = store.stats();
        assert_eq!((stats.points_computed, stats.points_restored), (1, 1));
        // Errors propagate and are not stored.
        let e: Result<f64, u8> = store.get_or_compute(StoreTable::CfgPoints, 2, || Err(9));
        assert_eq!(e, Err(9));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 2), None);
    }

    #[test]
    fn truncated_tail_degrades_to_recompute() {
        let path = temp_store_path("truncated.log");
        {
            let store = ResultStore::open(&path).unwrap();
            store.put(StoreTable::CfgPoints, 1, &1.0f64);
            store.put(StoreTable::CfgPoints, 2, &2.0f64);
        }
        // Chop the table file mid-way through the last line (a crashed
        // writer).
        let tbl = cfg_file(&path);
        let bytes = std::fs::read(&tbl).unwrap();
        std::fs::write(&tbl, &bytes[..bytes.len() - 4]).unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 1), Some(1.0));
        assert_eq!(
            store.get::<f64>(StoreTable::CfgPoints, 2),
            None,
            "truncated"
        );
        assert_eq!(store.stats().invalid_entries, 1);
        // Rewriting the lost entry restores it for the next open.
        store.put(StoreTable::CfgPoints, 2, &2.0f64);
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::CfgPoints, 2), Some(2.0));
    }

    #[test]
    fn garbage_bytes_and_unknown_versions_are_skipped() {
        let path = temp_store_path("garbage.log");
        {
            let store = ResultStore::open(&path).unwrap();
            store.put(StoreTable::CfgPoints, 1, &1.0f64);
        }
        // Prepend binary garbage, append an unknown-version line, a
        // checksum-corrupted copy of a valid line, and a well-formed record
        // of the retired stampless `FNPR1` format.
        let tbl = cfg_file(&path);
        let mut bytes = vec![0xFFu8, 0xFE, 0x00, b'\n'];
        let original = std::fs::read(&tbl).unwrap();
        bytes.extend_from_slice(&original);
        bytes.extend_from_slice(b"FNPR9 00000000 0 0 1 0 x\n");
        let valid_line = String::from_utf8(original).unwrap();
        bytes.extend_from_slice(valid_line.replace("1.0", "9.0").as_bytes());
        let (tag, fp, payload) = (StoreTable::CfgPoints.tag(), analysis_fingerprint(), "4.25");
        let v1_sum = ScenarioHasher::new(TAG_CHECKSUM)
            .word(u64::from(tag))
            .word128(77)
            .word(fp)
            .str(payload)
            .finish();
        let v1 = format!(
            "FNPR1 {tag:08x} {key:032x} {fp:016x} {len} {v1_sum:016x} {payload}\n",
            key = 77u128,
            len = payload.len(),
        );
        bytes.extend_from_slice(v1.as_bytes());
        std::fs::write(&tbl, bytes).unwrap();
        let store = ResultStore::open(&path).unwrap();
        // The corrupted duplicate must NOT supersede the valid entry.
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 1), Some(1.0));
        assert_eq!(store.stats().invalid_entries, 4);
        // The FNPR1 record is never served: its point recomputes.
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 77), None);
        let v: Result<f64, ()> = store.get_or_compute(StoreTable::CfgPoints, 77, || Ok(5.0));
        assert_eq!(v, Ok(5.0));
        assert_eq!(store.stats().points_computed, 1);
    }

    #[test]
    fn regular_file_paths_are_refused_untouched() {
        // A single file where the store directory should be (such as a
        // pre-sharding store) is an error for both opens, never read,
        // migrated or healed.
        let path = temp_store_path("single_file.log");
        let line = format_record(
            StoreTable::CfgPoints.tag(),
            4,
            analysis_fingerprint(),
            9,
            "4.5",
        );
        let content = format!("{line}torn tail");
        std::fs::write(&path, &content).unwrap();
        assert!(ResultStore::open(&path).is_err());
        assert!(ResultStore::open_read_only(&path).is_err());
        assert!(path.is_file());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), content);
    }

    #[test]
    fn header_corruption_fails_the_checksum() {
        // A bit flip in the key/tag/fingerprint fields — payload intact —
        // must read as invalid, not index the payload under a wrong key.
        let path = temp_store_path("header.log");
        {
            let store = ResultStore::open(&path).unwrap();
            store.put(StoreTable::CfgPoints, 0x1111, &1.0f64);
        }
        let tbl = cfg_file(&path);
        let line = std::fs::read_to_string(&tbl).unwrap();
        let fields: Vec<&str> = line.trim_end().splitn(8, ' ').collect();
        assert_eq!(fields.len(), 8, "FNPR2 records have 8 fields");
        for (field, replacement) in [(1, "42434e44"), (2, &"f".repeat(32)[..])] {
            let mut mutated = fields.clone();
            mutated[field] = replacement;
            std::fs::write(&tbl, mutated.join(" ") + "\n").unwrap();
            let store = ResultStore::open(&path).unwrap();
            assert_eq!(
                store.get::<f64>(StoreTable::CfgPoints, 0x1111),
                None,
                "field {field} corruption survived"
            );
            assert_eq!(
                store.table_counts().iter().map(|(_, n)| n).sum::<usize>(),
                0
            );
            assert_eq!(store.stats().invalid_entries, 1, "field {field}");
        }
    }

    #[test]
    fn wrong_fingerprint_is_stale_never_served() {
        let path = temp_store_path("stale.log");
        {
            let store = ResultStore::open_with_fingerprint(&path, 111).unwrap();
            store.put(StoreTable::CfgPoints, 5, &1.0f64);
        }
        let store = ResultStore::open_with_fingerprint(&path, 222).unwrap();
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 5), None);
        assert_eq!(store.stats().stale_entries, 1);
        // The recomputed value is written under the new fingerprint and
        // wins on the next open; the stale line survives until gc.
        store.put(StoreTable::CfgPoints, 5, &2.0f64);
        let again = ResultStore::open_with_fingerprint(&path, 222).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::CfgPoints, 5), Some(2.0));
        assert_eq!(again.stats().stale_entries, 1);
        assert_eq!(again.gc().unwrap().kept, 1);
        let clean = ResultStore::open_with_fingerprint(&path, 222).unwrap();
        assert_eq!(clean.stats().stale_entries, 0);
        assert_eq!(clean.get::<f64>(StoreTable::CfgPoints, 5), Some(2.0));
    }

    #[test]
    fn non_finite_values_are_never_persisted() {
        let path = temp_store_path("nonfinite.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::CfgPoints, 1, &f64::NAN);
        store.put(StoreTable::CfgPoints, 2, &f64::INFINITY);
        store.put(StoreTable::CfgPoints, 3, &Some(f64::NAN));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 1), None);
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 2), None);
        assert_eq!(store.get::<Option<f64>>(StoreTable::CfgPoints, 3), None);
        assert_eq!(store.stats().write_errors, 3);
        // Finite negative zero, by contrast, survives bit-exactly.
        store.put(StoreTable::CfgPoints, 4, &(-0.0f64));
        let restored = store.get::<f64>(StoreTable::CfgPoints, 4).unwrap();
        assert_eq!(restored.to_bits(), (-0.0f64).to_bits());
    }

    /// Serializes to `null` and never deserializes, so nothing it writes
    /// can read back.
    #[derive(Debug, PartialEq)]
    struct Pair(f64, f64);

    impl Serialize for Pair {
        fn to_value(&self) -> Value {
            Value::Null
        }
    }

    impl Deserialize for Pair {
        fn from_value(_: &Value) -> Result<Self, serde::Error> {
            Err(serde::Error::new("Pair never deserializes"))
        }
    }

    /// Equal to every other `Blind`, whatever it holds, the way `==` cannot
    /// tell `-0.0` from `0.0`. It writes NaN, which reads back as `null`,
    /// and reads `null` as a value equal to the one written: only the tree
    /// comparison sees the loss.
    #[derive(Debug)]
    struct Blind(f64);

    impl PartialEq for Blind {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }

    impl Serialize for Blind {
        fn to_value(&self) -> Value {
            Value::Float(self.0)
        }
    }

    impl Deserialize for Blind {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            Ok(Blind(v.as_f64().unwrap_or(0.0)))
        }
    }

    #[test]
    fn every_lossy_value_is_refused() {
        let path = temp_store_path("lossy.log");
        let store = ResultStore::open(&path).unwrap();
        // `u64::MAX` and a bare `Pair` do not read back.
        // `Some(f64::INFINITY)` and `Some(Pair(..))` read back as `None`,
        // which the value comparison refuses (and only it for `Pair`, whose
        // written tree is `null` too). Only the tree comparison refuses
        // `Blind`.
        store.put(StoreTable::CfgPoints, 1, &u64::MAX);
        store.put(StoreTable::CfgPoints, 2, &Some(f64::INFINITY));
        store.put(StoreTable::CfgPoints, 3, &Pair(1.5, -0.0));
        store.put(StoreTable::CfgPoints, 4, &Some(Pair(1.5, -0.0)));
        store.put(StoreTable::CfgPoints, 5, &Blind(f64::NAN));
        assert!(lossless_json(&Blind(f64::NAN)).is_none());
        assert!(lossless_json(&Some(Pair(1.5, 2.0))).is_none());
        assert_eq!(store.get::<u64>(StoreTable::CfgPoints, 1), None);
        assert_eq!(store.get::<Option<f64>>(StoreTable::CfgPoints, 2), None);
        assert_eq!(store.get::<Pair>(StoreTable::CfgPoints, 3), None);
        assert_eq!(store.get::<Option<Pair>>(StoreTable::CfgPoints, 4), None);
        assert_eq!(store.get::<Blind>(StoreTable::CfgPoints, 5), None);
        assert_eq!(store.stats().write_errors, 5);
        assert!(store.table_counts().iter().all(|&(_, n)| n == 0));
        // The largest `u64` JSON holds, and a finite `Blind`, persist.
        store.put(StoreTable::CfgPoints, 6, &(i64::MAX as u64));
        store.put(StoreTable::CfgPoints, 7, &Blind(-0.0));
        assert_eq!(
            store.get::<u64>(StoreTable::CfgPoints, 6),
            Some(i64::MAX as u64)
        );
        let blind = store.get::<Blind>(StoreTable::CfgPoints, 7).unwrap();
        assert_eq!(blind.0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(store.stats().write_errors, 5);
    }

    #[test]
    fn gc_drops_superseded_duplicates() {
        let path = temp_store_path("gc.log");
        let store = ResultStore::open(&path).unwrap();
        for i in 0..5 {
            store.put(StoreTable::CfgPoints, 9, &(i as f64));
        }
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 9), Some(4.0));
        let tbl = cfg_file(&path);
        let text_before = std::fs::read_to_string(&tbl).unwrap();
        assert_eq!(text_before.lines().count(), 5);
        let last_line = text_before.lines().last().unwrap();
        let bytes_before = std::fs::metadata(&tbl).unwrap().len();
        let report = store.gc().unwrap();
        // The kept line is the last one appended, byte for byte, stamp
        // included.
        let text_after = std::fs::read_to_string(&tbl).unwrap();
        assert_eq!(text_after, format!("{last_line}\n"));
        // The report reflects exactly what the rewrite did.
        assert_eq!((report.scanned, report.kept, report.dropped), (5, 1, 4));
        assert_eq!(report.bytes_before, bytes_before);
        assert_eq!(report.bytes_after, std::fs::metadata(&tbl).unwrap().len());
        assert_eq!(
            report.bytes_reclaimed(),
            report.bytes_before - report.bytes_after
        );
        let summary = report.summary();
        assert!(
            summary.contains("scanned 5 lines, kept 1 entries, dropped 4"),
            "{summary}"
        );
        assert!(summary.contains("reclaimed"), "{summary}");
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 9), Some(4.0));
        // The append handle still works after the rename.
        store.put(StoreTable::CfgPoints, 10, &7.0f64);
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::CfgPoints, 10), Some(7.0));
    }

    #[test]
    fn deeply_nested_payloads_are_invalid_and_recompute() {
        // A checksum-valid record whose payload nests far past the JSON
        // parser's depth cap. Decoding it on this 2 MiB test thread, as on
        // a worker, counts it invalid instead of overflowing the stack.
        let path = temp_store_path("nested.log");
        drop(ResultStore::open(&path).unwrap());
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let line = format_record(
            StoreTable::CfgPoints.tag(),
            5,
            analysis_fingerprint(),
            1,
            &deep,
        );
        std::fs::write(cfg_file(&path), line).unwrap();
        let store = ResultStore::open(&path).unwrap();
        let v: Result<f64, ()> = store.get_or_compute(StoreTable::CfgPoints, 5, || Ok(6.5));
        assert_eq!(v, Ok(6.5));
        let stats = store.stats();
        assert_eq!((stats.invalid_entries, stats.points_computed), (1, 1));
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::CfgPoints, 5), Some(6.5));
    }

    #[test]
    fn checksum_valid_lines_of_unknown_tables_are_invalid() {
        // A well-formed record under a tag no table owns (the run ledger's,
        // say) is never indexed, and gc drops it.
        let path = temp_store_path("foreign_tag.log");
        drop(ResultStore::open(&path).unwrap());
        let line = format_record(0x4c44_4752, 7, analysis_fingerprint(), 1, "1.0");
        std::fs::write(cfg_file(&path), line).unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.stats().invalid_entries, 1);
        assert_eq!(
            store.table_counts().iter().map(|(_, n)| n).sum::<usize>(),
            0
        );
        let report = store.gc().unwrap();
        assert_eq!((report.scanned, report.kept, report.dropped), (1, 0, 1));
    }

    #[test]
    fn shard_files_reports_per_table_sizes_and_counts() {
        let path = temp_store_path("inventory.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::CfgPoints, 1, &1.0f64);
        store.put(StoreTable::CfgPoints, 2, &2.0f64);
        store.put(StoreTable::MulticorePoints, 3, &3.0f64);
        let files = store.shard_files();
        assert_eq!(files.len(), StoreTable::ALL.len());
        let by_table: HashMap<_, _> = files
            .iter()
            .map(|f| (f.table, (f.records, f.bytes)))
            .collect();
        assert_eq!(by_table[&StoreTable::CfgPoints].0, 2);
        assert_eq!(by_table[&StoreTable::MulticorePoints].0, 1);
        assert_eq!(by_table[&StoreTable::AcceptancePoints], (0, 0));
        assert_eq!(
            by_table[&StoreTable::CfgPoints].1,
            std::fs::metadata(cfg_file(&path)).unwrap().len()
        );
    }

    /// A pid no live process can hold (kernels cap pids far below this),
    /// so `pid=<DEAD_PID>` markers always look dead to the liveness check.
    const DEAD_PID: u32 = 99_999_999;

    #[test]
    fn dead_marker_reports_interrupted_and_clears() {
        let path = temp_store_path("marker.log");
        ResultStore::open(&path).unwrap();
        let marker = path.join(INPROGRESS_FILE);
        std::fs::write(&marker, format!("pid={DEAD_PID} started=123 name=doomed\n")).unwrap();
        let store = ResultStore::open(&path).unwrap();
        let interrupted = store.interrupted_run().expect("interruption detected");
        assert!(interrupted.contains("name=doomed"));
        assert!(!marker.exists(), "dead markers are cleared once reported");
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.interrupted_run(), None);
    }

    #[test]
    fn begin_end_run_marker_lifecycle() {
        let path = temp_store_path("marker_own.log");
        let store = ResultStore::open(&path).unwrap();
        let marker = path.join(INPROGRESS_FILE);
        store.begin_run("alive");
        assert!(marker.is_file());
        // Another open while we run: our pid is live, so the marker is
        // neither reported nor cleared.
        let other = ResultStore::open(&path).unwrap();
        assert_eq!(other.interrupted_run(), None);
        assert!(marker.is_file(), "a live run's marker must survive");
        store.end_run();
        assert!(!marker.exists());
        // end_run leaves someone else's marker alone.
        std::fs::write(&marker, format!("pid={DEAD_PID} started=1 name=x\n")).unwrap();
        store.end_run();
        assert!(marker.exists());
    }
}
