//! The run ledger: longitudinal, append-only run records.
//!
//! A [`MetricsReport`](crate::MetricsReport) snapshot is ephemeral — it
//! describes one run and is overwritten by the next. The ledger is the
//! durable complement: one checksummed line per campaign run
//! (`LEDGER.jsonl` by convention), carrying the scenario identity,
//! throughput, hit rates and latency percentiles, so `fnpr-campaign
//! history` can answer "did run N get slower than run N-1?" without any
//! external metrics stack.
//!
//! # Layout
//!
//! The framing discipline mirrors the campaign result store
//! (`crates/campaign/src/store.rs`): an append-only text log where each
//! record is a single self-validating line —
//!
//! ```text
//! FNPRL1 <fingerprint:16hex> <len> <sum:16hex> <payload>
//! ```
//!
//! * `FNPRL1` — the ledger **format version**; unknown tokens are ignored;
//! * `fingerprint` — a hash of [`LEDGER_SCHEMA_VERSION`]; records written
//!   by a different record schema are *stale*, counted but not served;
//! * `len`/`sum` — payload byte length and checksum (over fingerprint and
//!   payload), so truncated tails and corrupted bytes are detected
//!   line-locally;
//! * `payload` — one [`RunRecord`] as compact single-line JSON.
//!
//! # Correctness contract
//!
//! *Never crash, never serve a wrong row.* Unreadable, truncated, corrupt
//! or stale lines degrade to skipped rows (counted in [`LedgerView`]); a
//! torn final line from a crashed writer is healed with a newline on the
//! next append, exactly like the result store. Appending is telemetry:
//! a failure must never turn a successful campaign into a failing one —
//! callers surface append errors as warnings.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

use crate::report::json_f64;
use crate::span::json_string;

/// Magic token carrying the on-disk framing version. Bump on any
/// line-layout change; old lines then read as invalid.
pub const LEDGER_FORMAT: &str = "FNPRL1";

/// Version of the [`RunRecord`] payload schema. Folded into the line
/// fingerprint; bump when fields change shape or meaning, and old rows
/// become stale instead of being misread.
///
/// v2: added `recovered_shards` (shards delivered by supervision
/// recovery — redispatch reclaims plus coordinator fallback).
pub const LEDGER_SCHEMA_VERSION: u64 = 2;

/// One run of a campaign, as recorded in the ledger. Every field is a
/// flat scalar so the hand-rolled JSON writer/parser (this crate is
/// dependency-free) stays trivial.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Payload schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Wall-clock seconds since the Unix epoch at record time.
    pub unix_seconds: u64,
    /// Campaign name (from the spec).
    pub name: String,
    /// Scenario hash as hex — the join key for grouping runs of the same
    /// scenario (telemetry/output/store settings are excluded from it).
    pub scenario: String,
    /// Workload kind (`acceptance`, `soundness`, `multicore`, `cfg`).
    pub workload: String,
    /// Grid points in the scenario.
    pub grid_points: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Throughput: grid points per wall-clock second.
    pub points_per_sec: f64,
    /// In-memory memo hits.
    pub memo_hits: u64,
    /// In-memory memo misses.
    pub memo_misses: u64,
    /// Grid points restored from the result store.
    pub points_restored: u64,
    /// Grid points computed fresh.
    pub points_computed: u64,
    /// Shared `(curve, Q)` bounds restored from the result store. The
    /// result store keeps finished points only, so the campaign engine
    /// always writes 0; the field keeps the schema at v2.
    pub bounds_restored: u64,
    /// Shared `(curve, Q)` bounds computed fresh. Always 0, like
    /// `bounds_restored`.
    pub bounds_computed: u64,
    /// Shards that reached the aggregate through a recovery path. The
    /// campaign engine runs every shard on one thread pool with no
    /// recovery path, so it always writes 0; the field keeps the schema
    /// at v2.
    pub recovered_shards: u64,
    /// Estimated median per-point wall time, microseconds.
    pub p50_us: f64,
    /// Estimated 90th-percentile per-point wall time, microseconds.
    pub p90_us: f64,
    /// Estimated 99th-percentile per-point wall time, microseconds.
    pub p99_us: f64,
    /// Largest observed per-point wall time, microseconds.
    pub max_us: u64,
}

impl RunRecord {
    /// Serializes the record as compact single-line JSON (field order
    /// fixed, so identical records are identical bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(384);
        out.push('{');
        let _ = write!(
            out,
            "\"schema\":{},\"unix_seconds\":{},\"name\":{},\"scenario\":{},\"workload\":{}",
            self.schema,
            self.unix_seconds,
            json_string(&self.name),
            json_string(&self.scenario),
            json_string(&self.workload),
        );
        let _ = write!(
            out,
            ",\"grid_points\":{},\"threads\":{},\"wall_seconds\":{},\"points_per_sec\":{}",
            self.grid_points,
            self.threads,
            json_f64(self.wall_seconds),
            json_f64(self.points_per_sec),
        );
        let _ = write!(
            out,
            ",\"memo_hits\":{},\"memo_misses\":{},\"points_restored\":{},\"points_computed\":{}",
            self.memo_hits, self.memo_misses, self.points_restored, self.points_computed,
        );
        let _ = write!(
            out,
            ",\"bounds_restored\":{},\"bounds_computed\":{},\"recovered_shards\":{}",
            self.bounds_restored, self.bounds_computed, self.recovered_shards,
        );
        let _ = write!(
            out,
            ",\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            json_f64(self.p50_us),
            json_f64(self.p90_us),
            json_f64(self.p99_us),
            self.max_us,
        );
        out
    }

    /// Parses a record from the flat JSON [`Self::to_json`] writes.
    /// `None` on any malformed payload or missing field — the caller
    /// counts the line as invalid and moves on.
    #[must_use]
    pub fn from_json(payload: &str) -> Option<Self> {
        let fields = parse_flat_object(payload)?;
        let str_field = |k: &str| -> Option<String> {
            match fields.iter().find(|(key, _)| key == k)? {
                (_, JsonScalar::Str(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let num_field = |k: &str| -> Option<f64> {
            match fields.iter().find(|(key, _)| key == k)? {
                (_, JsonScalar::Num(n)) => Some(*n),
                _ => None,
            }
        };
        let u64_field = |k: &str| -> Option<u64> {
            let n = num_field(k)?;
            (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
        };
        Some(Self {
            schema: u64_field("schema")?,
            unix_seconds: u64_field("unix_seconds")?,
            name: str_field("name")?,
            scenario: str_field("scenario")?,
            workload: str_field("workload")?,
            grid_points: u64_field("grid_points")?,
            threads: u64_field("threads")?,
            wall_seconds: num_field("wall_seconds")?,
            points_per_sec: num_field("points_per_sec")?,
            memo_hits: u64_field("memo_hits")?,
            memo_misses: u64_field("memo_misses")?,
            points_restored: u64_field("points_restored")?,
            points_computed: u64_field("points_computed")?,
            bounds_restored: u64_field("bounds_restored")?,
            bounds_computed: u64_field("bounds_computed")?,
            recovered_shards: u64_field("recovered_shards")?,
            p50_us: num_field("p50_us")?,
            p90_us: num_field("p90_us")?,
            p99_us: num_field("p99_us")?,
            max_us: u64_field("max_us")?,
        })
    }
}

/// What a full ledger read produced: the valid records in file order plus
/// the skipped-line counts (diagnostics for `history`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerView {
    /// Valid, current-schema records, oldest first.
    pub records: Vec<RunRecord>,
    /// Malformed / truncated / corrupt lines skipped.
    pub invalid: u64,
    /// Well-formed lines from another schema version skipped.
    pub stale: u64,
}

/// Seconds since the Unix epoch right now (0 if the clock is somehow
/// before the epoch).
#[must_use]
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Appends one record to the ledger at `path`, creating the file (and
/// parent directories) if absent and healing a torn final line first.
///
/// # Errors
///
/// Real I/O failures only. Callers treat them as warnings: the ledger is
/// telemetry and must never fail a successful run.
pub fn append_record(path: &Path, record: &RunRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let unterminated = match std::fs::read(path) {
        Ok(bytes) => bytes.last().is_some_and(|&b| b != b'\n'),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
        Err(e) => return Err(e),
    };
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if unterminated {
        // A crashed writer left a torn final line (it will read as
        // invalid); terminate it so this append starts on a fresh line.
        file.write_all(b"\n")?;
        crate::counter!("obs.ledger.healed").incr();
    }
    file.write_all(format_line(record).as_bytes())
}

/// Reads the whole ledger at `path`. Corrupt, truncated and stale lines
/// are counted and skipped, never fatal; only real I/O failures (including
/// a missing file) error.
///
/// # Errors
///
/// Filesystem read failures.
pub fn read_ledger(path: &Path) -> std::io::Result<LedgerView> {
    let bytes = std::fs::read(path)?;
    // Lossy decoding: a line with invalid UTF-8 cannot checksum correctly
    // and parses as invalid, which is exactly right.
    let text = String::from_utf8_lossy(&bytes);
    let mut view = LedgerView::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            ParsedLine::Valid(record) => view.records.push(*record),
            ParsedLine::Stale => view.stale += 1,
            ParsedLine::Invalid => view.invalid += 1,
        }
    }
    Ok(view)
}

/// The fingerprint stamped on every line this build writes: a hash of the
/// record schema version. Lines carrying any other fingerprint are stale.
#[must_use]
pub fn ledger_fingerprint() -> u64 {
    hash_words(TAG_FINGERPRINT, &[LEDGER_SCHEMA_VERSION], "")
}

/// Formats one ledger line (trailing newline included).
fn format_line(record: &RunRecord) -> String {
    let payload = record.to_json();
    debug_assert!(!payload.contains('\n'), "compact JSON is single-line");
    let fingerprint = ledger_fingerprint();
    format!(
        "{LEDGER_FORMAT} {fingerprint:016x} {len} {sum:016x} {payload}\n",
        len = payload.len(),
        sum = checksum(fingerprint, &payload),
    )
}

enum ParsedLine {
    Valid(Box<RunRecord>),
    Stale,
    Invalid,
}

/// Parses one ledger line. Anything malformed — unknown format token, bad
/// hex, wrong payload length (truncation), wrong checksum (corruption),
/// undecodable payload — is invalid; a well-formed line from another
/// schema version is stale.
fn parse_line(line: &str) -> ParsedLine {
    let mut parts = line.splitn(5, ' ');
    let (Some(magic), Some(fp), Some(len), Some(sum), Some(payload)) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) else {
        return ParsedLine::Invalid;
    };
    if magic != LEDGER_FORMAT {
        return ParsedLine::Invalid;
    }
    let (Ok(fp), Ok(len), Ok(sum)) = (
        u64::from_str_radix(fp, 16),
        len.parse::<usize>(),
        u64::from_str_radix(sum, 16),
    ) else {
        return ParsedLine::Invalid;
    };
    if payload.len() != len || checksum(fp, payload) != sum {
        return ParsedLine::Invalid;
    }
    if fp != ledger_fingerprint() {
        return ParsedLine::Stale;
    }
    match RunRecord::from_json(payload) {
        Some(record) => ParsedLine::Valid(Box::new(record)),
        None => ParsedLine::Invalid,
    }
}

/// Line checksum over every content-bearing field (fingerprint and
/// payload), so a bit flip anywhere fails validation.
fn checksum(fingerprint: u64, payload: &str) -> u64 {
    hash_words(TAG_CHECKSUM, &[fingerprint], payload)
}

// Domain tags for ledger-internal hashing.
const TAG_FINGERPRINT: u64 = 0x4c44_4746; // "LDGF"
const TAG_CHECKSUM: u64 = 0x4c44_4753; // "LDGS"

/// A small splitmix64-style accumulator (the same construction as the
/// campaign's `ScenarioHasher`, re-implemented locally because this crate
/// is dependency-free and sits below `fnpr-campaign`).
fn hash_words(tag: u64, words: &[u64], text: &str) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut state = mix(tag ^ 0x9e37_79b9_7f4a_7c15);
    for &w in words {
        state = mix(state ^ w);
    }
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = mix(state ^ u64::from_le_bytes(word) ^ chunk.len() as u64);
    }
    mix(state ^ text.len() as u64)
}

/// A scalar value of the flat JSON objects the ledger round-trips.
enum JsonScalar {
    Str(String),
    Num(f64),
}

/// Parses a single-level JSON object of string/number scalars (what
/// [`RunRecord::to_json`] emits) into `(key, value)` pairs in document
/// order. `None` on anything else — nesting, arrays, booleans, trailing
/// garbage. Deliberately minimal: the ledger controls both ends.
fn parse_flat_object(text: &str) -> Option<Vec<(String, JsonScalar)>> {
    let mut chars = text.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next()? != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return finish(chars, fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = match chars.peek()? {
            '"' => JsonScalar::Str(parse_string(&mut chars)?),
            _ => JsonScalar::Num(parse_number(&mut chars)?),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => return finish(chars, fields),
            _ => return None,
        }
    }
}

fn finish(
    mut rest: std::iter::Peekable<std::str::Chars<'_>>,
    fields: Vec<(String, JsonScalar)>,
) -> Option<Vec<(String, JsonScalar)>> {
    skip_ws(&mut rest);
    rest.peek().is_none().then_some(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

/// Parses a JSON string literal (opening quote included), handling the
/// escapes [`json_string`] emits plus `\uXXXX` and `\/`.
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c if (c as u32) < 0x20 => return None,
            c => out.push(c),
        }
    }
}

/// Parses a JSON number via `f64::parse` on the maximal number-shaped
/// prefix.
fn parse_number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<f64> {
    let mut literal = String::new();
    while chars
        .peek()
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
    {
        literal.push(chars.next()?);
    }
    literal.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(throughput: f64) -> RunRecord {
        RunRecord {
            schema: LEDGER_SCHEMA_VERSION,
            unix_seconds: 1_700_000_000,
            name: "smoke".to_string(),
            scenario: "00112233445566778899aabbccddeeff".to_string(),
            workload: "acceptance".to_string(),
            grid_points: 8,
            threads: 2,
            wall_seconds: 0.25,
            points_per_sec: throughput,
            memo_hits: 3,
            memo_misses: 5,
            points_restored: 0,
            points_computed: 8,
            bounds_restored: 1,
            bounds_computed: 7,
            recovered_shards: 0,
            p50_us: 120.0,
            p90_us: 900.5,
            p99_us: 1800.25,
            max_us: 2100,
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fnpr_obs_ledger_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn record_json_round_trips() {
        let record = sample(32.0);
        let json = record.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(RunRecord::from_json(&json), Some(record));
    }

    #[test]
    fn record_with_hostile_strings_round_trips() {
        let record = RunRecord {
            name: "quo\"te \\ back\nslash\ttab \u{1}ctl".to_string(),
            scenario: "deadbeef".to_string(),
            workload: "cfg".to_string(),
            ..sample(1.0)
        };
        assert_eq!(RunRecord::from_json(&record.to_json()), Some(record));
    }

    #[test]
    fn append_then_read_preserves_order() {
        let path = scratch("order.jsonl");
        for i in 1..=3 {
            append_record(&path, &sample(i as f64)).unwrap();
        }
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.invalid, 0);
        assert_eq!(view.stale, 0);
        let rates: Vec<f64> = view.records.iter().map(|r| r.points_per_sec).collect();
        assert_eq!(rates, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped_not_fatal() {
        let path = scratch("corrupt.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        // Flip a payload byte of a valid line, then add garbage and a
        // truncated copy of a real line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let good = text.clone();
        text = text.replace("\"threads\":2", "\"threads\":3");
        text.push_str("complete garbage, not a record\n");
        text.push_str(&good[..good.len() / 2]);
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        let view = read_ledger(&path).unwrap();
        assert!(view.records.is_empty(), "corrupt line served: {view:?}");
        assert_eq!(view.invalid, 3);
    }

    #[test]
    fn stale_schema_lines_are_counted_separately() {
        let path = scratch("stale.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        // Re-frame the same payload under a different fingerprint with a
        // *valid* checksum: well-formed, wrong schema.
        let payload = sample(1.0).to_json();
        let fp = ledger_fingerprint() ^ 1;
        let line = format!(
            "{LEDGER_FORMAT} {fp:016x} {} {:016x} {payload}\n",
            payload.len(),
            checksum(fp, &payload),
        );
        std::fs::write(
            &path,
            format!("{}{line}", std::fs::read_to_string(&path).unwrap()),
        )
        .unwrap();
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.records.len(), 1);
        assert_eq!(view.stale, 1);
        assert_eq!(view.invalid, 0);
    }

    #[test]
    fn torn_tail_is_healed_on_next_append() {
        let path = scratch("torn.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        // Simulate a crash mid-write: drop the final newline and half the
        // last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        append_record(&path, &sample(2.0)).unwrap();
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.records.len(), 1, "torn line must not be served");
        assert_eq!(view.records[0].points_per_sec, 2.0);
        assert_eq!(view.invalid, 1);
    }

    #[test]
    fn missing_ledger_is_an_io_error() {
        let err = read_ledger(Path::new("/nonexistent/dir/LEDGER.jsonl")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn parser_rejects_nesting_arrays_and_garbage() {
        for text in [
            "",
            "{",
            "{}{}",
            "[1, 2]",
            "{\"a\": [1]}",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": true}",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
        ] {
            assert!(
                RunRecord::from_json(text).is_none(),
                "accepted malformed {text:?}"
            );
        }
        // An empty object parses as an object but has no fields.
        assert!(RunRecord::from_json("{}").is_none());
    }

    #[test]
    fn u64_fields_reject_negative_and_fractional_numbers() {
        let json = sample(1.0).to_json();
        for (bad, good) in [
            ("\"threads\":-2", "\"threads\":2"),
            ("\"threads\":2.5", "\"threads\":2"),
        ] {
            let mutated = json.replace(good, bad);
            assert_ne!(mutated, json);
            // The checksum layer would catch this first in a real file;
            // the parser alone must also refuse.
            assert!(RunRecord::from_json(&mutated).is_none(), "{bad}");
        }
    }

    #[test]
    fn fingerprint_tracks_schema_version() {
        // A fixed sanity pin: the fingerprint derives from the schema
        // constant, not from ambient state.
        assert_eq!(ledger_fingerprint(), ledger_fingerprint());
        assert_ne!(ledger_fingerprint(), 0);
    }
}
