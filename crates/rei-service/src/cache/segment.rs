//! The segmented write-ahead log: record and manifest formats, the
//! append path (with bounded retry), and segment sealing.
//!
//! A store is a directory:
//!
//! ```text
//! <root>/
//!   MANIFEST.json           {"schema":"rei-cache/manifest-v1",
//!                            "next":7,"checkpoint":4,"segments":[5,6]}
//!   checkpoint.00004.jsonl  fold of everything up to its creation
//!   00005.jsonl             sealed segment (fsync'd, never written again)
//!   00006.jsonl             the active tail — the only file appended to
//! ```
//!
//! Appends write one JSONL record (`{"spec","config","regex","cost"}`) to
//! the tail. When the tail reaches [`WalOptions::roll_bytes`] it is
//! *sealed*: `fsync` the file, create the next segment, then publish the
//! new manifest via tmp+`fsync`+rename+dir-`fsync` — the same discipline
//! every manifest and checkpoint write uses, so no crash can leave the
//! manifest naming a half-written file. A torn write can therefore only
//! ever corrupt the final record of the newest segment.
//!
//! Every open starts a fresh tail and leaves the previous one sealed
//! as-is; readers skip an unparsable final record, so a torn tail costs
//! exactly the record that lost its newline.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rei_core::SynthesisResult;

use super::recovery::{self, RecoveryReport};
use super::{CacheKey, DiskStats};
use crate::failpoint;
use crate::json::Json;

/// The manifest file name inside a store root.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST.json";
const MANIFEST_SCHEMA: &str = "rei-cache/manifest-v1";

/// Append attempts before a record is dropped with a warning.
const APPEND_ATTEMPTS: usize = 3;
/// Backoff between append attempts (transient-error smoothing, not a
/// throughput path: this only runs when a write just failed).
const APPEND_BACKOFF: [Duration; 2] = [Duration::from_millis(1), Duration::from_millis(5)];

/// Tuning knobs of the segmented store (see the module docs and
/// DESIGN.md "Durability").
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Tail size at which appends seal the segment and roll to a new one.
    pub roll_bytes: u64,
    /// Sealed-segment count at which the cache's maintenance pass folds
    /// history into a checkpoint.
    pub checkpoint_every: usize,
    /// Disk byte budget enforced at every fold by evicting
    /// least-recently-hit records first; `None` leaves disk unbounded.
    pub disk_cap_bytes: Option<u64>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            roll_bytes: 1 << 20,
            checkpoint_every: 8,
            disk_cap_bytes: None,
        }
    }
}

/// One persisted cache record, ready to write or just read.
pub(crate) struct Record {
    pub key: CacheKey,
    pub result: SynthesisResult,
}

impl Record {
    pub fn to_line(&self) -> String {
        line_of(
            self.key.spec(),
            self.key.config(),
            &self.result.regex.to_string(),
            self.result.cost,
        )
    }

    /// Parses one JSONL line. `Err` carries the reason for the warning.
    pub fn parse(line: &str) -> Result<Record, String> {
        let value = Json::parse(line).map_err(|err| err.to_string())?;
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let spec = field("spec")?.to_string();
        let config = field("config")?.to_string();
        let regex = rei_syntax::parse(field("regex")?).map_err(|err| err.to_string())?;
        let cost = value
            .get("cost")
            .and_then(Json::as_u64)
            .ok_or("missing integer field 'cost'")?;
        Ok(Record {
            key: CacheKey::from_parts(spec, config),
            result: SynthesisResult {
                regex,
                cost,
                stats: Default::default(),
            },
        })
    }
}

/// Renders one record line from raw parts (no trailing newline).
pub(crate) fn line_of(spec: &str, config: &str, regex: &str, cost: u64) -> String {
    Json::object([
        ("spec", Json::str(spec)),
        ("config", Json::str(config)),
        ("regex", Json::str(regex)),
        ("cost", Json::uint(cost)),
    ])
    .to_compact()
}

/// The file set of a store root, as published by `MANIFEST.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Id of the live checkpoint file, if one exists.
    pub checkpoint: Option<u64>,
    /// Live segment ids, ascending; the last one is the active tail.
    pub segments: Vec<u64>,
    /// The id the next created file (segment or checkpoint) takes.
    pub next: u64,
}

impl Manifest {
    pub fn empty() -> Manifest {
        Manifest {
            checkpoint: None,
            segments: Vec::new(),
            next: 1,
        }
    }

    /// The live data files, checkpoint first then segments ascending —
    /// exactly the replay order.
    pub fn live_files(&self, root: &Path) -> Vec<PathBuf> {
        self.checkpoint
            .iter()
            .map(|id| checkpoint_path(root, *id))
            .chain(self.segments.iter().map(|id| segment_path(root, *id)))
            .collect()
    }

    /// Reads `<root>/MANIFEST.json`. `Ok(None)` when the file does not
    /// exist; `Err` when it exists but cannot be read or parsed.
    pub fn load(root: &Path) -> Result<Option<Manifest>, String> {
        let path = root.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(format!("cannot read {}: {err}", path.display())),
        };
        let value = Json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
        if value.get("schema").and_then(Json::as_str) != Some(MANIFEST_SCHEMA) {
            return Err(format!("{}: unknown manifest schema", path.display()));
        }
        let next = value
            .get("next")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: missing 'next'", path.display()))?;
        let checkpoint = match value.get("checkpoint").and_then(Json::as_u64) {
            Some(0) | None => None,
            Some(id) => Some(id),
        };
        let segments = value
            .get("segments")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: missing 'segments'", path.display()))?
            .iter()
            .map(|id| {
                id.as_u64()
                    .ok_or_else(|| format!("{}: non-integer segment id", path.display()))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(Some(Manifest {
            checkpoint,
            segments,
            next: next.max(1),
        }))
    }

    /// Publishes the manifest atomically: write `MANIFEST.json.tmp`,
    /// `fsync` it, rename over `MANIFEST.json`, `fsync` the directory.
    pub fn store(&self, root: &Path) -> io::Result<()> {
        let text = Json::object([
            ("schema", Json::str(MANIFEST_SCHEMA)),
            ("next", Json::uint(self.next)),
            ("checkpoint", Json::uint(self.checkpoint.unwrap_or(0))),
            (
                "segments",
                Json::array(self.segments.iter().map(|id| Json::uint(*id))),
            ),
        ])
        .to_compact();
        let tmp = root.join(format!("{MANIFEST_FILE}.tmp"));
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, root.join(MANIFEST_FILE))?;
        sync_dir(root)
    }

    /// Best-effort reconstruction from the directory contents, for a
    /// missing or unreadable manifest: every `NNNNN.jsonl` becomes a live
    /// segment and the highest-numbered checkpoint file is adopted.
    pub fn scan(root: &Path) -> Manifest {
        let mut manifest = Manifest::empty();
        let Ok(entries) = fs::read_dir(root) else {
            return manifest;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".jsonl") else {
                continue;
            };
            if let Some(id) = stem.strip_prefix("checkpoint.") {
                if let Ok(id) = id.parse::<u64>() {
                    manifest.checkpoint = manifest.checkpoint.max(Some(id));
                }
            } else if let Ok(id) = stem.parse::<u64>() {
                manifest.segments.push(id);
            }
        }
        manifest.segments.sort_unstable();
        manifest.next = manifest
            .segments
            .last()
            .copied()
            .max(manifest.checkpoint)
            .unwrap_or(0)
            + 1;
        manifest
    }
}

/// Path of segment `id` inside `root`.
pub(crate) fn segment_path(root: &Path, id: u64) -> PathBuf {
    root.join(format!("{id:05}.jsonl"))
}

/// Path of checkpoint `id` inside `root`.
pub(crate) fn checkpoint_path(root: &Path, id: u64) -> PathBuf {
    root.join(format!("checkpoint.{id:05}.jsonl"))
}

/// `fsync` on a directory, making renames and file creations inside it
/// durable. A no-op on platforms where directories cannot be opened.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

fn open_segment(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new().create(true).append(true).open(path)
}

fn warn_io(message: &str, path: &Path, err: &dyn std::fmt::Display) {
    rei_obs::log::warn(
        "cache",
        message,
        &[
            ("path", path.display().to_string()),
            ("error", err.to_string()),
        ],
    );
}

pub(super) struct WalInner {
    pub manifest: Manifest,
    pub tail: fs::File,
    /// Bytes written to the tail so far (== its file length: every open
    /// and every roll starts a fresh, empty tail).
    pub tail_bytes: u64,
    /// Set when a *cut* failpoint simulated a crash: the store stops
    /// touching disk, exactly as a killed process would.
    pub dead: bool,
}

/// The disk side of a persistent cache: a segmented write-ahead log with
/// a manifest, checkpoints and crash-safe folds (see the module docs).
///
/// The type is public so benchmarks and recovery drills can build and
/// replay stores without a full service; the service's private
/// `ResultCache` is the primary consumer.
#[derive(Debug)]
pub struct WalStore {
    pub(crate) root: PathBuf,
    pub(crate) config_wire: String,
    pub(crate) options: WalOptions,
    pub(super) inner: Mutex<WalInner>,
    pub(crate) bytes: AtomicU64,
    pub(crate) append_errors: AtomicU64,
    pub(crate) evicted: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
}

impl std::fmt::Debug for WalInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalInner")
            .field("manifest", &self.manifest)
            .field("tail_bytes", &self.tail_bytes)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl WalStore {
    /// Opens (creating if needed) the store rooted at the directory
    /// `root`, recovering existing content and starting a fresh tail
    /// segment. Appended records carry `config_wire`; recovery filters
    /// replayed records to the same wire string.
    ///
    /// Content damage (torn tails, corrupt records, an unreadable
    /// manifest) degrades recovery with warnings; only an uncreatable or
    /// unwritable directory is an error.
    pub fn open(
        root: &Path,
        config_wire: &str,
        options: WalOptions,
    ) -> Result<(WalStore, RecoveryReport), String> {
        let (store, _records, report) = WalStore::open_with_records(root, config_wire, options)?;
        Ok((store, report))
    }

    /// [`open`](WalStore::open), additionally returning the recovered
    /// records (the service warms its in-memory cache from them).
    pub(crate) fn open_with_records(
        root: &Path,
        config_wire: &str,
        options: WalOptions,
    ) -> Result<(WalStore, Vec<Record>, RecoveryReport), String> {
        fs::create_dir_all(root)
            .map_err(|err| format!("cannot create cache directory {}: {err}", root.display()))?;
        let (mut manifest, authoritative) = match Manifest::load(root) {
            Ok(Some(manifest)) => (manifest, true),
            Ok(None) => (Manifest::scan(root), false),
            Err(reason) => {
                rei_obs::log::warn(
                    "cache",
                    "manifest unreadable; recovering from a directory scan",
                    &[("reason", reason)],
                );
                (Manifest::scan(root), false)
            }
        };
        // Replay on one thread per core, capped at the source count.
        let (records, mut report) = recovery::replay_sources(root, &manifest, config_wire, 0);
        if authoritative {
            clean_orphans(root, &manifest);
        }
        // Start a fresh tail: the previous tail (which may carry a torn
        // final record) stays sealed as-is and is never appended to again.
        let tail_id = manifest.next;
        let tail_path = segment_path(root, tail_id);
        let tail = open_segment(&tail_path)
            .map_err(|err| format!("cannot create cache segment {}: {err}", tail_path.display()))?;
        manifest.segments.push(tail_id);
        manifest.next = tail_id + 1;
        manifest
            .store(root)
            .map_err(|err| format!("cannot write cache manifest in {}: {err}", root.display()))?;
        let bytes = manifest
            .live_files(root)
            .iter()
            .filter_map(|path| fs::metadata(path).ok())
            .map(|meta| meta.len())
            .sum();
        report.loaded = records.len() as u64;
        let store = WalStore {
            root: root.to_path_buf(),
            config_wire: config_wire.to_string(),
            options,
            inner: Mutex::new(WalInner {
                manifest,
                tail,
                tail_bytes: 0,
                dead: false,
            }),
            bytes: AtomicU64::new(bytes),
            append_errors: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        };
        Ok((store, records, report))
    }

    pub(super) fn lock_inner(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one raw record under the store's own config wire string.
    /// Returns `false` when the record was dropped (exhausted retries or
    /// a simulated crash).
    pub fn append(&self, spec: &str, regex: &str, cost: u64) -> bool {
        self.append_line(line_of(spec, &self.config_wire, regex, cost))
    }

    pub(crate) fn append_record(&self, record: &Record) -> bool {
        self.append_line(record.to_line())
    }

    fn append_line(&self, mut line: String) -> bool {
        line.push('\n');
        let mut inner = self.lock_inner();
        if inner.dead {
            return false;
        }
        let mut attempt = 0;
        loop {
            attempt += 1;
            match write_line(&mut inner, &line) {
                Ok(()) => break,
                Err(WriteError::Crash) => {
                    inner.dead = true;
                    return false;
                }
                Err(WriteError::Io(err)) => {
                    // Truncate any partial write so a retry (or the next
                    // append) cannot fuse onto half a record.
                    let _ = inner.tail.set_len(inner.tail_bytes);
                    if attempt >= APPEND_ATTEMPTS {
                        self.append_errors.fetch_add(1, Ordering::Relaxed);
                        warn_io(
                            "dropping cache record after failed appends",
                            &segment_path(
                                &self.root,
                                *inner.manifest.segments.last().unwrap_or(&0),
                            ),
                            &err,
                        );
                        return false;
                    }
                    std::thread::sleep(APPEND_BACKOFF[(attempt - 1).min(APPEND_BACKOFF.len() - 1)]);
                }
            }
        }
        inner.tail_bytes += line.len() as u64;
        self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        if inner.tail_bytes >= self.options.roll_bytes {
            self.seal_and_roll(&mut inner);
        }
        true
    }

    /// Seals the current tail (if it holds any records) and rolls to a
    /// fresh segment, regardless of the size threshold.
    pub fn seal(&self) {
        let mut inner = self.lock_inner();
        if !inner.dead && inner.tail_bytes > 0 {
            self.seal_and_roll(&mut inner);
        }
    }

    /// The seal: `fsync` the full tail, create the successor segment,
    /// publish the manifest naming it. On any failure the store stays on
    /// the current tail and retries at the next append past the
    /// threshold.
    fn seal_and_roll(&self, inner: &mut WalInner) {
        if failpoint::cut("cache.seal.sync") {
            inner.dead = true;
            return;
        }
        if let Err(err) = inner.tail.sync_all() {
            warn_io("cannot sync segment for sealing", &self.root, &err);
            return;
        }
        if failpoint::cut("cache.seal.manifest") {
            inner.dead = true;
            return;
        }
        let id = inner.manifest.next;
        let path = segment_path(&self.root, id);
        let file = match open_segment(&path) {
            Ok(file) => file,
            Err(err) => {
                warn_io("cannot create next segment", &path, &err);
                return;
            }
        };
        let mut manifest = inner.manifest.clone();
        manifest.segments.push(id);
        manifest.next = id + 1;
        if let Err(err) = manifest.store(&self.root) {
            warn_io("cannot publish manifest for sealed segment", &path, &err);
            // The unpublished successor must not receive appends: an
            // unmanifested file full of records would be dropped as an
            // orphan on the next open.
            let _ = fs::remove_file(&path);
            return;
        }
        inner.manifest = manifest;
        inner.tail = file;
        inner.tail_bytes = 0;
    }

    /// True when history is due for a fold: enough sealed segments
    /// accumulated, or the disk cap is exceeded.
    pub(crate) fn fold_due(&self) -> bool {
        let sealed = self.lock_inner().manifest.segments.len().saturating_sub(1);
        if sealed >= self.options.checkpoint_every {
            return true;
        }
        matches!(self.options.disk_cap_bytes,
                 Some(cap) if self.bytes.load(Ordering::Relaxed) > cap)
    }

    /// Point-in-time disk gauges.
    pub(crate) fn disk_stats(&self) -> DiskStats {
        let segments = self.lock_inner().manifest.segments.len() as u64;
        DiskStats {
            bytes: self.bytes.load(Ordering::Relaxed),
            segments,
            append_errors: self.append_errors.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Live bytes on disk (checkpoint plus segments).
    pub fn disk_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of live segment files (sealed plus the active tail).
    pub fn segment_count(&self) -> usize {
        self.lock_inner().manifest.segments.len()
    }
}

enum WriteError {
    /// A *cut* failpoint simulated a crash mid-operation.
    Crash,
    Io(io::Error),
}

fn write_line(inner: &mut WalInner, line: &str) -> Result<(), WriteError> {
    if let Some(err) = failpoint::io_error("cache.append.io") {
        return Err(WriteError::Io(err));
    }
    if failpoint::cut("cache.append.torn") {
        // Half the record reaches the file, then the "process dies".
        let _ = inner.tail.write_all(&line.as_bytes()[..line.len() / 2]);
        let _ = inner.tail.flush();
        return Err(WriteError::Crash);
    }
    inner
        .tail
        .write_all(line.as_bytes())
        .map_err(WriteError::Io)?;
    inner.tail.flush().map_err(WriteError::Io)
}

/// Deletes data files the manifest does not reference: tmp files and
/// segments/checkpoints a crash left behind mid-fold. Safe because every
/// file is created *before* the manifest that names it is published, so
/// an unreferenced file never holds the only copy of a record.
fn clean_orphans(root: &Path, manifest: &Manifest) {
    let live: Vec<PathBuf> = manifest.live_files(root);
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == MANIFEST_FILE || (!name.ends_with(".jsonl") && !name.ends_with(".tmp")) {
            continue;
        }
        if live.iter().any(|keep| keep == &path) {
            continue;
        }
        rei_obs::log::info(
            "cache",
            "removing orphaned cache file",
            &[("path", path.display().to_string())],
        );
        let _ = fs::remove_file(&path);
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    fn open_store(root: &Path, options: WalOptions) -> (WalStore, RecoveryReport) {
        WalStore::open(root, "cfg", options).unwrap()
    }

    fn tiny_roll() -> WalOptions {
        WalOptions {
            roll_bytes: 96,
            ..WalOptions::default()
        }
    }

    #[test]
    fn appends_roll_into_sealed_segments_at_the_threshold() {
        let root = temp_root("roll");
        let (store, report) = open_store(&root, tiny_roll());
        assert_eq!(report.loaded, 0);
        for i in 0..6 {
            assert!(store.append(&format!("spec-{i}"), "0*", i));
        }
        assert!(
            store.segment_count() > 1,
            "96-byte rolls over 6 records must seal at least one segment"
        );
        let manifest = Manifest::load(&root).unwrap().unwrap();
        assert_eq!(manifest.segments.len(), store.segment_count());
        for id in &manifest.segments {
            assert!(
                segment_path(&root, *id).exists(),
                "manifest names real files"
            );
        }
        // A fresh open replays everything from the sealed layout.
        drop(store);
        let (_store, report) = open_store(&root, tiny_roll());
        assert_eq!(report.loaded, 6);
        assert_eq!(report.skipped_corrupt, 0);
        assert!(
            report.segments >= 2,
            "recovery replayed the sealed segments"
        );
        cleanup(&root);
    }

    #[test]
    fn manifest_round_trips_and_scan_reconstructs_it() {
        let root = temp_root("manifest");
        fs::create_dir_all(&root).unwrap();
        let manifest = Manifest {
            checkpoint: Some(3),
            segments: vec![4, 5],
            next: 6,
        };
        manifest.store(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap().unwrap(), manifest);
        // Scan rebuilds the same picture from the files alone.
        fs::write(checkpoint_path(&root, 3), "").unwrap();
        fs::write(segment_path(&root, 4), "").unwrap();
        fs::write(segment_path(&root, 5), "").unwrap();
        fs::remove_file(root.join(MANIFEST_FILE)).unwrap();
        assert_eq!(Manifest::scan(&root), manifest);
        cleanup(&root);
    }

    #[test]
    fn a_corrupt_manifest_falls_back_to_the_directory_scan() {
        let root = temp_root("badmanifest");
        {
            let (store, _) = open_store(&root, WalOptions::default());
            assert!(store.append("spec-a", "0*", 1));
        }
        fs::write(root.join(MANIFEST_FILE), "not json at all").unwrap();
        let (_store, report) = open_store(&root, WalOptions::default());
        assert_eq!(report.loaded, 1, "scan recovery still finds the record");
        cleanup(&root);
    }

    #[test]
    fn orphaned_files_are_removed_on_open() {
        let root = temp_root("orphans");
        {
            let (store, _) = open_store(&root, WalOptions::default());
            assert!(store.append("spec-a", "0*", 1));
        }
        // A crash mid-fold can leave tmp files and unmanifested segments.
        fs::write(root.join("checkpoint.00099.jsonl.tmp"), "half").unwrap();
        fs::write(segment_path(&root, 99), "").unwrap();
        let (_store, report) = open_store(&root, WalOptions::default());
        assert_eq!(report.loaded, 1);
        assert!(!root.join("checkpoint.00099.jsonl.tmp").exists());
        assert!(!segment_path(&root, 99).exists());
        cleanup(&root);
    }

    #[test]
    fn a_single_file_at_the_store_path_fails_the_open() {
        let root = temp_root("single-file").join("results");
        fs::create_dir_all(root.parent().unwrap()).unwrap();
        fs::write(&root, format!("{}\n", line_of("spec", "cfg", "0*", 7))).unwrap();
        let err = WalStore::open(&root, "cfg", WalOptions::default()).unwrap_err();
        assert!(err.starts_with("cannot create cache directory"), "{err}");
        assert!(root.is_file(), "the file is left untouched");
        cleanup(root.parent().unwrap());
    }

    #[test]
    fn torn_tail_records_cost_exactly_one_record() {
        let root = temp_root("torn");
        {
            let (store, _) = open_store(&root, WalOptions::default());
            assert!(store.append("spec-a", "0*", 1));
            assert!(store.append("spec-b", "0*", 2));
        }
        // Tear the newest segment mid-record, as a crash mid-write would.
        let manifest = Manifest::load(&root).unwrap().unwrap();
        let tail = segment_path(&root, *manifest.segments.last().unwrap());
        // The freshly rolled tail is empty; the records live in the
        // previous segment. Find the file that actually has content.
        let data: Vec<PathBuf> = manifest
            .live_files(&root)
            .into_iter()
            .filter(|p| fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .collect();
        assert_eq!(data.len(), 1);
        let text = fs::read_to_string(&data[0]).unwrap();
        fs::write(&data[0], &text[..text.len() - 9]).unwrap();
        let _ = tail;
        let (_store, report) = open_store(&root, WalOptions::default());
        assert_eq!(report.loaded, 1, "the intact record survives");
        assert_eq!(report.skipped_corrupt, 1, "the torn record is counted");
        cleanup(&root);
    }

    #[test]
    fn appends_after_a_torn_tail_land_in_a_fresh_segment() {
        let root = temp_root("fresh-tail");
        {
            let (store, _) = open_store(&root, WalOptions::default());
            assert!(store.append("spec-a", "0*", 1));
        }
        // Strip the final newline: the old layout would have fused the
        // next append onto this partial tail.
        let manifest = Manifest::load(&root).unwrap().unwrap();
        let data = segment_path(&root, manifest.segments[0]);
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, &text[..text.len() - 9]).unwrap();
        {
            let (store, _) = open_store(&root, WalOptions::default());
            assert!(store.append("spec-b", "0*", 2));
        }
        let (_store, report) = open_store(&root, WalOptions::default());
        assert_eq!(report.loaded, 1, "only the new record parses");
        assert_eq!(
            report.skipped_corrupt, 1,
            "the torn record stays lost, alone"
        );
        cleanup(&root);
    }

    #[test]
    fn record_lines_round_trip() {
        let k = key("0");
        let record = Record {
            key: k.clone(),
            result: result(7),
        };
        let parsed = Record::parse(&record.to_line()).unwrap();
        assert_eq!(parsed.key, k);
        assert_eq!(parsed.result.cost, 7);
        assert!(Record::parse("{\"spec\": \"x\"").is_err());
        assert!(
            Record::parse("{\"spec\": \"s\", \"config\": \"c\", \"regex\": \"+++\", \"cost\": 1}")
                .is_err(),
            "an unparsable regex is corrupt"
        );
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod failpoint_tests {
    use super::super::test_support::*;
    use super::*;
    use crate::failpoint;

    fn open_store(root: &Path, options: WalOptions) -> (WalStore, RecoveryReport) {
        WalStore::open(root, "cfg", options).unwrap()
    }

    #[test]
    fn transient_append_errors_are_retried_with_backoff() {
        let root = temp_root("fp-retry");
        let (store, _) = open_store(&root, WalOptions::default());
        // Two transient failures, then success: the record survives and
        // nothing is counted as dropped.
        failpoint::arm("cache.append.io", 2);
        assert!(store.append("spec-a", "0*", 1));
        assert_eq!(store.disk_stats().append_errors, 0);
        // Three failures exhaust the attempts: dropped and counted.
        failpoint::arm("cache.append.io", 3);
        assert!(!store.append("spec-b", "0*", 2));
        assert_eq!(store.disk_stats().append_errors, 1);
        failpoint::clear();
        drop(store);
        let (_store, report) = open_store(&root, WalOptions::default());
        assert_eq!(report.loaded, 1, "the retried record persisted");
        cleanup(&root);
    }

    #[test]
    fn a_torn_append_loses_only_the_torn_record() {
        let root = temp_root("fp-torn");
        let (store, _) = open_store(&root, WalOptions::default());
        assert!(store.append("spec-a", "0*", 1));
        failpoint::arm("cache.append.torn", 1);
        assert!(
            !store.append("spec-b", "0*", 2),
            "the torn append reports loss"
        );
        failpoint::clear();
        drop(store);
        let (_store, report) = open_store(&root, WalOptions::default());
        assert_eq!(
            report.loaded, 1,
            "the earlier record survives the torn tail"
        );
        assert_eq!(report.skipped_corrupt, 1);
        cleanup(&root);
    }

    #[test]
    fn a_crash_during_seal_loses_no_appended_record() {
        let root = temp_root("fp-seal");
        let options = WalOptions {
            roll_bytes: 64,
            ..WalOptions::default()
        };
        for point in ["cache.seal.sync", "cache.seal.manifest"] {
            let sub = root.join(point.replace('.', "-"));
            let (store, _) = open_store(&sub, options.clone());
            // The second append crosses 64 bytes and triggers the seal,
            // where the armed point simulates the crash.
            failpoint::arm(point, 1);
            assert!(store.append("spec-a", "0*", 1));
            assert!(store.append("spec-b", "0*", 2));
            failpoint::clear();
            drop(store);
            let (_store, report) = open_store(&sub, options.clone());
            assert_eq!(
                report.loaded, 2,
                "both acknowledged records survive a crash at {point}"
            );
        }
        cleanup(&root);
    }
}
