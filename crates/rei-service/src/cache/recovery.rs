//! Parallel log replay: rebuilding the in-memory picture from a store
//! directory after a restart — clean or not.
//!
//! Recovery reads the checkpoint (if any) and every segment the manifest
//! names. Sources are parsed on up to N threads (one source per thread,
//! striped), then merged in source order with last-record-wins per key,
//! so the result is byte-for-byte what a serial front-to-back replay
//! would produce. Parsing tolerates everything short of an unreadable
//! directory: corrupt lines (torn tails), non-UTF-8 bytes and records
//! from a different synthesis config are counted, warned about once per
//! source, and skipped.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use super::segment::{Manifest, Record};
use super::CacheKey;

/// What one recovery pass found and how long it took. Returned by the
/// persistent cache open (`ResultCache::persistent`) and by the
/// standalone [`replay`]; surfaced in service metrics and timed by the
/// recovery gate of `reproduce check`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Wall-clock time of the replay (parse + merge).
    pub wall: Duration,
    /// Segment files replayed.
    pub segments: usize,
    /// Whether a checkpoint file was replayed ahead of the segments.
    pub checkpoint: bool,
    /// Threads the replay actually used.
    pub threads: usize,
    /// Records parsed successfully across all sources (before the
    /// last-wins merge and config filtering).
    pub records: u64,
    /// Distinct records loaded after merging (config-matching, last
    /// occurrence wins).
    pub loaded: u64,
    /// Lines skipped because they did not parse (torn or damaged).
    pub skipped_corrupt: u64,
    /// Records skipped because they were written under a different
    /// synthesis config.
    pub skipped_config: u64,
}

impl RecoveryReport {
    /// Total files replayed: segments plus the checkpoint.
    pub fn sources(&self) -> usize {
        self.segments + usize::from(self.checkpoint)
    }
}

/// Replays the store at `root` read-only and reports what a recovery
/// with `threads` replay threads (0 = one per core) would load for
/// `config_wire`, without opening the store or mutating any file.
/// Benchmarks use this to time serial vs parallel recovery on the same
/// directory.
pub fn replay(root: &Path, config_wire: &str, threads: usize) -> RecoveryReport {
    let manifest = match Manifest::load(root) {
        Ok(Some(manifest)) => manifest,
        _ => Manifest::scan(root),
    };
    let (_records, report) = replay_sources(root, &manifest, config_wire, threads);
    report
}

/// Tally of one parsed source file.
struct SourceTally {
    records: u64,
    skipped_corrupt: u64,
    skipped_config: u64,
}

/// Parses one source file, keeping records whose config matches
/// `config_wire`. Mirrors the append format bytes-for-bytes; damage is
/// tallied, never fatal.
fn parse_source(path: &Path, config_wire: &str) -> (Vec<Record>, SourceTally) {
    let mut records = Vec::new();
    let mut tally = SourceTally {
        records: 0,
        skipped_corrupt: 0,
        skipped_config: 0,
    };
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) => {
            if err.kind() != io::ErrorKind::NotFound {
                rei_obs::log::warn(
                    "cache",
                    "cannot read cache source; skipping it",
                    &[
                        ("path", path.display().to_string()),
                        ("error", err.to_string()),
                    ],
                );
            }
            return (records, tally);
        }
    };
    // Lossy conversion keeps the line structure even around non-UTF-8
    // damage; the affected lines then fail to parse and are counted.
    let text = String::from_utf8_lossy(&bytes);
    // Only newline-terminated lines are records: an unterminated tail is
    // a torn write even when it happens to parse (the record was never
    // acknowledged as durable), so recovery loads exactly the records
    // whose final newline survived.
    let (complete, torn) = match text.rfind('\n') {
        Some(end) => text.split_at(end + 1),
        None => ("", text.as_ref()),
    };
    if !torn.trim().is_empty() {
        tally.skipped_corrupt += 1;
        rei_obs::log::warn(
            "cache",
            "skipping torn unterminated tail record",
            &[("path", path.display().to_string())],
        );
    }
    for line in complete.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match Record::parse(line) {
            Ok(record) => {
                tally.records += 1;
                if record.key.config() == config_wire {
                    records.push(record);
                } else {
                    tally.skipped_config += 1;
                }
            }
            Err(reason) => {
                tally.skipped_corrupt += 1;
                rei_obs::log::warn(
                    "cache",
                    "skipping corrupt cache record",
                    &[("path", path.display().to_string()), ("reason", reason)],
                );
            }
        }
    }
    (records, tally)
}

/// Replays every live source of `manifest`, in parallel when there are
/// several, and merges them in source order with last-record-wins.
/// Returns the surviving records in their final-occurrence order (oldest
/// first), which preserves the cache's FIFO-eviction warm order.
pub(crate) fn replay_sources(
    root: &Path,
    manifest: &Manifest,
    config_wire: &str,
    threads: usize,
) -> (Vec<Record>, RecoveryReport) {
    let start = Instant::now();
    let sources: Vec<PathBuf> = manifest.live_files(root);
    let mut report = RecoveryReport {
        segments: manifest.segments.len(),
        checkpoint: manifest.checkpoint.is_some(),
        ..RecoveryReport::default()
    };
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(sources.len())
    .max(1);
    report.threads = threads;

    let mut parsed: Vec<Option<(Vec<Record>, SourceTally)>> =
        sources.iter().map(|_| None).collect();
    if threads <= 1 {
        for (slot, path) in parsed.iter_mut().zip(&sources) {
            *slot = Some(parse_source(path, config_wire));
        }
    } else {
        // One worker per thread, sources striped across workers: worker
        // `t` parses sources t, t+threads, t+2·threads, …
        std::thread::scope(|scope| {
            let sources = &sources;
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = t;
                        while i < sources.len() {
                            out.push((i, parse_source(&sources[i], config_wire)));
                            i += threads;
                        }
                        out
                    })
                })
                .collect();
            for worker in workers {
                for (i, result) in worker.join().expect("cache replay worker panicked") {
                    parsed[i] = Some(result);
                }
            }
        });
    }

    // Merge in source order; a key's later occurrence replaces the
    // earlier one *at the later position*, matching serial replay.
    let mut merged: Vec<Option<Record>> = Vec::new();
    let mut last_at: HashMap<CacheKey, usize> = HashMap::new();
    for slot in parsed {
        let (records, tally) = slot.expect("every source was parsed");
        report.records += tally.records;
        report.skipped_corrupt += tally.skipped_corrupt;
        report.skipped_config += tally.skipped_config;
        for record in records {
            if let Some(at) = last_at.insert(record.key.clone(), merged.len()) {
                merged[at] = None;
            }
            merged.push(Some(record));
        }
    }
    let records: Vec<Record> = merged.into_iter().flatten().collect();
    report.loaded = records.len() as u64;
    report.wall = start.elapsed();
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::super::segment::{WalOptions, WalStore};
    use super::super::test_support::*;
    use super::*;

    /// Builds a store with `n` records spread over several sealed
    /// segments, then cleanly drops it (no fold: `WalStore` alone has no
    /// janitor).
    fn seeded_store(root: &Path, n: usize) {
        let (store, _) = WalStore::open(
            root,
            "cfg",
            WalOptions {
                roll_bytes: 128,
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..n {
            assert!(store.append(&format!("spec-{i}"), "0*", i as u64));
        }
        assert!(
            store.segment_count() >= 4,
            "the workload must span segments"
        );
    }

    #[test]
    fn parallel_replay_equals_serial_replay() {
        let root = temp_root("parallel");
        seeded_store(&root, 40);
        let serial = replay(&root, "cfg", 1);
        let parallel = replay(&root, "cfg", 4);
        assert_eq!(serial.threads, 1);
        assert!(parallel.threads > 1);
        assert_eq!(serial.loaded, 40);
        assert_eq!(parallel.loaded, serial.loaded);
        assert_eq!(parallel.records, serial.records);
        assert_eq!(parallel.segments, serial.segments);
        cleanup(&root);
    }

    #[test]
    fn merge_is_last_record_wins_in_segment_order() {
        let root = temp_root("lastwins");
        {
            let (store, _) = WalStore::open(
                root.as_path(),
                "cfg",
                WalOptions {
                    roll_bytes: 128,
                    ..WalOptions::default()
                },
            )
            .unwrap();
            // The same spec written repeatedly with rising cost across
            // segment boundaries: only the last write may survive.
            for cost in 1..=9 {
                assert!(store.append("spec-dup", "0*", cost));
            }
            assert!(store.append("spec-other", "0*", 100));
        }
        let manifest = Manifest::load(&root).unwrap().unwrap();
        let (records, report) = replay_sources(&root, &manifest, "cfg", 4);
        assert_eq!(report.loaded, 2);
        let dup = records
            .iter()
            .find(|r| r.key.spec() == "spec-dup")
            .expect("the duplicated key survives");
        assert_eq!(dup.result.cost, 9, "the newest write wins");
        cleanup(&root);
    }

    #[test]
    fn replay_is_read_only() {
        let root = temp_root("readonly");
        seeded_store(&root, 12);
        let listing = || {
            let mut files: Vec<_> = std::fs::read_dir(&root)
                .unwrap()
                .flatten()
                .map(|e| (e.path(), e.metadata().unwrap().len()))
                .collect();
            files.sort();
            files
        };
        let before = listing();
        let report = replay(&root, "cfg", 0);
        assert_eq!(report.loaded, 12);
        assert_eq!(before, listing(), "replay must not touch the store");
        cleanup(&root);
    }

    #[test]
    fn foreign_config_records_are_filtered_not_fatal() {
        let root = temp_root("foreign");
        {
            let (store, _) = WalStore::open(&root, "cfg-a", WalOptions::default()).unwrap();
            assert!(store.append("spec-a", "0*", 1));
        }
        {
            let (store, _) = WalStore::open(&root, "cfg-b", WalOptions::default()).unwrap();
            assert!(store.append("spec-b", "1*", 2));
        }
        let report = replay(&root, "cfg-b", 1);
        assert_eq!(report.loaded, 1);
        assert_eq!(report.skipped_config, 1);
        assert_eq!(report.records, 2);
        cleanup(&root);
    }

    #[test]
    fn non_utf8_damage_costs_only_the_damaged_lines() {
        let root = temp_root("nonutf8");
        {
            let (store, _) = WalStore::open(&root, "cfg", WalOptions::default()).unwrap();
            assert!(store.append("spec-a", "0*", 1));
            assert!(store.append("spec-b", "0*", 2));
        }
        let manifest = Manifest::load(&root).unwrap().unwrap();
        let data = super::super::segment::segment_path(&root, manifest.segments[0]);
        let mut bytes = std::fs::read(&data).unwrap();
        // Stomp bytes in the middle of the first record.
        for b in bytes.iter_mut().take(12).skip(8) {
            *b = 0xFF;
        }
        std::fs::write(&data, &bytes).unwrap();
        let report = replay(&root, "cfg", 1);
        assert_eq!(report.loaded, 1, "the undamaged record survives");
        assert_eq!(report.skipped_corrupt, 1);
        cleanup(&root);
    }
}
