//! Crash-recovery integration tests: exhaustive torn-tail truncation,
//! the disk eviction bound through the public service, and — with
//! `--features failpoints` — a simulated kill-9 inside the shutdown
//! fold, all through the public facade.

use std::path::{Path, PathBuf};

use paresy::prelude::*;
use paresy::service::{replay, WalOptions, WalStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paresy-crash-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The property behind "a torn tail costs at most the torn record":
/// for EVERY byte offset of the tail segment, a recovery over the
/// truncated file loads exactly the records whose final newline
/// survived — no fewer (intact lines are never dropped) and no more (a
/// partial line never parses into a record).
#[test]
fn recovery_loads_exactly_the_records_whose_final_newline_survived() {
    let root = temp_dir("every-offset");
    {
        let (store, _) = WalStore::open(&root, "cfg", WalOptions::default()).unwrap();
        for i in 0..6 {
            assert!(store.append(&format!("spec-{i}"), "0*", i));
        }
        assert_eq!(store.segment_count(), 1, "one tail holds the workload");
    }
    // The single data segment is the only `NNNNN.jsonl` file.
    let tail = std::fs::read_dir(&root)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".jsonl") && !n.starts_with("checkpoint."))
        })
        .expect("the store has a data segment");
    let full = std::fs::read(&tail).unwrap();
    assert!(full.len() > 100, "six records span the file");

    for offset in 0..=full.len() {
        std::fs::write(&tail, &full[..offset]).unwrap();
        let survived = full[..offset].iter().filter(|b| **b == b'\n').count() as u64;
        let report = replay(&root, "cfg", 1);
        assert_eq!(
            report.loaded, survived,
            "offset {offset}: exactly the complete lines load"
        );
        assert!(
            report.skipped_corrupt <= 1,
            "offset {offset}: at most the one torn line is skipped"
        );
    }
    std::fs::write(&tail, &full).unwrap();
    std::fs::remove_dir_all(&root).ok();
}

fn tiny_specs(n: usize) -> Vec<Spec> {
    (1..=n)
        .map(|i| {
            let positive = format!("{i:b}");
            Spec::from_strs([positive.as_str()], []).unwrap()
        })
        .collect()
}

fn solve_all(service: &SynthService, specs: &[Spec]) {
    let handles: Vec<JobHandle> = specs
        .iter()
        .map(|spec| service.submit(SynthRequest::new(spec.clone())).unwrap())
        .collect();
    for handle in &handles {
        assert!(handle.wait().outcome.is_ok());
    }
}

/// Total bytes of the record-bearing files under a store root.
fn store_bytes(root: &Path) -> u64 {
    std::fs::read_dir(root)
        .unwrap()
        .flatten()
        .filter(|e| {
            e.path()
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("jsonl"))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

#[test]
fn the_disk_cap_bounds_bytes_and_counts_evictions_through_the_service() {
    let dir = temp_dir("evict");
    let cap = 1024;
    let config = || {
        ServiceConfig::new(1)
            .with_cache_dir(&dir)
            .with_wal(WalOptions {
                roll_bytes: 512,
                checkpoint_every: 2,
                disk_cap_bytes: Some(cap),
            })
    };
    let service = SynthService::start(config()).unwrap();
    solve_all(&service, &tiny_specs(40));
    let metrics = service.shutdown();
    assert!(metrics.disk_evicted > 0, "{metrics:?}");
    assert!(
        metrics.disk_bytes <= cap,
        "the fold left {} bytes over the {cap}-byte cap",
        metrics.disk_bytes
    );
    assert!(
        store_bytes(&dir.join("results")) <= cap,
        "the on-disk store honours the cap"
    );

    // The survivors — and only the survivors — warm a restart.
    let service = SynthService::start(config()).unwrap();
    let loaded = service.metrics().disk_loaded;
    assert!(loaded > 0, "some records survive the cap");
    assert!(loaded < 40, "eviction dropped the cold majority");
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault-injected kill-9 coverage through the public facade. The unit
/// suite walks every failpoint; here the end-to-end claim is checked:
/// a crash in the middle of the shutdown fold (after the checkpoint tmp
/// file is written, before its rename publishes it) loses no completed
/// result, and the manifest never references a half-written file.
#[cfg(feature = "failpoints")]
#[test]
fn a_crash_during_the_shutdown_fold_loses_no_completed_result() {
    use paresy::service::failpoint;
    use paresy::service::json::Json;

    let dir = temp_dir("fold-crash");
    let config = || ServiceConfig::new(1).with_cache_dir(&dir);
    let specs = tiny_specs(6);
    {
        let service = SynthService::start(config()).unwrap();
        solve_all(&service, &specs);
        // `shutdown` folds on the calling thread, so the thread-local
        // arming reaches it: the fold dies right before the rename.
        failpoint::arm("cache.checkpoint.rename", 1);
        service.shutdown();
        failpoint::clear();
    }

    // The manifest only ever names fully-written files.
    let root = dir.join("results");
    let manifest = Json::parse(&std::fs::read_to_string(root.join("MANIFEST.json")).unwrap())
        .expect("the manifest survives the crash intact");
    let mut referenced: Vec<String> = manifest
        .get("segments")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .map(|id| format!("{id:05}.jsonl"))
        .collect();
    // `checkpoint: 0` is the wire encoding of "no checkpoint".
    if let Some(id) = manifest
        .get("checkpoint")
        .and_then(Json::as_u64)
        .filter(|id| *id != 0)
    {
        referenced.push(format!("checkpoint.{id:05}.jsonl"));
    }
    for name in &referenced {
        assert!(!name.ends_with(".tmp"), "{name}");
        assert!(root.join(name).exists(), "{name} is referenced but absent");
    }

    // Every completed result is still recoverable: the crash cost at
    // most the unpublished checkpoint, never the history it folds.
    let service = SynthService::start(config()).unwrap();
    assert_eq!(service.metrics().disk_loaded, 6, "no acknowledged loss");
    let handles: Vec<JobHandle> = specs
        .iter()
        .map(|spec| service.submit(SynthRequest::new(spec.clone())).unwrap())
        .collect();
    for handle in &handles {
        let response = handle.wait();
        assert_eq!(response.source, ResponseSource::Cache);
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
