//! Integration tests of the persistent result cache: disk-warm restarts,
//! corrupt-tail tolerance, configuration mismatches and compaction,
//! through the public facade.
//!
//! A `--cache-dir` store is a *directory* — `MANIFEST.json`, numbered
//! `NNNNN.jsonl` segments and at most one `checkpoint.NNNNN.jsonl` — so
//! the damage these tests inflict targets whichever live file holds the
//! records after a clean shutdown (the checkpoint: `shutdown` folds all
//! history into one before exiting).

use std::path::{Path, PathBuf};

use paresy::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paresy-persist-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Root of the single-service store inside `--cache-dir DIR`.
fn store_root(dir: &Path) -> PathBuf {
    dir.join("results")
}

/// The record-bearing files of a store, sorted: the checkpoint (if any)
/// first, then segments in id order — the replay order.
fn live_files(root: &Path) -> Vec<PathBuf> {
    let mut checkpoints = Vec::new();
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(root).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("checkpoint.") && name.ends_with(".jsonl") {
            checkpoints.push(entry.path());
        } else if name.ends_with(".jsonl") {
            segments.push(entry.path());
        }
    }
    checkpoints.sort();
    segments.sort();
    checkpoints.extend(segments);
    checkpoints
}

/// The one file holding records after a clean shutdown (the fold leaves
/// a checkpoint plus an empty tail segment).
fn record_file(root: &Path) -> PathBuf {
    live_files(root)
        .into_iter()
        .find(|path| {
            std::fs::metadata(path)
                .map(|m| m.len() > 0)
                .unwrap_or(false)
        })
        .expect("a clean shutdown leaves a non-empty checkpoint")
}

fn specs() -> Vec<Spec> {
    vec![
        Spec::from_strs(["0", "00"], ["1", "10"]).unwrap(),
        Spec::from_strs(["1", "11", "111"], ["", "0", "10"]).unwrap(),
        Spec::from_strs(["10", "101", "100"], ["", "0", "1"]).unwrap(),
    ]
}

fn run_all(service: &SynthService, specs: &[Spec]) -> Vec<SynthResponse> {
    let handles: Vec<JobHandle> = specs
        .iter()
        .map(|spec| service.submit(SynthRequest::new(spec.clone())).unwrap())
        .collect();
    handles.iter().map(JobHandle::wait).collect()
}

#[test]
fn a_restarted_service_answers_repeats_from_disk_without_synthesis() {
    let dir = temp_dir("restart");
    let config = || ServiceConfig::new(1).with_cache_dir(&dir);

    // First process: solve everything cold and persist.
    let first = SynthService::start(config()).unwrap();
    let cold = run_all(&first, &specs());
    let costs: Vec<u64> = cold
        .iter()
        .map(|r| r.outcome.as_ref().expect("quick specs solve").cost)
        .collect();
    let metrics = first.shutdown();
    assert_eq!(metrics.disk_loaded, 0, "the first start is cold");
    assert_eq!(metrics.solved, 3);
    // The store is a manifest-led directory, not a single file.
    assert!(store_root(&dir).join("MANIFEST.json").exists());

    // Second process: the same requests are all disk-warm cache hits.
    let second = SynthService::start(config()).unwrap();
    let warm = run_all(&second, &specs());
    for (response, expected_cost) in warm.iter().zip(&costs) {
        assert_eq!(response.source, ResponseSource::Cache);
        let result = response.outcome.as_ref().unwrap();
        assert_eq!(result.cost, *expected_cost, "disk result keeps its cost");
    }
    let metrics = second.shutdown();
    assert_eq!(metrics.disk_loaded, 3);
    assert_eq!(metrics.cache_hits, 3);
    assert_eq!(
        metrics.workers.iter().map(|w| w.runs).sum::<u64>(),
        0,
        "the restarted service executed zero syntheses"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_truncated_record_file_degrades_to_a_cold_start() {
    let dir = temp_dir("truncated");
    let config = || ServiceConfig::new(1).with_cache_dir(&dir);
    {
        let service = SynthService::start(config()).unwrap();
        run_all(&service, &specs());
        service.shutdown();
    }
    // Cut the checkpoint mid-first-record, as a crash mid-write would:
    // nothing parses any more.
    let path = record_file(&store_root(&dir));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..20.min(text.len())]).unwrap();

    let service = SynthService::start(config()).expect("corrupt content is not a start error");
    let responses = run_all(&service, &specs());
    for response in &responses {
        assert_eq!(response.source, ResponseSource::Fresh, "cold start");
        assert!(response.outcome.is_ok());
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.disk_loaded, 0);
    assert!(metrics.disk_skipped_corrupt >= 1);
    assert_eq!(metrics.solved, 3, "everything re-ran normally");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_partially_truncated_tail_keeps_the_intact_records() {
    let dir = temp_dir("tail");
    let config = || ServiceConfig::new(1).with_cache_dir(&dir);
    {
        let service = SynthService::start(config()).unwrap();
        run_all(&service, &specs());
        service.shutdown();
    }
    // Keep every full line but chop the last record in half.
    let path = record_file(&store_root(&dir));
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    let mut mangled = lines[..2].join("\n");
    mangled.push('\n');
    mangled.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&path, mangled).unwrap();

    let service = SynthService::start(config()).unwrap();
    let metrics = service.metrics();
    assert_eq!(metrics.disk_loaded, 2, "the intact records still warm");
    assert_eq!(metrics.disk_skipped_corrupt, 1);
    let responses = run_all(&service, &specs());
    let from_cache = responses
        .iter()
        .filter(|r| r.source == ResponseSource::Cache)
        .count();
    assert_eq!(from_cache, 2);
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deleted_manifest_recovers_by_directory_scan() {
    let dir = temp_dir("scan");
    let config = || ServiceConfig::new(1).with_cache_dir(&dir);
    {
        let service = SynthService::start(config()).unwrap();
        run_all(&service, &specs());
        service.shutdown();
    }
    // Losing the manifest (or corrupting it) must not lose the records:
    // open falls back to adopting every segment the directory holds.
    std::fs::remove_file(store_root(&dir).join("MANIFEST.json")).unwrap();

    let service = SynthService::start(config()).unwrap();
    let metrics = service.metrics();
    assert_eq!(metrics.disk_loaded, 3, "the scan recovered every record");
    let responses = run_all(&service, &specs());
    assert!(responses.iter().all(|r| r.source == ResponseSource::Cache));
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_different_configuration_treats_persisted_records_as_misses() {
    let dir = temp_dir("config");
    {
        let service = SynthService::start(ServiceConfig::new(1).with_cache_dir(&dir)).unwrap();
        run_all(&service, &specs());
        service.shutdown();
    }
    // The same directory under a different cost function: every record
    // mismatches, so every request runs fresh.
    let other = SynthConfig::new(CostFn::new(2, 1, 5, 1, 1));
    let service =
        SynthService::start(ServiceConfig::new(1).with_cache_dir(&dir).with_synth(other)).unwrap();
    let responses = run_all(&service, &specs());
    for response in &responses {
        assert_eq!(response.source, ResponseSource::Fresh);
        assert!(response.outcome.is_ok());
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.disk_loaded, 0);
    assert_eq!(metrics.disk_skipped_config, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_folds_history_into_one_checkpoint_record_per_key() {
    let dir = temp_dir("compact");
    let config = || {
        ServiceConfig::new(1)
            .with_cache_capacity(2)
            .with_cache_dir(&dir)
    };
    {
        // Capacity 2 with 3 specs: the first completion is evicted, so a
        // repeat of it appends a *second* record for the same key.
        let service = SynthService::start(config()).unwrap();
        run_all(&service, &specs());
        let repeat = service
            .submit(SynthRequest::new(specs()[0].clone()))
            .unwrap();
        assert_eq!(repeat.source(), ResponseSource::Fresh, "evicted → re-run");
        assert!(repeat.wait().outcome.is_ok());
        service.shutdown();
    }
    // The shutdown fold keeps exactly the live entries (capacity 2) in
    // the checkpoint — one record per key, every line parseable.
    let root = store_root(&dir);
    let checkpoint = record_file(&root);
    assert!(
        checkpoint
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("checkpoint."),
        "{checkpoint:?}"
    );
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    assert_eq!(text.lines().count(), 2, "{text}");
    {
        let service = SynthService::start(config()).unwrap();
        let metrics = service.metrics();
        assert_eq!(metrics.disk_loaded, 2);
        assert_eq!(metrics.disk_skipped_corrupt, 0);
        service.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_pools_persist_into_separate_stores_and_rewarm() {
    let dir = temp_dir("router");
    let router_config = || RouterConfig::identical(2, ServiceConfig::new(1)).with_cache_dir(&dir);
    {
        let router = ShardRouter::start(router_config()).unwrap();
        let handles: Vec<JobHandle> = specs()
            .iter()
            .map(|spec| router.submit(SynthRequest::new(spec.clone())).unwrap())
            .collect();
        for handle in &handles {
            assert!(handle.wait().outcome.is_ok());
        }
        router.shutdown();
    }
    assert!(dir.join("pool-0").join("MANIFEST.json").exists());
    assert!(dir.join("pool-1").join("MANIFEST.json").exists());

    // The restarted router routes identically, so each shard finds its
    // own entries and the whole replay is disk-served.
    let router = ShardRouter::start(router_config()).unwrap();
    let handles: Vec<JobHandle> = specs()
        .iter()
        .map(|spec| router.submit(SynthRequest::new(spec.clone())).unwrap())
        .collect();
    for handle in &handles {
        let response = handle.wait();
        assert_eq!(response.source, ResponseSource::Cache);
        assert!(response.outcome.is_ok());
    }
    let rollup = router.shutdown().rollup();
    assert_eq!(rollup.cache_hits, 3);
    assert_eq!(rollup.disk_loaded, 3);
    assert_eq!(rollup.workers.iter().map(|w| w.runs).sum::<u64>(), 0);

    // Restarting with one pool more moves only the keys the new pool's
    // ring points capture. Warm the two stores with more specs first, so
    // that both outcomes occur.
    let mut all = specs();
    all.extend(
        [
            "0", "1", "01", "10", "11", "001", "010", "011", "100", "101", "110", "111",
        ]
        .iter()
        .map(|word| Spec::from_strs([*word], []).unwrap()),
    );
    let submit_all = |router: &ShardRouter| -> Vec<SynthResponse> {
        let handles: Vec<JobHandle> = all
            .iter()
            .map(|spec| router.submit(SynthRequest::new(spec.clone())).unwrap())
            .collect();
        handles.iter().map(JobHandle::wait).collect()
    };
    let router = ShardRouter::start(router_config()).unwrap();
    assert!(submit_all(&router).iter().all(|r| r.outcome.is_ok()));
    router.shutdown();

    let ring = |pools: usize| {
        let mut ring = HashRing::new();
        for index in 0..pools {
            ring.add(&format!("pool-{index}"));
        }
        ring
    };
    let (two, three) = (ring(2), ring(3));
    let router =
        ShardRouter::start(RouterConfig::identical(3, ServiceConfig::new(1)).with_cache_dir(&dir))
            .unwrap();
    let (mut kept, mut moved) = (0, 0);
    for (spec, response) in all.iter().zip(submit_all(&router)) {
        let key = ShardRouter::routing_key(&SynthRequest::new(spec.clone()));
        assert!(response.outcome.is_ok());
        if three.route(key) == two.route(key) {
            assert_eq!(response.source, ResponseSource::Cache, "{spec:?}");
            kept += 1;
        } else {
            assert_eq!(
                three.route(key),
                Some("pool-2"),
                "keys move only to the new pool"
            );
            assert_eq!(response.source, ResponseSource::Fresh, "{spec:?}");
            moved += 1;
        }
    }
    assert!(kept > 0 && moved > 0, "kept {kept}, moved {moved}");
    router.shutdown();
    assert!(dir.join("pool-2").join("MANIFEST.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}
