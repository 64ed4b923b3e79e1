//! Background compaction: the janitor thread and the cache-level fold
//! entry points.
//!
//! The service spawns one [`Janitor`] per cache; every tick it asks the
//! cache to [`maintain`](super::ResultCache::maintain) itself, which
//! folds history into a checkpoint when enough sealed segments piled up
//! or the disk cap is exceeded — *while serving*. Clean shutdown calls
//! [`compact`](super::ResultCache::compact) for an unconditional final
//! fold, so a gracefully stopped store is always exactly one checkpoint
//! plus an empty tail.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use super::ResultCache;

impl ResultCache {
    /// Folds persistent history if it is due (sealed-segment budget or
    /// disk cap exceeded); the janitor calls this every tick. Returns
    /// whether a fold ran.
    pub fn maintain(&self) -> bool {
        match &self.store {
            Some(store) if store.fold_due() => self.fold_into_checkpoint(),
            _ => false,
        }
    }

    /// Unconditionally folds history into a fresh checkpoint — the clean
    /// shutdown path (and the legacy `compact` entry point).
    pub fn compact(&self) {
        if self.store.is_some() {
            self.fold_into_checkpoint();
        }
    }

    fn fold_into_checkpoint(&self) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        // `live_lines` runs under the store lock (inside `fold`), after
        // taking the state lock. `complete` takes them in the opposite
        // *temporal* order but never holds both at once, so the only
        // nesting is here: store → state. No inversion, no deadlock —
        // and because `complete` inserts into memory before appending to
        // disk, every record the log holds is visible to the snapshot.
        let folded = store.fold(|| self.live_lines());
        if let Some(stats) = folded {
            rei_obs::log::info(
                "cache",
                "compacted history into a checkpoint",
                &[
                    ("kept", stats.kept.to_string()),
                    ("evicted", stats.evicted.to_string()),
                    ("disk_bytes", stats.disk_bytes.to_string()),
                ],
            );
        }
        folded.is_some()
    }
}

/// A stoppable background thread that periodically runs a maintenance
/// tick (cache folds, for now). Stopping joins the thread; dropping an
/// unstopped janitor stops it.
pub(crate) struct Janitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Janitor {
    /// Spawns the janitor, running `tick` every `interval` until
    /// [`stop`](Janitor::stop).
    pub fn start(interval: Duration, tick: impl Fn() + Send + 'static) -> Janitor {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("rei-cache-janitor".to_string())
            .spawn(move || {
                let (flag, alarm) = &*shared;
                loop {
                    {
                        let mut stopped = flag.lock().unwrap_or_else(|e| e.into_inner());
                        while !*stopped {
                            let (guard, timeout) = alarm
                                .wait_timeout(stopped, interval)
                                .unwrap_or_else(|e| e.into_inner());
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        if *stopped {
                            return;
                        }
                    }
                    // The flag lock is released while ticking, so stop()
                    // never waits on a fold in progress to request.
                    tick();
                }
            })
            .expect("spawning the cache janitor thread");
        Janitor {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it. Idempotent.
    pub fn stop(&mut self) {
        *self.stop.0.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.stop.1.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Janitor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::super::segment::WalOptions;
    use super::super::test_support::*;
    use super::super::{Lookup, ResultCache};
    use super::*;
    use crate::request::JobState;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn persistent_cache(root: &std::path::Path, options: WalOptions) -> ResultCache {
        let config = rei_core::SynthConfig::default();
        let (cache, _report) = ResultCache::persistent(64, root, &config, options).unwrap();
        cache
    }

    /// Completes a fresh synthesis for the key of positive example
    /// `positive`, asserting it was not already cached.
    fn complete_fresh(cache: &ResultCache, positive: &str, cost: u64) {
        let k = key(positive);
        let state = JobState::new(None);
        assert!(
            matches!(cache.lookup_or_reserve(&k, &state), Lookup::Miss),
            "fresh specs must miss"
        );
        cache.complete(&k, &result(cost));
    }

    #[test]
    fn maintain_folds_once_enough_segments_sealed() {
        let root = temp_root("maintain");
        let cache = persistent_cache(
            &root,
            WalOptions {
                roll_bytes: 96,
                checkpoint_every: 2,
                ..WalOptions::default()
            },
        );
        let mut sealed_enough = false;
        for i in 0..12u64 {
            complete_fresh(&cache, &format!("{i:b}"), i);
            if cache.disk_stats().unwrap().segments > 2 {
                sealed_enough = true;
            }
        }
        assert!(sealed_enough, "the workload sealed segments");
        assert!(cache.maintain(), "a due fold runs");
        assert_eq!(cache.disk_stats().unwrap().checkpoints, 1);
        assert!(!cache.maintain(), "nothing due right after a fold");
        cleanup(&root);
    }

    #[test]
    fn the_janitor_ticks_until_stopped() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ticks);
        let mut janitor = Janitor::start(Duration::from_millis(5), move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(ticks.load(Ordering::Relaxed) >= 3, "the janitor ticked");
        janitor.stop();
        let after = ticks.load(Ordering::Relaxed);
        thread::sleep(Duration::from_millis(25));
        assert_eq!(
            ticks.load(Ordering::Relaxed),
            after,
            "stopped means stopped"
        );
        janitor.stop(); // idempotent
    }

    #[test]
    fn compaction_keeps_hot_keys_hitting_while_bounding_disk() {
        let root = temp_root("bound");
        let cache = persistent_cache(
            &root,
            WalOptions {
                roll_bytes: 256,
                checkpoint_every: 1,
                disk_cap_bytes: Some(600),
            },
        );
        let hot = key("0");
        complete_fresh(&cache, "0", 1);
        // Sustained overwrite traffic: many cold keys, with the hot key
        // re-hit between folds so recency keeps it alive on disk.
        for i in 2..40u64 {
            complete_fresh(&cache, &format!("{i:b}"), i);
            assert!(
                matches!(
                    cache.lookup_or_reserve(&hot, &JobState::new(None)),
                    Lookup::Hit(_)
                ),
                "the hot key keeps hitting"
            );
            cache.maintain();
            let stats = cache.disk_stats().unwrap();
            if stats.checkpoints > 0 {
                assert!(
                    stats.bytes <= 600 + 256,
                    "disk stays near the cap after folds (bytes={})",
                    stats.bytes
                );
            }
        }
        let stats = cache.disk_stats().unwrap();
        assert!(stats.checkpoints >= 1, "folds ran under the cap");
        assert!(stats.evicted > 0, "cold records were evicted");
        // The hottest record survived every disk eviction: a cold
        // restart still knows it.
        let report = super::super::replay(&root, &rei_core::SynthConfig::default().to_string(), 1);
        assert!(
            report.loaded >= 1 && report.loaded < 39,
            "disk holds a bounded subset"
        );
        cleanup(&root);
    }
}
