//! The narrow dedup table marks empty slots with `u64::MAX`, which is also
//! a real row: the all-ones row of a 64-word closure. These tests pin that
//! the sentinel key behaves like any other key.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use gpu_sim::hashset::{CsSet, LockFreeU64Set};

#[test]
fn sentinel_key_membership_and_len_survive_grow() {
    let mut set = LockFreeU64Set::with_capacity(4);
    assert!(!set.contains(u64::MAX));
    assert!(set.insert(u64::MAX));
    assert!(!set.insert(u64::MAX));
    for key in 0..100u64 {
        if set.len() * 2 >= set.capacity() {
            set.grow();
        }
        assert!(set.insert(key), "key {key}");
    }
    assert_eq!(set.len(), 101);
    assert!(set.contains(u64::MAX));
    let capacity = set.capacity();
    set.grow();
    assert_eq!(set.capacity(), capacity * 2);
    assert_eq!(set.len(), 101);
    assert!(set.contains(u64::MAX));
    assert!(!set.insert(u64::MAX));
    assert!((0..100).all(|key| set.contains(key)));
    assert_eq!(set.overflowed(), 0);
}

#[test]
fn concurrent_sentinel_inserts_report_new_once() {
    let set = LockFreeU64Set::with_capacity(16);
    let fresh = AtomicUsize::new(0);
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                start.wait();
                if set.insert(u64::MAX) {
                    fresh.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(fresh.load(Ordering::Relaxed), 1);
    assert_eq!(set.len(), 1);
    assert!(set.contains(u64::MAX));
}

#[test]
fn narrow_cs_set_treats_the_all_ones_row_as_a_row() {
    let mut set = CsSet::new(1, 2);
    assert!(set.insert(&[u64::MAX]));
    assert!(!set.insert(&[u64::MAX]));
    for key in 0..50u64 {
        set.maybe_grow();
        assert!(set.insert(&[key]));
    }
    assert_eq!(set.len(), 51);
    assert!(set.contains(&[u64::MAX]));
}
