//! WarpCore-style concurrent hash sets for the global uniqueness check.
//!
//! The paper removes duplicate characteristic sequences as soon as they are
//! constructed, using the WarpCore GPU hash set for 32/64-bit keys on the
//! GPU and `std::unordered_set` on the CPU. This module provides the same
//! two roles:
//!
//! * [`LockFreeU64Set`] — an insert-only, open-addressing, lock-free hash
//!   set for single 64-bit keys (characteristic sequences that fit in one
//!   machine word, the common case for the paper's benchmarks, which are
//!   limited to 64-bit CSs on the GPU). It is a single array of keys:
//!   `u64::MAX` marks an empty slot, one compare-and-swap of the key
//!   itself claims and publishes a slot, and the one row that equals the
//!   sentinel (the all-ones row of a 64-word closure) is a flag instead.
//! * [`ShardedSet`] — an exact, sharded (mutex-per-shard) set for
//!   multi-word keys, playing the role of the CPU hash set.
//! * [`CsSet`] — a façade that picks the appropriate implementation from
//!   the row width and exposes the single operation the synthesiser needs:
//!   `insert(row) -> bool` ("was this row new?").

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Multiplicative hashing constant (Fibonacci hashing, as used by many GPU
/// hash tables including WarpCore's default probing schemes).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes a 64-bit value (splitmix64 finaliser).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a multi-word row to a 64-bit value.
#[inline]
pub fn hash_row(row: &[u64]) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325;
    for &block in row {
        acc = mix64(acc ^ block);
    }
    acc
}

/// The key an empty slot holds. It is a real row only on a closure of
/// exactly 64 words (the all-ones row), so it is tracked by a flag.
const EMPTY_KEY: u64 = u64::MAX;

/// An insert-only, lock-free, open-addressing hash set for `u64` keys.
///
/// The table is one array of keys with a fixed capacity chosen at
/// construction time. An empty slot holds `u64::MAX`; insertion probes
/// linearly and claims an empty slot with one compare-and-swap of the key
/// itself, so a probe reads one cache line and a published key is visible
/// the moment it is claimed. The key `u64::MAX` never takes a slot: its
/// membership is a separate flag. When the table becomes full, further
/// insertions are counted in [`LockFreeU64Set::overflowed`] and reported
/// as unique; the synthesiser sizes the table from its memory budget so
/// this only happens after the language cache itself is full.
///
/// # Example
///
/// ```
/// use gpu_sim::hashset::LockFreeU64Set;
///
/// let set = LockFreeU64Set::with_capacity(100);
/// assert!(set.insert(42));
/// assert!(!set.insert(42));
/// assert!(set.insert(u64::MAX));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug)]
pub struct LockFreeU64Set {
    keys: Vec<AtomicU64>,
    has_empty_key: AtomicBool,
    mask: usize,
    len: AtomicUsize,
    overflowed: AtomicUsize,
}

impl LockFreeU64Set {
    /// Creates a set able to hold at least `capacity` keys at a load factor
    /// of at most 50 %.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(1) * 2).next_power_of_two();
        LockFreeU64Set {
            keys: (0..slots).map(|_| AtomicU64::new(EMPTY_KEY)).collect(),
            has_empty_key: AtomicBool::new(false),
            mask: slots - 1,
            len: AtomicUsize::new(0),
            overflowed: AtomicUsize::new(0),
        }
    }

    /// Number of slots in the table.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of insertions that could not be recorded because the table
    /// was full (they were reported as unique).
    pub fn overflowed(&self) -> usize {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Doubles the table size, re-inserting all stored keys. Requires
    /// exclusive access; concurrent inserters must be quiescent, which is
    /// the case for the synthesiser's per-level uniqueness pass.
    pub fn grow(&mut self) {
        let bigger = LockFreeU64Set::with_capacity(self.capacity());
        for key in &mut self.keys {
            let key = *key.get_mut();
            if key != EMPTY_KEY {
                bigger.insert(key);
            }
        }
        if *self.has_empty_key.get_mut() {
            bigger.insert(EMPTY_KEY);
        }
        *self = bigger;
    }

    /// Inserts `key`, returning `true` if it was not present before.
    pub fn insert(&self, key: u64) -> bool {
        if key == EMPTY_KEY {
            let fresh = !self.has_empty_key.swap(true, Ordering::AcqRel);
            if fresh {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            return fresh;
        }
        // The claiming CAS (AcqRel) pairs with the Acquire loads of later
        // probes. A slot publishes only its own key, which is written whole
        // by the CAS, so no probe can see a half-published slot.
        let mut idx = (mix64(key) as usize) & self.mask;
        for _ in 0..self.keys.len() {
            let mut held = self.keys[idx].load(Ordering::Acquire);
            if held == EMPTY_KEY {
                match self.keys[idx].compare_exchange(
                    EMPTY_KEY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.len.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    // Lost the race: the winner's key now holds the slot.
                    Err(winner) => held = winner,
                }
            }
            if held == key {
                return false;
            }
            idx = (idx + 1) & self.mask;
        }
        self.overflowed.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Returns `true` if `key` has been inserted.
    pub fn contains(&self, key: u64) -> bool {
        if key == EMPTY_KEY {
            return self.has_empty_key.load(Ordering::Acquire);
        }
        let mut idx = (mix64(key) as usize) & self.mask;
        for _ in 0..self.keys.len() {
            match self.keys[idx].load(Ordering::Acquire) {
                EMPTY_KEY => return false,
                held if held == key => return true,
                _ => idx = (idx + 1) & self.mask,
            }
        }
        false
    }
}

/// A pass-through hasher for keys that already *are* [`hash_row`]
/// outputs: re-mixing a well-mixed 64-bit value through SipHash would
/// hash every row twice.
#[derive(Default)]
struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach these maps (their `Hash` impl calls
        // `write_u64`); fold any other input conservatively so the hasher
        // stays total.
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }
}

/// The rows sharing one [`hash_row`] value. Collisions are vanishingly
/// rare, so the first row is stored inline — one allocation per unique
/// row, exactly like the plain `HashSet<Box<[u64]>>` it replaced — and
/// only an actual collision upgrades the bucket to a `Vec`.
#[derive(Debug)]
enum Bucket {
    /// The common case: one row owns this hash.
    One(Box<[u64]>),
    /// Two or more distinct rows collided on the hash.
    Many(Vec<Box<[u64]>>),
}

impl Bucket {
    fn contains(&self, row: &[u64]) -> bool {
        match self {
            Bucket::One(stored) => &**stored == row,
            Bucket::Many(rows) => rows.iter().any(|stored| &**stored == row),
        }
    }

    /// Adds `row` to the bucket, returning `false` if it was present.
    fn push_if_new(&mut self, row: &[u64]) -> bool {
        match self {
            Bucket::One(stored) => {
                if &**stored == row {
                    return false;
                }
                let first = std::mem::take(stored);
                *self = Bucket::Many(vec![first, row.into()]);
                true
            }
            Bucket::Many(rows) => {
                if rows.iter().any(|stored| &**stored == row) {
                    return false;
                }
                rows.push(row.into());
                true
            }
        }
    }
}

/// One shard of a [`ShardedSet`]: the caller-visible [`hash_row`] value
/// to the (almost always singleton) bucket of distinct rows sharing it,
/// keyed without re-hashing.
type Shard = Mutex<HashMap<u64, Bucket, std::hash::BuildHasherDefault<PrehashedKey>>>;

/// An exact concurrent set for multi-word keys, sharded over mutexes.
///
/// This plays the role of the CPU-side `std::unordered_set`: correctness
/// over raw speed. The shard count bounds contention when the parallel
/// engine performs its uniqueness pass.
///
/// Internally each shard maps the caller-visible 64-bit [`hash_row`] value
/// to the (almost always singleton) `Bucket` of distinct rows sharing
/// it, through a pass-through hasher — so every insertion hashes the
/// multi-word row exactly once, and only exact equality inside a bucket
/// touches the row again.
#[derive(Debug)]
pub struct ShardedSet {
    shards: Vec<Shard>,
    len: AtomicUsize,
}

impl ShardedSet {
    /// Creates a set with the given number of shards (rounded up to a power
    /// of two).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedSet {
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-sizes every shard for `additional` further rows in total, so a
    /// streamed level's insertions do not rehash shard tables mid-pass.
    /// Safe to call while other threads insert (each shard is locked), but
    /// intended for the quiescent point before a level starts.
    pub fn reserve(&self, additional: usize) {
        let per_shard = additional.div_ceil(self.shards.len());
        for shard in &self.shards {
            shard.lock().reserve(per_shard);
        }
    }

    /// Inserts `row`, returning `true` if it was not present before.
    pub fn insert(&self, row: &[u64]) -> bool {
        let hash = hash_row(row);
        let mut guard = self.shards[self.shard_of(hash)].lock();
        let fresh = match guard.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Bucket::One(row.into()));
                true
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                slot.get_mut().push_if_new(row)
            }
        };
        if fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// The shard a hash belongs to. Shards are picked from the *upper*
    /// hash bits: the pass-through shard maps consume the lower bits for
    /// their bucket index, and keys within one shard share their low
    /// shard-index bits by construction — using them twice would cluster
    /// every shard map into a fraction of its buckets.
    fn shard_of(&self, hash: u64) -> usize {
        ((hash >> 32) as usize) & (self.shards.len() - 1)
    }

    /// Returns `true` if `row` has been inserted.
    pub fn contains(&self, row: &[u64]) -> bool {
        let hash = hash_row(row);
        self.shards[self.shard_of(hash)]
            .lock()
            .get(&hash)
            .is_some_and(|bucket| bucket.contains(row))
    }
}

/// The uniqueness filter used by the synthesiser: dispatches to the
/// lock-free single-word table when rows fit in one `u64` (the paper's GPU
/// restriction) and to the exact sharded table otherwise.
#[derive(Debug)]
pub enum CsSet {
    /// Rows are a single `u64`.
    Narrow(LockFreeU64Set),
    /// Rows span multiple `u64` blocks.
    Wide(ShardedSet),
}

impl CsSet {
    /// Creates a uniqueness filter for rows of `blocks` 64-bit words, able
    /// to hold about `capacity` rows.
    pub fn new(blocks: usize, capacity: usize) -> Self {
        if blocks <= 1 {
            CsSet::Narrow(LockFreeU64Set::with_capacity(capacity))
        } else {
            let set = ShardedSet::new(64);
            set.reserve(capacity);
            CsSet::Wide(set)
        }
    }

    /// Grows the underlying table if it is nearing its load-factor limit.
    /// Call between kernel launches (i.e. without concurrent inserters);
    /// the WarpCore-style table does not grow on its own.
    pub fn maybe_grow(&mut self) {
        if let CsSet::Narrow(set) = self {
            if set.len() * 2 >= set.capacity() {
                set.grow();
            }
        }
    }

    /// Ensures the table can absorb `additional` further keys: the narrow
    /// WarpCore-style table is grown until it would stay at or below a
    /// 50 % load factor (it cannot grow itself mid-pass — growth needs
    /// `&mut`), the wide sharded table pre-sizes its shard maps. The
    /// search calls this once before a streamed level starts, so no kernel
    /// ever inserts into a table that needs resizing.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            CsSet::Narrow(set) => {
                while (set.len() + additional) * 2 > set.capacity() {
                    set.grow();
                }
            }
            CsSet::Wide(set) => set.reserve(additional),
        }
    }

    /// Inserts a row, returning `true` if it was new.
    ///
    /// Insertions are *not* counted in any device statistics here — the
    /// engines record them in bulk via
    /// [`Device::record_hash_insertions`](crate::Device::record_hash_insertions)
    /// so that the hot path of a kernel performs no shared-counter
    /// traffic.
    pub fn insert(&self, row: &[u64]) -> bool {
        match self {
            CsSet::Narrow(set) => set.insert(row[0]),
            CsSet::Wide(set) => set.insert(row),
        }
    }

    /// Number of insertions the filter could not record exactly (reported
    /// as unique instead). Only the fixed-capacity narrow table can
    /// overflow — and only once the search has stopped reserving, i.e.
    /// after the language cache itself rejected rows; the sharded table is
    /// exact. Surfaced in the session statistics.
    pub fn overflowed(&self) -> u64 {
        match self {
            CsSet::Narrow(set) => set.overflowed() as u64,
            CsSet::Wide(_) => 0,
        }
    }

    /// Returns `true` if the row has been inserted before.
    pub fn contains(&self, row: &[u64]) -> bool {
        match self {
            CsSet::Narrow(set) => set.contains(row[0]),
            CsSet::Wide(set) => set.contains(row),
        }
    }

    /// Number of distinct rows recorded.
    pub fn len(&self) -> usize {
        match self {
            CsSet::Narrow(set) => set.len(),
            CsSet::Wide(set) => set.len(),
        }
    }

    /// Returns `true` if no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lock_free_set_basic_insert_contains() {
        let set = LockFreeU64Set::with_capacity(16);
        assert!(set.is_empty());
        assert!(set.insert(7));
        assert!(set.insert(0));
        assert!(set.insert(u64::MAX));
        assert!(!set.insert(7));
        assert!(set.contains(0));
        assert!(set.contains(u64::MAX));
        assert!(!set.contains(1));
        assert_eq!(set.len(), 3);
        assert_eq!(set.overflowed(), 0);
    }

    #[test]
    fn lock_free_set_concurrent_inserts_count_each_key_once() {
        let set = LockFreeU64Set::with_capacity(4096);
        let unique = AtomicUsize::new(0);
        crossbeam::scope(|scope| {
            for t in 0..8 {
                let set = &set;
                let unique = &unique;
                scope.spawn(move |_| {
                    // Each key 0..1024 is inserted by every thread; exactly
                    // one insertion per key may report "new".
                    for key in 0..1024u64 {
                        let rotated = key.rotate_left(t * 7);
                        if set.insert(rotated) {
                            unique.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        // 8 threads insert rotations; count distinct rotated keys.
        let mut expected = std::collections::HashSet::new();
        for t in 0..8u32 {
            for key in 0..1024u64 {
                expected.insert(key.rotate_left(t * 7));
            }
        }
        assert_eq!(unique.load(Ordering::Relaxed), expected.len());
        assert_eq!(set.len(), expected.len());
    }

    #[test]
    fn lock_free_set_grows_preserving_membership() {
        let mut set = LockFreeU64Set::with_capacity(8);
        for key in 0..200u64 {
            if set.len() * 2 >= set.capacity() {
                set.grow();
            }
            assert!(set.insert(key * 17));
        }
        assert_eq!(set.len(), 200);
        assert_eq!(set.overflowed(), 0);
        for key in 0..200u64 {
            assert!(set.contains(key * 17));
            assert!(!set.insert(key * 17));
        }
    }

    #[test]
    fn cs_set_maybe_grow_keeps_narrow_sets_exact() {
        let mut set = CsSet::new(1, 4);
        for key in 0..500u64 {
            set.maybe_grow();
            assert!(set.insert(&[key]), "key {key} reported duplicate");
        }
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn lock_free_set_overflow_is_reported_not_fatal() {
        let set = LockFreeU64Set::with_capacity(1);
        // Capacity 1 rounds up to 2 slots; the third distinct key overflows.
        assert!(set.insert(1));
        assert!(set.insert(2));
        assert!(set.insert(3));
        assert!(set.overflowed() >= 1);
    }

    #[test]
    fn sharded_set_exact_on_multiword_rows() {
        let set = ShardedSet::new(8);
        assert!(set.insert(&[1, 2, 3]));
        assert!(!set.insert(&[1, 2, 3]));
        assert!(set.insert(&[1, 2, 4]));
        assert!(set.contains(&[1, 2, 4]));
        assert!(!set.contains(&[9, 9, 9]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn sharded_insert_hashed_agrees_with_insert() {
        let set = ShardedSet::new(4);
        set.reserve(100);
        for key in 0..100u64 {
            let row = [key, key.rotate_left(13), !key];
            assert!(set.insert(&row), "{key}");
            assert!(!set.insert(&row), "{key} reinserted");
            assert!(set.contains(&row));
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn cs_set_insert_hashed_and_reserve_on_both_widths() {
        let mut narrow = CsSet::new(1, 4);
        narrow.reserve(1000);
        for key in 0..1000u64 {
            let row = [key * 31];
            assert!(narrow.insert(&row));
        }
        assert_eq!(narrow.len(), 1000);
        assert_eq!(narrow.overflowed(), 0);

        let mut wide = CsSet::new(3, 4);
        wide.reserve(500);
        for key in 0..500u64 {
            let row = [key, key ^ 7, key << 3];
            assert!(wide.insert(&row));
            assert!(!wide.insert(&row));
        }
        assert_eq!(wide.len(), 500);
        assert_eq!(wide.overflowed(), 0);
    }

    #[test]
    fn cs_set_dispatches_on_width() {
        let device = Device::sequential();
        let narrow = CsSet::new(1, 10);
        assert!(matches!(narrow, CsSet::Narrow(_)));
        assert!(narrow.insert(&[5]));
        assert!(!narrow.insert(&[5]));
        assert!(narrow.contains(&[5]));

        let wide = CsSet::new(4, 10);
        assert!(matches!(wide, CsSet::Wide(_)));
        assert!(wide.insert(&[1, 2, 3, 4]));
        assert!(!wide.insert(&[1, 2, 3, 4]));
        device.record_hash_insertions(4);
        assert_eq!(device.stats().hash_insertions, 4);
    }

    #[test]
    fn hash_row_distinguishes_permutations() {
        assert_ne!(hash_row(&[1, 2]), hash_row(&[2, 1]));
        assert_ne!(hash_row(&[0]), hash_row(&[0, 0]));
        assert_eq!(hash_row(&[7, 7]), hash_row(&[7, 7]));
    }

    #[test]
    fn concurrent_sharded_inserts() {
        let set = ShardedSet::new(4);
        let unique = AtomicUsize::new(0);
        crossbeam::scope(|scope| {
            for _ in 0..4 {
                let set = &set;
                let unique = &unique;
                scope.spawn(move |_| {
                    for key in 0..512u64 {
                        if set.insert(&[key, key * 3]) {
                            unique.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(unique.load(Ordering::Relaxed), 512);
        assert_eq!(set.len(), 512);
    }
}
