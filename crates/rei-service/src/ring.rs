//! The consistent-hash ring behind the shard router.
//!
//! `key % N` routing remaps most keys when the pool count changes: a
//! router restarted with one pool more would find most answers in some
//! other pool's persistent store. The ring instead places `VNODES`
//! virtual points per pool on a 64-bit circle — each point is the
//! [`rei_lang::fnv1a`] hash of `"<pool>#<replica>"` — and routes a key to
//! the first point clockwise of it. Adding a pool to an N-pool ring
//! captures only the key ranges its own points carve out, ~1/(N+1) of
//! the circle; every other key keeps its pool, and with it its warm
//! store. A ring built over the same N pool names again assigns every key
//! exactly as before.
//!
//! Points are derived purely from pool names via FNV-1a, so the
//! assignment is deterministic across processes — a restarted router
//! with the same pool list finds each shard's entries in its own cache
//! file, exactly as the old modulo rule guaranteed.

use rei_lang::fnv1a;

/// Virtual points each pool contributes to the ring. More points smooth
/// the load split (the share of a pool is the sum of its arc lengths);
/// 64 keeps every pool within roughly a factor two of its fair share
/// for small N while a lookup stays one binary search over `64 * N`
/// points.
pub const VNODES: usize = 64;

/// Finalizing bit mixer (the splitmix64 constants) applied on top of
/// FNV-1a for both virtual points and lookup keys. FNV-1a of short,
/// similar strings clusters in the high bits, and the ring's arithmetic
/// compares full 64-bit values — without the mixer, one pool's arcs can
/// bunch together and carry far more or less than its fair share. The
/// mixer is a fixed bijection, so determinism across processes is
/// untouched.
fn spread(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A consistent-hash ring over named pools (see the module docs).
///
/// # Example
///
/// ```
/// use rei_service::HashRing;
///
/// let mut two = HashRing::new();
/// two.add("pool-0");
/// two.add("pool-1");
/// let mut three = two.clone();
/// three.add("pool-2");
/// // A key keeps its pool unless the new pool captures it.
/// let key = rei_lang::fnv1a(b"acme");
/// let (was, now) = (two.route(key).unwrap(), three.route(key).unwrap());
/// assert!(now == was || now == "pool-2");
/// // The same pool names always build the same ring.
/// let mut again = HashRing::new();
/// again.add("pool-1");
/// again.add("pool-0");
/// assert_eq!(again, two);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, pool name)` sorted by point; ties (vanishingly rare with
    /// 64-bit points) break by name so the order stays deterministic.
    points: Vec<(u64, String)>,
}

impl HashRing {
    /// An empty ring; [`route`](HashRing::route) returns `None` until a
    /// pool is added.
    pub fn new() -> Self {
        HashRing::default()
    }

    /// Adds `pool`'s virtual points. Adding a name twice is a no-op —
    /// the points would be identical anyway.
    pub fn add(&mut self, pool: &str) {
        if self.contains(pool) {
            return;
        }
        for replica in 0..VNODES {
            let point = spread(fnv1a(format!("{pool}#{replica}").as_bytes()));
            self.points.push((point, pool.to_string()));
        }
        self.points
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    }

    /// Whether `pool` is on the ring.
    pub fn contains(&self, pool: &str) -> bool {
        self.points.iter().any(|(_, name)| name == pool)
    }

    /// Number of pools on the ring.
    pub fn pools(&self) -> usize {
        self.points.len() / VNODES
    }

    /// The pool owning `key`: the first virtual point clockwise of it
    /// (wrapping past the top of the circle). `None` on an empty ring.
    pub fn route(&self, key: u64) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let key = spread(key);
        let index = self
            .points
            .partition_point(|(point, _)| *point < key)
            .checked_rem(self.points.len())
            .expect("ring is non-empty");
        Some(&self.points[index].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(pools: usize) -> HashRing {
        let mut ring = HashRing::new();
        for index in 0..pools {
            ring.add(&format!("pool-{index}"));
        }
        ring
    }

    fn tenant_keys(count: usize) -> Vec<u64> {
        (0..count)
            .map(|i| fnv1a(format!("tenant-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn routes_are_deterministic_and_reasonably_balanced() {
        let ring = ring_of(4);
        let keys = tenant_keys(10_000);
        let mut load = std::collections::HashMap::<&str, usize>::new();
        for key in &keys {
            let pool = ring.route(*key).unwrap();
            assert_eq!(ring.route(*key), Some(pool), "routing must be stable");
            *load.entry(pool).or_default() += 1;
        }
        assert_eq!(load.len(), 4, "every pool carries some keys: {load:?}");
        // With 64 vnodes the split stays within a factor ~2 of even.
        for (pool, count) in &load {
            assert!(
                (10_000 / 8..=10_000 / 2).contains(count),
                "pool {pool} carries {count} of 10000: {load:?}"
            );
        }
    }

    #[test]
    fn adding_a_pool_remaps_at_most_about_one_nth_of_keys() {
        let keys = tenant_keys(10_000);
        for pools in [2usize, 3, 4, 8] {
            let mut ring = ring_of(pools);
            let before: Vec<String> = keys
                .iter()
                .map(|k| ring.route(*k).unwrap().to_string())
                .collect();
            ring.add("joiner");
            let moved = keys
                .iter()
                .zip(&before)
                .filter(|(k, was)| ring.route(**k).unwrap() != was.as_str())
                .count();
            // ~1/(N+1) of keys move to the joiner; allow 2/N of slack for
            // vnode placement variance. Everything that moved, moved *to*
            // the new pool — no key hops between the old pools.
            let bound = 2 * keys.len() / pools;
            assert!(
                moved <= bound,
                "{pools} pools: {moved} of {} keys moved (bound {bound})",
                keys.len()
            );
            assert!(moved > 0, "{pools} pools: the joiner must take load");
            for (key, was) in keys.iter().zip(&before) {
                let now = ring.route(*key).unwrap();
                assert!(
                    now == was.as_str() || now == "joiner",
                    "key moved between old pools: {was} -> {now}"
                );
            }
            // A ring freshly built over the old pools restores the
            // original assignment: a restart with the old pool count
            // finds every key where it was.
            let rebuilt = ring_of(pools);
            for (key, was) in keys.iter().zip(&before) {
                assert_eq!(rebuilt.route(*key), Some(was.as_str()));
            }
        }
    }

    #[test]
    fn empty_duplicate_and_unknown_edge_cases() {
        let mut ring = HashRing::new();
        assert_eq!(ring.route(42), None);
        assert_eq!(ring.pools(), 0);
        ring.add("only");
        ring.add("only");
        assert_eq!(ring.pools(), 1);
        assert_eq!(ring.route(42), Some("only"));
        assert!(ring.contains("only"));
        assert!(!ring.contains("never-added"));
    }
}
