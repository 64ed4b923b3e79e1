//! The bounded, priority-ordered job queue workers drain.
//!
//! A mutex-and-condvar monitor around a binary heap: producers block while
//! the queue is at capacity (backpressure), consumers block while it is
//! empty. Jobs pop highest-priority first; within a priority, submission
//! order (FIFO). [`close`](JobQueue::close) starts a graceful drain — no
//! new pushes are accepted, pops keep succeeding until the queue is empty
//! and then return `None`, which is the workers' signal to exit.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// The scheduling key of a queued item: priority first (higher pops
/// earlier), then submission sequence (earlier pops earlier).
#[derive(Debug)]
struct Entry<T> {
    priority: i32,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins, then *lower*
        // sequence number (earlier submission).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct QueueState<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    closed: bool,
}

/// A bounded MPMC priority queue (see the module docs).
#[derive(Debug)]
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        JobQueue {
            state: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item`, blocking while the queue is at capacity. Returns
    /// the item back when the queue has been closed.
    pub fn push(&self, priority: i32, item: T) -> Result<(), T> {
        let mut state = self.lock();
        while !state.closed && state.heap.len() >= self.capacity {
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        self.push_locked(state, priority, item)
    }

    /// Enqueues `item` if there is room right now. `Err(item)` when the
    /// queue is full or closed (distinguish with [`is_closed`]).
    ///
    /// [`is_closed`]: JobQueue::is_closed
    pub fn try_push(&self, priority: i32, item: T) -> Result<(), T> {
        let state = self.lock();
        if !state.closed && state.heap.len() >= self.capacity {
            return Err(item);
        }
        self.push_locked(state, priority, item)
    }

    fn push_locked(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState<T>>,
        priority: i32,
        item: T,
    ) -> Result<(), T> {
        if state.closed {
            return Err(item);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(Entry {
            priority,
            seq,
            item,
        });
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the highest-priority item, blocking while the queue is
    /// empty. `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(entry) = state.heap.pop() {
                drop(state);
                self.not_full.notify_one();
                return Some(entry.item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Number of currently queued (not yet dequeued) items.
    pub fn len(&self) -> usize {
        self.lock().heap.len()
    }

    /// Closes the queue: subsequent pushes fail, pops drain the remaining
    /// items and then return `None`.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`close`](JobQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pops_by_priority_then_submission_order() {
        let queue = JobQueue::new(16);
        queue.push(0, "low-a").unwrap();
        queue.push(5, "high-a").unwrap();
        queue.push(0, "low-b").unwrap();
        queue.push(5, "high-b").unwrap();
        assert_eq!(queue.len(), 4);
        let order: Vec<_> = (0..4).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(order, ["high-a", "high-b", "low-a", "low-b"]);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let queue = JobQueue::new(4);
        queue.push(0, 1).unwrap();
        queue.push(0, 2).unwrap();
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.push(0, 3), Err(3));
        assert_eq!(queue.try_push(0, 4), Err(4));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn try_push_reports_a_full_queue() {
        let queue = JobQueue::new(1);
        assert_eq!(queue.capacity(), 1);
        queue.try_push(0, "a").unwrap();
        assert_eq!(queue.try_push(0, "b"), Err("b"));
        assert_eq!(queue.pop(), Some("a"));
        queue.try_push(0, "c").unwrap();
    }

    #[test]
    fn push_blocks_until_room_and_pop_blocks_until_items() {
        let queue = Arc::new(JobQueue::new(1));
        queue.push(0, 0u32).unwrap();
        let producer = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.push(0, 1u32)
        });
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.pop(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(), Some(1));

        let consumer = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.pop()
        });
        std::thread::sleep(Duration::from_millis(20));
        queue.push(3, 9u32).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(9));
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let queue = Arc::new(JobQueue::new(1));
        queue.push(0, 0u32).unwrap();
        let producer = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.push(0, 1u32)
        });
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(1));
    }
}
