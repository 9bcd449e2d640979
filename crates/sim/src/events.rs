//! Time-ordered event queue with deterministic tie-breaking.
//!
//! A thin wrapper around [`std::collections::BinaryHeap`] holding
//! `(time, seq, payload)` entries. Two events scheduled for the same
//! nanosecond pop in the order they were pushed (FIFO), which keeps the
//! simulation deterministic regardless of heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

struct Entry<E> {
    at: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use bpfstor_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-second");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-second")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number of the next push: also every event ever pushed.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: Nanos, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, FIFO among equal times.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let e = self.heap.pop()?;
        Some((e.at, e.payload))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Returns the number of events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever pushed (for engine statistics).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Total events ever popped (for engine statistics): every push
    /// not still queued.
    pub fn total_popped(&self) -> u64 {
        self.next_seq - self.heap.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(1, 'a');
        q.push(3, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(9, ());
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((9, ())));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.push(30, "c");
        assert_eq!(q.pop(), Some((10, "a")));
        q.push(20, "b");
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
    }
}
