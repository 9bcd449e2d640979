//! Fixed-capacity ring buffers with NVMe head/tail semantics.
//!
//! Submission and completion queues are circular arrays; the producer
//! advances `tail`, the consumer advances `head`, and the queue is full
//! when `tail + 1 == head` (mod size), i.e. one slot is sacrificed, as
//! in the NVMe specification. The array is allocated at its full size
//! up front, so it never regrows, but a slot is only written when the
//! tail first reaches it: a deep ring that stays shallow costs nothing
//! to set up.

/// A bounded FIFO ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// The slots the tail has reached so far, at most `size` of them.
    slots: Vec<Option<T>>,
    // NVMe queues hold at most 64 Ki entries, so `u32` indices lose
    // nothing, and the three of them fit the two words `head` and
    // `tail` took when the slot array's length was the size.
    size: u32,
    head: u32,
    tail: u32,
}

impl<T> Ring<T> {
    /// Creates a ring with capacity `size - 1` (one slot reserved, per
    /// NVMe full/empty disambiguation).
    ///
    /// # Panics
    ///
    /// Panics if `size < 2` (or does not fit a `u32`).
    pub fn new(size: usize) -> Self {
        assert!(size >= 2, "ring needs at least two slots");
        Ring {
            slots: Vec::with_capacity(size),
            size: u32::try_from(size).expect("ring size fits a u32"),
            head: 0,
            tail: 0,
        }
    }

    /// The slot after `i`, going round.
    fn next(&self, i: u32) -> u32 {
        (i + 1) % self.size
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        let queued = if self.tail >= self.head {
            self.tail - self.head
        } else {
            self.size - self.head + self.tail
        };
        queued as usize
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// True if one more push would be rejected.
    pub fn is_full(&self) -> bool {
        self.next(self.tail) == self.head
    }

    /// Usable capacity (`size - 1`).
    pub fn capacity(&self) -> usize {
        self.size as usize - 1
    }

    /// Enqueues an entry; returns it back if the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.is_full() {
            return Err(v);
        }
        match self.slots.get_mut(self.tail as usize) {
            Some(slot) => *slot = Some(v),
            // First time round: within the capacity asked for in `new`.
            None => self.slots.push(Some(v)),
        }
        self.tail = self.next(self.tail);
        Ok(())
    }

    /// Dequeues the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let v = self.slots[self.head as usize].take();
        self.head = self.next(self.head);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        r.push(1).expect("push");
        r.push(2).expect("push");
        r.push(3).expect("push");
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_is_size_minus_one() {
        let mut r = Ring::new(4);
        assert_eq!(r.capacity(), 3);
        r.push(1).expect("1");
        r.push(2).expect("2");
        r.push(3).expect("3");
        assert!(r.is_full());
        assert_eq!(r.push(4), Err(4));
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut r = Ring::new(4);
        for round in 0..10 {
            r.push(round * 2).expect("push a");
            r.push(round * 2 + 1).expect("push b");
            assert_eq!(r.pop(), Some(round * 2));
            assert_eq!(r.pop(), Some(round * 2 + 1));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn len_tracks() {
        let mut r = Ring::new(8);
        assert_eq!(r.len(), 0);
        r.push(()).expect("push");
        r.push(()).expect("push");
        assert_eq!(r.len(), 2);
        r.pop();
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_ring_rejected() {
        Ring::<u8>::new(1);
    }
}
