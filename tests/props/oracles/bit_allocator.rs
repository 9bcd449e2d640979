use bpfstor::fs::alloc::{Run, GROUP_BLOCKS};

/// The bit-at-a-time allocator `BlockAllocator` was before it went
/// word-at-a-time, kept verbatim as the placement oracle.
#[derive(Debug, Clone)]
pub struct BitAllocator {
    bits: Vec<bool>,
    pub used: u64,
}

impl BitAllocator {
    pub fn new(nblocks: u64) -> Self {
        BitAllocator {
            bits: vec![false; nblocks as usize],
            used: 0,
        }
    }

    fn nblocks(&self) -> u64 {
        self.bits.len() as u64
    }

    fn is_set(&self, b: u64) -> bool {
        self.bits[b as usize]
    }

    pub fn all_free(&self, start: u64, len: u64) -> bool {
        (start..start + len).all(|b| !self.is_set(b))
    }

    pub fn alloc(&mut self, want: u64, goal: u64) -> Option<Run> {
        if want == 0 || self.used == self.nblocks() {
            return None;
        }
        let goal = goal.min(self.nblocks().saturating_sub(1));
        if !self.is_set(goal) {
            let len = self.run_length_at(goal, want);
            return Some(self.take(goal, len));
        }
        let mut b = goal - goal % GROUP_BLOCKS;
        for _ in 0..self.nblocks() {
            if !self.is_set(b) {
                let len = self.run_length_at(b, want);
                return Some(self.take(b, len));
            }
            b += 1;
            if b == self.nblocks() {
                b = 0;
            }
        }
        None
    }

    fn run_length_at(&self, start: u64, want: u64) -> u64 {
        let mut len = 0;
        while len < want && start + len < self.nblocks() && !self.is_set(start + len) {
            len += 1;
        }
        len
    }

    fn take(&mut self, start: u64, len: u64) -> Run {
        self.reserve(start, len);
        Run { start, len }
    }

    pub fn release(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            assert!(self.is_set(b), "double free of block {b}");
            self.bits[b as usize] = false;
        }
        self.used -= len;
    }

    pub fn reserve(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            assert!(!self.is_set(b), "reserve of used block {b}");
            self.bits[b as usize] = true;
        }
        self.used += len;
    }
}
