//! Metadata journal (jbd2-lite).
//!
//! Metadata mutations are grouped into transactions; a crash replays
//! only committed transactions. The journal records logical operations
//! rather than block images, and a [`JournalRecord`] *is* the metadata
//! change: the file system carries out every record with one function,
//! live = apply + log, replay = apply. So replaying the committed
//! records rebuilds exactly what the live operations built — inode
//! table, directory, extent trees, generations, free space and activity
//! counters.
//!
//! A record becomes durable one way only: [`Journal::log`] appends it to
//! the running transaction, [`Journal::seal`] freezes everything logged
//! since the previous seal into a [`SealedTxn`], and
//! [`Journal::commit_sealed`] — the flush barrier's CQE — makes it
//! durable. [`Journal::commit`] is the two steps back to back, for a
//! caller with no barrier to wait for.
//!
//! The log is checkpointed, not append-only: [`Journal::checkpoint`]
//! hands the committed prefix to the file system's recovery image and
//! drops it, and the journal keeps only the records past it — what a
//! crash could still need. Every index the journal speaks in counts
//! records since mkfs ([`Journal::len`], [`Journal::committed`],
//! [`Journal::commit_points`], [`SealedTxn::end`]); only
//! [`Journal::committed_records`] is the retained window, starting at
//! [`Journal::base`].

use crate::extent::Extent;

/// One logical metadata operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// File created.
    Create {
        /// Assigned inode.
        ino: u64,
        /// Directory name.
        name: String,
    },
    /// File removed.
    Unlink {
        /// Inode removed.
        ino: u64,
        /// Directory name removed.
        name: String,
    },
    /// File size changed.
    SetSize {
        /// Inode.
        ino: u64,
        /// New size in bytes.
        size: u64,
    },
    /// A new extent was mapped.
    MapExtent {
        /// Inode.
        ino: u64,
        /// The mapping added.
        extent: Extent,
    },
    /// A logical range was unmapped.
    UnmapRange {
        /// Inode.
        ino: u64,
        /// First logical block.
        logical: u64,
        /// Blocks unmapped.
        len: u64,
    },
}

/// The committed records a commit lets the journal retain before it
/// checkpoints them (jbd2's "log space low"): 256 records, ~10 KB of
/// log. No checkpoint I/O or log-space stall is modelled, so the value
/// only sets the crash-sweep horizon: a test that crashes an
/// [`crate::ExtFs`] at every record from 0 must keep its world below
/// it, since a crash below [`Journal::base`] panics in
/// [`Journal::crash_at`]. The largest such world is 77 records.
pub const CHECKPOINT_RECORDS: usize = 256;

/// A sealed transaction: the running transaction frozen at a commit
/// request, waiting for its flush barrier's CQE. Between
/// [`Journal::seal`] and [`Journal::commit_sealed`] the records up to
/// `end` are *committing* — on the log but not yet crash-durable; a
/// crash in that window discards every joined handle atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedTxn {
    /// Record count at the seal point (the commit block's position).
    pub end: usize,
    /// Records this transaction carries (past the previous seal).
    pub records: usize,
    /// Handles that joined the running transaction before the seal.
    pub handles: usize,
}

/// A checkpointed journal with transaction boundaries.
///
/// The jbd2-style split: one *running* transaction takes new records
/// and handles ([`Journal::join_running`]) while any number of sealed
/// ones ([`Journal::seal`]) wait for their flush barriers. Each
/// [`Journal::commit_sealed`] moves the durable point forward to its
/// seal point, never back, so commit points stay strictly ascending
/// whatever order the barriers complete in. [`Journal::checkpoint`]
/// drops everything up to the durable point; the indices stay absolute
/// (records since mkfs), and the retained records start at `base`.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// The records from `base` on: `records[i]` is record `base + i`.
    records: Vec<JournalRecord>,
    /// Records before this index were checkpointed and dropped; it is
    /// a commit point (or 0).
    base: usize,
    /// Records up to this index are committed (crash-durable).
    committed: usize,
    /// Record count after each committed transaction past `base`,
    /// strictly ascending — the on-disk commit-block positions a crash
    /// can land between.
    commit_points: Vec<usize>,
    /// Handles that joined the running transaction via
    /// [`Journal::join_running`].
    running_handles: usize,
    /// Record count at the latest seal: the running transaction is
    /// everything past it.
    sealed: usize,
    txns: u64,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Joins the running transaction as one committing handle: counts
    /// it toward the next seal's [`SealedTxn::handles`].
    pub fn join_running(&mut self) {
        self.running_handles += 1;
    }

    /// Handles currently joined to the running transaction.
    pub fn running_handles(&self) -> usize {
        self.running_handles
    }

    /// True while some sealed transaction's records are not yet durable
    /// (its barrier, or an earlier one, is still in flight).
    pub fn seal_outstanding(&self) -> bool {
        self.sealed > self.committed
    }

    /// True while a handle has joined the running transaction or some
    /// record is not yet crash-durable.
    pub fn dirty(&self) -> bool {
        self.running_handles > 0 || self.len() > self.committed
    }

    /// Seals the running transaction for commit: freezes the records
    /// logged since the previous seal and hands back the [`SealedTxn`]
    /// the flush barrier will make durable via
    /// [`Journal::commit_sealed`]. New handles start a fresh running
    /// transaction. Earlier seals may still be outstanding.
    pub fn seal(&mut self) -> SealedTxn {
        let end = self.len();
        let sealed = SealedTxn {
            end,
            records: end - self.sealed,
            handles: self.running_handles,
        };
        self.running_handles = 0;
        self.sealed = end;
        sealed
    }

    /// Makes a sealed transaction durable (its flush barrier's CQE
    /// arrived): records up to its seal point commit unless a later
    /// seal already committed them; anything logged after it stays in
    /// the running transaction. A seal that adds nothing past the
    /// durable point never becomes a transaction.
    pub fn commit_sealed(&mut self, txn: SealedTxn) {
        if txn.end > self.committed {
            self.committed = txn.end;
            self.commit_points.push(txn.end);
            self.txns += 1;
        }
    }

    /// Appends a record to the running transaction.
    pub fn log(&mut self, rec: JournalRecord) {
        self.records.push(rec);
    }

    /// Seals the running transaction and commits it at once (no
    /// barrier to wait for). Returns the handles it carried.
    pub fn commit(&mut self) -> usize {
        let txn = self.seal();
        self.commit_sealed(txn);
        txn.handles
    }

    /// Checkpoints the log: moves `base` up to the durable point and
    /// hands back the committed records it drops, oldest first, for the
    /// caller to apply to its recovery image. The durable point is
    /// always a seal end, so no outstanding seal is split; running and
    /// sealed records stay.
    pub fn checkpoint(&mut self) -> std::vec::Drain<'_, JournalRecord> {
        let done = self.committed - self.base;
        self.base = self.committed;
        // Every commit point is at or below the durable point.
        self.commit_points.clear();
        self.records.drain(..done)
    }

    /// Simulates a crash after exactly `persisted` records reached the
    /// log: everything past the last commit block at or before that
    /// point vanishes — a torn transaction is discarded whole, never
    /// half-applied, and a sealed one still waiting for its barrier
    /// loses every joined handle atomically. The last durable commit
    /// block is found by binary search (`commit_points` is ascending by
    /// construction); before the first retained one it is `base`.
    ///
    /// # Panics
    ///
    /// Panics if `persisted` is below [`Journal::base`]: a checkpointed
    /// prefix is durable by definition.
    pub fn crash_at(&mut self, persisted: usize) {
        assert!(
            persisted >= self.base,
            "crash_at({persisted}) below the checkpoint at record {}: a checkpointed prefix is durable",
            self.base
        );
        let idx = self.commit_points.partition_point(|&p| p <= persisted);
        let durable = match idx {
            0 => self.base,
            _ => self.commit_points[idx - 1],
        };
        self.records.truncate(durable - self.base);
        self.committed = durable;
        self.commit_points.truncate(idx);
        self.running_handles = 0;
        self.sealed = durable;
    }

    /// Record counts at each committed transaction boundary past
    /// [`Journal::base`], ascending.
    pub fn commit_points(&self) -> &[usize] {
        &self.commit_points
    }

    /// The committed records past [`Journal::base`], oldest first (the
    /// replay input on top of the recovery image).
    pub fn committed_records(&self) -> &[JournalRecord] {
        &self.records[..self.committed - self.base]
    }

    /// Records committed since mkfs.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Records checkpointed and dropped since mkfs: the first retained
    /// record's index.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Total committed transactions.
    pub fn transactions(&self) -> u64 {
        self.txns
    }

    /// Records logged since mkfs (checkpointed, committed and pending).
    pub fn len(&self) -> usize {
        self.base + self.records.len()
    }

    /// True if no record was ever logged (or a crash lost them all).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ino: u64) -> JournalRecord {
        JournalRecord::SetSize { ino, size: 512 }
    }

    #[test]
    fn log_only_appends_to_the_running_transaction() {
        let mut j = Journal::new();
        j.log(rec(1));
        assert_eq!(j.len(), 1);
        assert_eq!(j.committed_records().len(), 0, "nothing commits in log");
        assert_eq!(j.transactions(), 0);
        j.commit();
        assert_eq!(j.committed_records().len(), 1);
        assert_eq!(j.transactions(), 1);
    }

    #[test]
    fn explicit_transaction_commits_atomically() {
        let mut j = Journal::new();
        j.log(rec(1));
        j.log(rec(2));
        assert_eq!(j.committed_records().len(), 0, "not yet committed");
        j.commit();
        assert_eq!(j.committed_records().len(), 2);
        assert_eq!(j.transactions(), 1);
    }

    #[test]
    fn crash_discards_uncommitted() {
        let mut j = Journal::new();
        j.log(rec(1));
        j.commit();
        j.log(rec(2));
        j.crash_at(j.len());
        assert_eq!(j.committed_records().len(), 1);
        assert_eq!(j.len(), 1, "uncommitted record physically dropped");
    }

    #[test]
    fn crash_at_discards_torn_transactions_whole() {
        let mut j = Journal::new();
        j.log(rec(1));
        j.commit(); // txn 1: one record
        j.log(rec(2));
        j.log(rec(3));
        j.commit(); // txn 2: two records
        assert_eq!(j.commit_points(), &[1, 3]);
        // A crash after only the first record of txn 2 hit the log must
        // roll back to txn 1 — never expose rec(2) without rec(3).
        j.crash_at(2);
        assert_eq!(j.committed_records().len(), 1);
        assert_eq!(j.commit_points(), &[1]);
    }

    #[test]
    fn crash_at_keeps_fully_persisted_transactions() {
        let mut j = Journal::new();
        j.log(rec(1));
        j.log(rec(2));
        j.commit();
        j.crash_at(2);
        assert_eq!(j.committed_records().len(), 2);
        j.crash_at(0);
        assert!(j.is_empty());
    }

    #[test]
    fn empty_commit_is_not_a_transaction() {
        let mut j = Journal::new();
        j.commit();
        assert_eq!(j.transactions(), 0);
        assert!(j.commit_points().is_empty());
    }

    #[test]
    fn crash_at_binary_search_matches_on_dense_commit_points() {
        // Many single-record transactions: every persisted count from 0
        // to len lands the binary search on exactly that boundary, and
        // points strictly between commits (simulated by a torn trailing
        // txn) roll back to the last durable one.
        let single = || {
            let mut j = Journal::new();
            for i in 0..512 {
                j.log(rec(i));
                j.commit();
            }
            j
        };
        assert_eq!(single().commit_points().len(), 512);
        for persisted in (0..=512).rev() {
            let mut crashed = single();
            crashed.log(rec(999)); // torn: on the log, never committed
            crashed.crash_at(persisted);
            assert_eq!(crashed.committed_records().len(), persisted);
            assert_eq!(crashed.commit_points().len(), persisted);
            assert_eq!(crashed.len(), persisted, "torn tail dropped whole");
        }
        // Multi-record transactions: a crash inside a txn rolls back to
        // the previous boundary (partition_point lands between points).
        let mut j = Journal::new();
        for t in 0..64 {
            j.log(rec(t));
            j.log(rec(t));
            j.log(rec(t));
            j.commit();
        }
        j.crash_at(100); // inside txn 33 (records 99..102)
        assert_eq!(j.committed_records().len(), 99);
        assert_eq!(j.commit_points().len(), 33);
    }

    #[test]
    fn sealed_txn_commits_every_joined_handle_at_once() {
        let mut j = Journal::new();
        j.join_running();
        j.log(rec(1));
        j.join_running();
        j.log(rec(2));
        assert_eq!(j.running_handles(), 2);
        let sealed = j.seal();
        assert_eq!(
            sealed,
            SealedTxn {
                end: 2,
                records: 2,
                handles: 2
            }
        );
        assert!(j.seal_outstanding());
        assert_eq!(j.committed_records().len(), 0, "sealed, not durable yet");
        // A handle arriving mid-commit joins the NEXT running txn.
        j.join_running();
        j.log(rec(3));
        j.commit_sealed(sealed);
        assert_eq!(j.committed_records().len(), 2, "seal point, not tail");
        assert_eq!(j.commit_points(), &[2]);
        assert_eq!(j.running_handles(), 1, "the late handle keeps running");
        assert!(!j.seal_outstanding());
    }

    #[test]
    fn overlapping_seals_commit_in_any_order_and_never_move_back() {
        let mut j = Journal::new();
        j.log(rec(1));
        let first = j.seal();
        j.log(rec(2));
        j.log(rec(3));
        let second = j.seal();
        assert_eq!(
            (first.records, second.records),
            (1, 2),
            "from the last seal"
        );
        // The later barrier lands first: both seals' records are durable.
        j.commit_sealed(second);
        assert_eq!(j.committed_records().len(), 3);
        assert!(!j.seal_outstanding());
        // The earlier one lands after it and moves nothing backwards.
        j.commit_sealed(first);
        assert_eq!(j.committed_records().len(), 3);
        assert_eq!(j.commit_points(), &[3]);
        assert_eq!(j.transactions(), 1);
    }

    #[test]
    fn crash_before_barrier_loses_all_joined_handles_atomically() {
        let mut j = Journal::new();
        j.log(rec(0));
        j.commit(); // txn 1, durable
        j.join_running();
        j.log(rec(1));
        j.join_running();
        j.log(rec(2));
        let sealed = j.seal();
        assert_eq!(sealed.handles, 2);
        // Crash in the seal→CQE window: both handles vanish together.
        j.crash_at(j.len());
        assert_eq!(j.committed_records().len(), 1);
        assert!(!j.seal_outstanding());
        assert_eq!(j.running_handles(), 0);
    }

    #[test]
    fn empty_seal_never_becomes_a_transaction() {
        let mut j = Journal::new();
        j.join_running();
        let sealed = j.seal();
        assert_eq!(sealed.records, 0);
        assert!(!j.seal_outstanding());
        j.commit_sealed(sealed);
        assert_eq!(j.transactions(), 0);
    }

    #[test]
    fn commit_reports_joined_handles() {
        let mut j = Journal::new();
        j.join_running();
        j.log(rec(1));
        j.join_running();
        j.log(rec(2));
        assert_eq!(j.commit(), 2);
        assert_eq!(j.commit(), 0, "handles reset after commit");
    }

    #[test]
    fn records_preserved_in_order() {
        let mut j = Journal::new();
        j.log(JournalRecord::Create {
            ino: 1,
            name: "a".to_string(),
        });
        j.log(rec(1));
        j.commit();
        match &j.committed_records()[0] {
            JournalRecord::Create { ino, name } => {
                assert_eq!((*ino, name.as_str()), (1, "a"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checkpoint_with_a_seal_outstanding_drops_only_up_to_committed() {
        let mut j = Journal::new();
        j.log(rec(1));
        j.log(rec(2));
        j.commit(); // durable at 2
        j.join_running();
        j.log(rec(3));
        let sealed = j.seal(); // committing: 2..3
        j.log(rec(4)); // running: 3..4
        let dropped: Vec<_> = j.checkpoint().collect();
        assert_eq!(dropped, [rec(1), rec(2)], "the committed prefix, in order");
        assert_eq!((j.base(), j.committed(), j.len()), (2, 2, 4));
        assert!(j.committed_records().is_empty());
        assert!(j.seal_outstanding() && j.dirty());
        // The seal's barrier lands after the checkpoint: its record
        // commits, the running one does not.
        j.commit_sealed(sealed);
        assert_eq!(j.committed_records(), [rec(3)]);
        assert_eq!(j.commit_points(), &[3]);
        // A crash in the running transaction keeps the sealed record.
        j.crash_at(j.len());
        assert_eq!((j.base(), j.committed(), j.len()), (2, 3, 3));
        assert_eq!(j.committed_records(), [rec(3)]);
    }

    #[test]
    #[should_panic(expected = "below the checkpoint at record 2")]
    fn crash_at_below_the_checkpoint_is_refused() {
        let mut j = Journal::new();
        j.log(rec(1));
        j.log(rec(2));
        j.commit();
        j.checkpoint();
        j.crash_at(1);
    }

    #[test]
    fn len_and_commit_points_stay_absolute_across_a_checkpoint() {
        let mut j = Journal::new();
        for i in 0..3 {
            j.log(rec(i));
            j.commit();
        }
        assert_eq!(j.checkpoint().len(), 3);
        assert_eq!((j.base(), j.len(), j.committed()), (3, 3, 3));
        assert!(j.commit_points().is_empty() && !j.is_empty());
        assert!(!j.dirty(), "nothing pending after a checkpoint");
        j.log(rec(3));
        assert!(j.dirty());
        j.commit();
        j.log(rec(4));
        j.log(rec(5));
        let sealed = j.seal();
        assert_eq!(sealed.end, 6, "a seal point counts from mkfs");
        j.commit_sealed(sealed);
        assert_eq!(j.commit_points(), &[4, 6]);
        assert_eq!(j.committed_records(), [rec(3), rec(4), rec(5)]);
        assert!(!j.dirty());
        assert_eq!(j.transactions(), 5);
        // A crash between retained points rolls back to one; at the
        // base, to the checkpoint itself.
        j.crash_at(5);
        assert_eq!((j.len(), j.committed_records().len()), (4, 1));
        j.crash_at(3);
        assert_eq!((j.len(), j.committed()), (3, 3));
        assert!(j.committed_records().is_empty() && j.commit_points().is_empty());
        // A second checkpoint with nothing new drops nothing.
        assert_eq!(j.checkpoint().len(), 0);
        assert_eq!(j.base(), 3);
    }
}
