//! Simulated storage devices for the `bpfstor` reproduction.
//!
//! The paper's Figure 1 spans four device generations — a Seagate Exos
//! X16 HDD, Intel 750-class TLC NAND, a first-generation Optane SSD
//! (900P), and the P5800X prototype whose Table 1 numbers anchor the
//! whole evaluation. This crate models all four as the same NVMe-style
//! device with different [`profile::DeviceProfile`]s:
//!
//! - a sparse [`store::SectorStore`] holds real bytes (B-tree nodes,
//!   SSTables), so completions carry genuine data for BPF programs to
//!   parse; it is thin to the 2-byte half-word, keeping each sector's
//!   bytes up to its last non-zero half-word in one of nine slot
//!   classes (2, 4, 8, 16, 32, 64, 128, 256 or 512 B);
//! - [`ring::Ring`] implements the submission/completion queue pairs with
//!   real head/tail wrap semantics, its slot array sized by the entries
//!   queued rather than by the declared depth;
//! - [`device::NvmeDevice`] batch-services queued commands when the
//!   doorbell rings, overlapping them across parallel channels with
//!   service times drawn from the profile's latency distribution;
//!   completions are posted to the CQ ring at their completion instants
//!   and reaped by the kernel's interrupt handler.
//!
//! Everything is deterministic given the seed of the [`bpfstor_sim::SimRng`]
//! the device is constructed with.

pub mod device;
pub mod profile;
pub mod ring;
pub mod store;
pub mod transport;

pub use device::{
    CmdKind, DeviceStats, NvmeCommand, NvmeCompletion, NvmeDevice, NvmeOp, QueueError, QueuePairId,
};
pub use profile::{DeviceClass, DeviceProfile};
pub use ring::{check_queue_depth, Ring, MAX_QUEUE_DEPTH};
pub use store::{SectorStore, SECTOR_SIZE};
pub use transport::{
    FabricConfig, FabricStats, FabricTransport, InitiatorStats, LocalTransport, SubmitClass,
    Transport, ADMIT_NS, CONGESTION_KNEE, CONGESTION_NS_PER_CAPSULE, INITIATOR_WINDOW,
    MAX_INITIATORS, MAX_LOSS_PROB, RETRANSMIT_TIMEOUT_NS, TARGET_PROC_NS,
};

/// The most internal channels a device has. Real controllers have tens
/// of channels and at most a few thousand dies; the bound keeps the
/// channel table (8 B a channel, scanned per command) allocatable.
pub const MAX_CHANNELS: usize = 1 << 16;

/// A device or fabric configuration the device cannot run as written,
/// one variant per rule ([`DeviceProfile::check`],
/// [`crate::FabricConfig::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceConfigError {
    /// `channels` outside 1 to [`MAX_CHANNELS`]: with none, no command
    /// is ever served.
    Channels(usize),
    /// A queue depth outside 2 to [`MAX_QUEUE_DEPTH`]: one slot is
    /// sacrificed to tell full from empty, and NVMe's MQES caps the
    /// rest.
    QueueDepth(usize),
    /// `initiators` outside 1 to [`MAX_INITIATORS`].
    Initiators(usize),
    /// `loss_prob` outside `[0, MAX_LOSS_PROB]` (NaN included): a lost
    /// crossing is sent again until a copy arrives, `1 / (1 - p)` times
    /// on average.
    LossProb,
    /// The named latency or time field is longer than
    /// [`bpfstor_sim::MAX_CONFIG_TIME`] (one simulated hour).
    TooLong(&'static str),
}

impl std::fmt::Display for DeviceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use DeviceConfigError::*;
        match *self {
            Channels(n) => write!(f, "channels {n}: a device has 1 to {MAX_CHANNELS}"),
            QueueDepth(n) => write!(f, "queue depth {n}: NVMe rings have 2 to {MAX_QUEUE_DEPTH}"),
            Initiators(n) => write!(f, "initiators {n}: a fabric has 1 to {MAX_INITIATORS}"),
            LossProb => write!(f, "loss_prob must be in [0, {MAX_LOSS_PROB}]"),
            TooLong(field) => write!(f, "{field} is longer than one simulated hour"),
        }
    }
}
