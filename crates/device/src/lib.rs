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
//!   parse;
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
    Transport, TransportConfig,
};
