use std::collections::HashMap;

use bpfstor::device::SECTOR_SIZE;

/// The sector store as it was before it went chunked: one entry per
/// written sector, absent = zero.
#[derive(Default)]
pub struct SectorMap(HashMap<u64, [u8; SECTOR_SIZE]>);

impl SectorMap {
    /// Writes whole sectors starting at `slba`.
    pub fn write(&mut self, slba: u64, data: &[u8]) {
        for (lba, sector) in (slba..).zip(data.chunks_exact(SECTOR_SIZE)) {
            self.0.insert(lba, sector.try_into().expect("one sector"));
        }
    }

    pub fn discard(&mut self, slba: u64, nlb: u32) {
        for lba in slba..slba + u64::from(nlb) {
            self.0.remove(&lba);
        }
    }

    pub fn read(&self, slba: u64, nlb: u32) -> Vec<u8> {
        (slba..slba + u64::from(nlb))
            .flat_map(|lba| self.0.get(&lba).copied().unwrap_or([0; SECTOR_SIZE]))
            .collect()
    }
}
