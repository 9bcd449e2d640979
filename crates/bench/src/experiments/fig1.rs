//! Figure 1: where a 512 B read's time goes, by device generation.

use bpfstor_device::{DeviceClass, DeviceProfile};

use super::{machine_with_file, Scale, HUGE};
use crate::drivers::RandomReadDriver;
use crate::report::{us, Table};

/// Figure 1: share of 512 B random-read latency attributable to software
/// vs the device, across four device generations. Measures: the
/// software share (%) per generation.
pub fn fig1(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 1 — kernel latency overhead, 512B random reads",
        &[
            "device",
            "device us",
            "software us",
            "hardware %",
            "software %",
        ],
    );
    let ids = [
        "software_pct_hdd",
        "software_pct_nand",
        "software_pct_nvm1",
        "software_pct_nvm2",
    ];
    for (class, id) in DeviceClass::ALL.into_iter().zip(ids) {
        let profile = DeviceProfile::for_class(class);
        let slow = matches!(class, DeviceClass::Hdd);
        let (mut m, fd) = machine_with_file(profile, 2048, 0xF161 ^ class as u64);
        let mut d = RandomReadDriver::new(fd, 2048, scale.read_count(slow));
        let report = m.run_closed_loop(1, HUGE, &mut d);
        let ios = report.trace.ios.max(1) as f64;
        let dev = report.trace.device as f64 / ios;
        // The paper measures the read() path: exclude application time.
        let sw = (report.trace.crossing
            + report.trace.syscall
            + report.trace.fs
            + report.trace.bio
            + report.trace.drv) as f64
            / ios;
        let total = dev + sw;
        t.row(vec![
            DeviceClass::label(class).to_string(),
            us(dev),
            us(sw),
            format!("{:.1}", dev / total * 100.0),
            format!("{:.1}", sw / total * 100.0),
        ]);
        t.measure(id, sw / total * 100.0);
    }
    t
}
