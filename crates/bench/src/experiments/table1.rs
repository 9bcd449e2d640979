//! Table 1: the per-layer latency of one 512 B read.

use bpfstor_device::DeviceProfile;

use super::{machine_with_file, Scale, HUGE};
use crate::claims::claim;
use crate::drivers::RandomReadDriver;
use crate::report::Table;

/// Table 1: average latency breakdown of a 512 B random `read()` on the
/// second-generation Optane device. Row labels and the `paper ns`
/// column are the Table 1 rows of the claims ledger; measures: every
/// row's nanoseconds per read.
pub fn table1(scale: Scale) -> Table {
    let (mut m, fd) = machine_with_file(DeviceProfile::optane_gen2_p5800x(), 4096, 0x7AB1E1);
    let mut d = RandomReadDriver::new(fd, 4096, scale.read_count(false));
    let report = m.run_closed_loop(1, HUGE, &mut d);
    let ios = report.trace.ios.max(1) as f64;
    let layers = [
        ("crossing_ns", report.trace.crossing),
        ("syscall_ns", report.trace.syscall),
        ("ext4_ns", report.trace.fs),
        ("bio_ns", report.trace.bio),
        ("driver_ns", report.trace.drv),
        ("device_ns", report.trace.device),
    ]
    .map(|(id, total_ns)| (id, total_ns as f64 / ios));
    let total: f64 = layers.iter().map(|(_, per_io)| per_io).sum();
    let mut t = Table::new(
        "Table 1 — latency breakdown, 512B random read(), NVM-2",
        &["layer", "measured ns", "share %", "paper ns"],
    );
    for (id, per_io) in layers.into_iter().chain([("total_ns", total)]) {
        let paper = claim("table1", id);
        t.row(vec![
            paper.what.to_string(),
            format!("{per_io:.0}"),
            format!("{:.1}", per_io / total * 100.0),
            paper.paper.to_string(),
        ]);
        t.measure(id, per_io);
    }
    t.note("software layers are configured from Table 1; device time is sampled");
    t
}
