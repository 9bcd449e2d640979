//! Simulated time.
//!
//! Time is a `u64` count of nanoseconds since simulation start. A `u64`
//! holds ~584 years of nanoseconds, comfortably covering the paper's
//! longest experiment (24 simulated hours of YCSB in §4).

/// A point in simulated time (or a duration), in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// The longest time a configuration may name — a cost, latency, timeout
/// or interval: one simulated hour. An instant `now + t` then stays far
/// from overflow however long a run lasts, and no device or link comes
/// within orders of magnitude of it.
pub const MAX_CONFIG_TIME: Nanos = 3_600 * SECOND;

/// The one time rule of every configuration check: `ns` is at most
/// [`MAX_CONFIG_TIME`], else the refusal `too_long` names the field.
pub fn check_time<E>(ns: Nanos, too_long: E) -> Result<(), E> {
    crate::ensure(ns <= MAX_CONFIG_TIME, too_long)
}

/// Formats a nanosecond quantity with an adaptive unit for human output.
///
/// # Examples
///
/// ```
/// use bpfstor_sim::time::pretty;
/// assert_eq!(pretty(351), "351ns");
/// assert_eq!(pretty(6_270), "6.27us");
/// assert_eq!(pretty(4_160_000), "4.16ms");
/// assert_eq!(pretty(2_000_000_000), "2.00s");
/// ```
pub fn pretty(ns: Nanos) -> String {
    if ns < MICROSECOND {
        format!("{ns}ns")
    } else if ns < MILLISECOND {
        format!("{:.2}us", ns as f64 / MICROSECOND as f64)
    } else if ns < SECOND {
        format!("{:.2}ms", ns as f64 / MILLISECOND as f64)
    } else {
        format!("{:.2}s", ns as f64 / SECOND as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_consistent() {
        assert_eq!(MICROSECOND * 1_000, MILLISECOND);
        assert_eq!(MILLISECOND * 1_000, SECOND);
    }

    #[test]
    fn pretty_boundaries() {
        assert_eq!(pretty(0), "0ns");
        assert_eq!(pretty(999), "999ns");
        assert_eq!(pretty(1_000), "1.00us");
        assert_eq!(pretty(999_999), "1000.00us");
        assert_eq!(pretty(1_000_000), "1.00ms");
        assert_eq!(pretty(1_000_000_000), "1.00s");
    }
}
