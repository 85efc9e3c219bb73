//! Discrete-event simulation kernel.
//!
//! One primitive covers everything the pipeline model needs: a
//! [`Resource`] — a serially reusable resource (a die, a channel bus, the
//! external link) with FIFO reservation semantics: a request placed at
//! time `t` begins at `max(t, next_free)`.
//!
//! Simulated time is in **nanoseconds** (`u64`), which keeps microsecond
//! NAND latencies and gigabyte-per-second bus transfers exactly
//! representable without floating-point drift in long runs.

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Converts microseconds (the paper's native unit) to [`SimTime`].
pub fn us(us: f64) -> SimTime {
    (us * 1_000.0).round() as SimTime
}

/// Converts [`SimTime`] back to microseconds.
pub fn to_us(t: SimTime) -> f64 {
    t as f64 / 1_000.0
}

/// Duration of transferring `bytes` over a link of `gb_per_s` (10⁹ B/s),
/// in nanoseconds.
pub fn transfer_ns(bytes: u64, gb_per_s: f64) -> SimTime {
    assert!(gb_per_s > 0.0, "bandwidth must be positive");
    (bytes as f64 / gb_per_s).round() as SimTime
}

/// A serially reusable resource with FIFO reservations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resource {
    next_free: SimTime,
    busy: SimTime,
}

impl Resource {
    /// Creates a resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `duration`, starting no earlier than
    /// `ready`. Returns the `(start, end)` of the granted slot.
    pub fn reserve(&mut self, ready: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.next_free);
        let end = start + duration;
        self.next_free = end;
        self.busy += duration;
        (start, end)
    }

    /// Total reserved (busy) time.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(us(22.5), 22_500);
        assert!((to_us(25_000) - 25.0).abs() < 1e-12);
        // 32 KiB over 1.2 GB/s ≈ 27.3 µs (Fig. 7's tDMA).
        let t = transfer_ns(32 * 1024, 1.2);
        assert!((to_us(t) - 27.3).abs() < 0.1, "{}", to_us(t));
        // 32 KiB over 8 GB/s ≈ 4.1 µs (Fig. 7's tEXT).
        let t = transfer_ns(32 * 1024, 8.0);
        assert!((to_us(t) - 4.1).abs() < 0.1, "{}", to_us(t));
    }

    #[test]
    fn resource_serializes_requests() {
        let mut r = Resource::new();
        let (s1, e1) = r.reserve(0, 100);
        assert_eq!((s1, e1), (0, 100));
        // A request arriving while busy waits.
        let (s2, e2) = r.reserve(50, 100);
        assert_eq!((s2, e2), (100, 200));
        // A request arriving after the resource is free starts immediately.
        let (s3, e3) = r.reserve(500, 10);
        assert_eq!((s3, e3), (500, 510));
        assert_eq!(r.busy_time(), 210);
    }
}
