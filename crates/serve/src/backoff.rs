//! Bounded exponential backoff for queue-full retry loops.
//!
//! A bare `yield_now` retry loop burns a full core while the queue stays
//! full: on a loaded host the spinning submitter competes with the very
//! workers that must drain the queue to unblock it. [`Backoff`] escalates
//! instead — a few busy spins (the queue usually frees a slot within
//! nanoseconds under normal load), then scheduler yields, then short
//! parks with exponentially growing but **bounded** sleeps, so a stalled
//! consumer costs microseconds of latency rather than a core.

use std::time::Duration;

/// Escalating wait strategy for retry loops.
///
/// The schedule is deterministic: `SPINS` spin-loop hints, then `YIELDS`
/// scheduler yields, then parks starting at `BASE_PARK` (10 µs) and
/// doubling to at most `MAX_PARK` (1 ms). Call
/// [`reset`](Backoff::reset) after a successful operation so the next
/// contention episode starts cheap again.
#[derive(Debug, Clone, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Busy-spin steps before the first yield.
    const SPINS: u32 = 6;
    /// Scheduler yields before the first park.
    const YIELDS: u32 = 4;
    /// First park duration.
    const BASE_PARK: Duration = Duration::from_micros(10);
    /// Ceiling on a single park — bounds worst-case added latency once the
    /// queue frees up.
    const MAX_PARK: Duration = Duration::from_millis(1);

    /// A fresh backoff at the start of its schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restarts the schedule (call after a success).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Waits one step of the schedule and advances it.
    pub fn wait(&mut self) {
        if self.step < Self::SPINS {
            std::hint::spin_loop();
        } else if self.step < Self::SPINS + Self::YIELDS {
            std::thread::yield_now();
        } else {
            let exp = (self.step - Self::SPINS - Self::YIELDS).min(16);
            let park = Self::BASE_PARK
                .saturating_mul(1u32 << exp)
                .min(Self::MAX_PARK);
            std::thread::park_timeout(park);
        }
        self.step = self.step.saturating_add(1);
    }

    /// Whether the schedule has escalated past spinning (used by tests to
    /// assert the loop stops burning a core).
    pub fn is_parking(&self) -> bool {
        self.step > Self::SPINS + Self::YIELDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn schedule_escalates_to_parking() {
        let mut b = Backoff::new();
        assert!(!b.is_parking());
        for _ in 0..(Backoff::SPINS + Backoff::YIELDS + 2) {
            b.wait();
        }
        assert!(b.is_parking());
    }

    #[test]
    fn reset_restarts_the_schedule() {
        let mut b = Backoff::new();
        for _ in 0..32 {
            b.wait();
        }
        assert!(b.is_parking());
        b.reset();
        assert!(!b.is_parking());
    }

    #[test]
    fn parks_are_bounded() {
        let mut b = Backoff::new();
        // Drive deep into the park phase; no single wait may exceed the
        // ceiling by more than scheduler noise.
        for _ in 0..64 {
            b.wait();
        }
        let start = Instant::now();
        b.wait();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "park exceeded bound: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn step_counter_saturates() {
        // Saturating step arithmetic: must neither panic nor wrap back to
        // the expensive-spin phase.
        let mut b = Backoff { step: u32::MAX - 1 };
        b.wait();
        b.wait();
        assert_eq!(b.step, u32::MAX);
        assert!(b.is_parking());
    }
}
