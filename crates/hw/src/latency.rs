//! Latency model: counted events × cycle costs, divided by parallelism and
//! clock.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Add;

use crate::ops::OpCounts;
use crate::profile::HardwareProfile;

/// A latency quantity in seconds (newtype for unit safety).
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Latency(f64);

impl Latency {
    /// Zero latency.
    pub const ZERO: Latency = Latency(0.0);

    /// Constructs from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Latency(ms * 1e-3)
    }

    /// Value in seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Ratio `self / other` (speed-up of `other` over `self` when > 1);
    /// `f64::INFINITY` if `other` is zero.
    #[must_use]
    pub fn ratio_to(self, other: Latency) -> f64 {
        if other.0 == 0.0 {
            f64::INFINITY
        } else {
            self.0 / other.0
        }
    }
}

impl Add for Latency {
    type Output = Latency;

    fn add(self, rhs: Latency) -> Latency {
        Latency(self.0 + rhs.0)
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{:.3} ns", s * 1e9)
        }
    }
}

/// Computes the latency of counted work under a hardware profile.
///
/// Compute events are retired at `lanes` per cycle with per-class cycle
/// weights; memory traffic is overlapped-but-bounded by the profile's
/// bandwidth (modeled additively, a conservative upper bound).
#[must_use]
pub fn latency_of(ops: &OpCounts, profile: &HardwareProfile) -> Latency {
    let compute_cycles = (ops.synaptic_ops as f64 * profile.cycles_per_synop
        + ops.neuron_updates as f64 * profile.cycles_per_neuron_update
        + ops.weight_updates as f64 * profile.cycles_per_weight_update
        + ops.codec_frames as f64 * profile.cycles_per_codec_frame)
        / profile.lanes;
    let mem_cycles = (ops.mem_read_bits + ops.mem_write_bits) as f64 / profile.mem_bits_per_cycle;
    Latency((compute_cycles + mem_cycles) / profile.clock_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_zero_latency() {
        let l = latency_of(&OpCounts::default(), &HardwareProfile::embedded());
        assert_eq!(l, Latency::ZERO);
    }

    #[test]
    fn known_value() {
        let p = HardwareProfile::embedded();
        let ops = OpCounts {
            synaptic_ops: 1600,
            ..OpCounts::default()
        };
        // 1600 synops * 1 cycle / 8 lanes = 200 cycles @ 200 MHz = 1 us.
        let l = latency_of(&ops, &p);
        assert!((l.seconds() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn latency_scales_linearly_in_work() {
        let p = HardwareProfile::embedded();
        let one = OpCounts {
            synaptic_ops: 1000,
            neuron_updates: 100,
            ..OpCounts::default()
        };
        let two = one + one;
        let l1 = latency_of(&one, &p);
        let l2 = latency_of(&two, &p);
        assert!((l2.seconds() - 2.0 * l1.seconds()).abs() < 1e-15);
    }

    #[test]
    fn memory_traffic_adds_latency() {
        let p = HardwareProfile::embedded();
        let compute = OpCounts {
            synaptic_ops: 1000,
            ..OpCounts::default()
        };
        let with_mem = OpCounts {
            mem_read_bits: 100_000,
            ..compute
        };
        assert!(latency_of(&with_mem, &p) > latency_of(&compute, &p));
    }

    #[test]
    fn more_lanes_is_faster() {
        let slow = HardwareProfile::embedded();
        let mut fast = HardwareProfile::embedded();
        fast.lanes *= 4.0;
        let ops = OpCounts {
            synaptic_ops: 10_000,
            ..OpCounts::default()
        };
        assert!(latency_of(&ops, &fast) < latency_of(&ops, &slow));
    }

    #[test]
    fn units_display_and_ratio() {
        assert_eq!(Latency(1.5).to_string(), "1.500 s");
        assert_eq!(Latency::from_millis(2.0).to_string(), "2.000 ms");
        assert_eq!(Latency(3e-6).to_string(), "3.000 us");
        assert_eq!(Latency(5e-9).to_string(), "5.000 ns");
        let a = Latency(4.0);
        let b = Latency(2.0);
        assert!((a.ratio_to(b) - 2.0).abs() < 1e-12);
        assert_eq!(a.ratio_to(Latency::ZERO), f64::INFINITY);
        assert!(((a + b).seconds() - 6.0).abs() < 1e-12);
    }
}
