//! Energy model: counted events × per-event energies.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Add;

use crate::ops::OpCounts;
use crate::profile::HardwareProfile;

/// An energy quantity in joules (newtype for unit safety).
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Value in joules.
    #[must_use]
    pub fn joules(self) -> f64 {
        self.0
    }

    /// Value in microjoules.
    #[must_use]
    pub fn microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// Ratio `self / other`; `f64::INFINITY` if `other` is zero.
    #[must_use]
    pub fn ratio_to(self, other: Energy) -> f64 {
        if other.0 == 0.0 {
            f64::INFINITY
        } else {
            self.0 / other.0
        }
    }
}

impl Add for Energy {
    type Output = Energy;

    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j >= 1.0 {
            write!(f, "{j:.3} J")
        } else if j >= 1e-3 {
            write!(f, "{:.3} mJ", j * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.3} uJ", j * 1e6)
        } else {
            write!(f, "{:.3} nJ", j * 1e9)
        }
    }
}

/// Computes the energy of counted work under a hardware profile.
#[must_use]
pub fn energy_of(ops: &OpCounts, profile: &HardwareProfile) -> Energy {
    let pj = ops.synaptic_ops as f64 * profile.e_synop_pj
        + ops.neuron_updates as f64 * profile.e_neuron_pj
        + ops.weight_updates as f64 * profile.e_weight_update_pj
        + ops.codec_frames as f64 * profile.e_codec_pj_per_frame
        + (ops.mem_read_bits + ops.mem_write_bits) as f64 * profile.e_mem_pj_per_bit;
    Energy(pj * 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_zero_energy() {
        let e = energy_of(&OpCounts::default(), &HardwareProfile::embedded());
        assert_eq!(e, Energy::ZERO);
    }

    #[test]
    fn known_value() {
        let profile = HardwareProfile::embedded();
        let ops = OpCounts {
            synaptic_ops: 1000,
            ..OpCounts::default()
        };
        let e = energy_of(&ops, &profile);
        assert!((e.joules() - 1000.0 * profile.e_synop_pj * 1e-12).abs() < 1e-18);
    }

    #[test]
    fn all_counters_contribute() {
        let profile = HardwareProfile::embedded();
        let base = OpCounts {
            synaptic_ops: 10,
            ..OpCounts::default()
        };
        let e0 = energy_of(&base, &profile);
        for f in [
            |o: &mut OpCounts| o.neuron_updates = 5,
            |o: &mut OpCounts| o.weight_updates = 5,
            |o: &mut OpCounts| o.codec_frames = 5,
            |o: &mut OpCounts| o.mem_read_bits = 100,
            |o: &mut OpCounts| o.mem_write_bits = 100,
        ] as [fn(&mut OpCounts); 5]
        {
            let mut o = base;
            f(&mut o);
            assert!(energy_of(&o, &profile) > e0);
        }
    }

    #[test]
    fn units_and_display() {
        assert!((Energy(1.0).microjoules() - 1e6).abs() < 1e-3);
        assert_eq!(Energy(2.5).to_string(), "2.500 J");
        assert_eq!(Energy(2.5e-3).to_string(), "2.500 mJ");
        assert_eq!(Energy(2.5e-6).to_string(), "2.500 uJ");
        assert_eq!(Energy(2.5e-9).to_string(), "2.500 nJ");
    }

    #[test]
    fn ratio_and_add() {
        let a = Energy(3.0);
        let b = Energy(1.5);
        assert!((a.ratio_to(b) - 2.0).abs() < 1e-12);
        assert!((a + b).joules() > a.joules());
        assert_eq!(a.ratio_to(Energy::ZERO), f64::INFINITY);
    }
}
