//! Operation counting: the bridge from simulated SNN activity to hardware
//! cost.

use ncl_snn::ForwardActivity;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Counted work of a (part of a) computation.
///
/// All fields are raw event counts; the [`crate::profile::HardwareProfile`]
/// assigns them costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Synaptic accumulate operations (one per spike per fan-out target).
    pub synaptic_ops: u64,
    /// Membrane/integrator update operations (one per neuron per step).
    pub neuron_updates: u64,
    /// Parameter update operations (one per trained weight per optimizer
    /// step).
    pub weight_updates: u64,
    /// Codec frame operations (one per raster frame compressed or
    /// re-expanded).
    pub codec_frames: u64,
    /// Bits read from latent/replay memory.
    pub mem_read_bits: u64,
    /// Bits written to latent/replay memory.
    pub mem_write_bits: u64,
}

impl OpCounts {
    /// Work of one *inference* forward pass, derived from the simulator's
    /// activity trace.
    ///
    /// Per executed hidden stage: every incoming spike touches all `n`
    /// feed-forward weights; with recurrence enabled, every own spike of
    /// the previous step touches all `n` recurrent weights (counted via
    /// `out_spikes`, exact up to the final step's boundary). Neuron updates
    /// are dense (`n · steps`), including the readout integrators.
    #[must_use]
    pub fn forward(activity: &ForwardActivity, recurrent: bool) -> Self {
        let mut synaptic = 0u64;
        for stage in &activity.stages {
            synaptic += stage.in_spikes * stage.neurons as u64;
            if recurrent {
                synaptic += stage.out_spikes * stage.neurons as u64;
            }
        }
        synaptic += activity.readout_in_spikes * activity.outputs as u64;
        OpCounts {
            synaptic_ops: synaptic,
            neuron_updates: activity.neuron_updates(),
            ..OpCounts::default()
        }
    }

    /// Work of one *training* pass over the same activity: forward plus a
    /// backward sweep modeled at `2x` the forward compute (the standard
    /// flop accounting for reverse-mode differentiation), plus one update
    /// op per trained parameter.
    #[must_use]
    pub fn training(activity: &ForwardActivity, recurrent: bool, trained_params: u64) -> Self {
        let fwd = OpCounts::forward(activity, recurrent);
        OpCounts {
            synaptic_ops: fwd.synaptic_ops * 3,
            neuron_updates: fwd.neuron_updates * 3,
            weight_updates: trained_params,
            ..OpCounts::default()
        }
    }

    /// Work of compressing or decompressing `frames` raster frames of
    /// `neurons` bits each, including the implied memory traffic.
    #[must_use]
    pub fn codec(frames: u64, neurons: u64, write: bool) -> Self {
        let bits = frames * neurons;
        OpCounts {
            codec_frames: frames,
            mem_read_bits: if write { 0 } else { bits },
            mem_write_bits: if write { bits } else { 0 },
            ..OpCounts::default()
        }
    }

    /// Whether every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == OpCounts::default()
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            synaptic_ops: self.synaptic_ops + rhs.synaptic_ops,
            neuron_updates: self.neuron_updates + rhs.neuron_updates,
            weight_updates: self.weight_updates + rhs.weight_updates,
            codec_frames: self.codec_frames + rhs.codec_frames,
            mem_read_bits: self.mem_read_bits + rhs.mem_read_bits,
            mem_write_bits: self.mem_write_bits + rhs.mem_write_bits,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_snn::{Network, NetworkConfig};
    use ncl_spike::SpikeRaster;

    fn traced_activity(steps: usize) -> (ForwardActivity, Network) {
        let net = Network::new(NetworkConfig::tiny(8, 3)).unwrap();
        let input = SpikeRaster::from_fn(8, steps, |n, t| (n + t) % 2 == 0);
        let (_, activity) = net.forward_from_traced(0, &input, None).unwrap();
        (activity, net)
    }

    #[test]
    fn forward_counts_scale_with_steps() {
        let (a10, _) = traced_activity(10);
        let (a40, _) = traced_activity(40);
        let f10 = OpCounts::forward(&a10, true);
        let f40 = OpCounts::forward(&a40, true);
        assert!(
            f40.synaptic_ops > 2 * f10.synaptic_ops,
            "more steps, more spikes"
        );
        assert_eq!(
            f40.neuron_updates,
            4 * f10.neuron_updates,
            "dense updates scale linearly"
        );
    }

    #[test]
    fn recurrence_adds_ops() {
        let (a, _) = traced_activity(20);
        let with_rec = OpCounts::forward(&a, true);
        let without = OpCounts::forward(&a, false);
        assert!(with_rec.synaptic_ops > without.synaptic_ops);
        assert_eq!(with_rec.neuron_updates, without.neuron_updates);
    }

    #[test]
    fn training_is_3x_forward_plus_updates() {
        let (a, net) = traced_activity(20);
        let params = net.trainable_params(0).unwrap() as u64;
        let fwd = OpCounts::forward(&a, true);
        let train = OpCounts::training(&a, true, params);
        assert_eq!(train.synaptic_ops, 3 * fwd.synaptic_ops);
        assert_eq!(train.neuron_updates, 3 * fwd.neuron_updates);
        assert_eq!(train.weight_updates, params);
    }

    #[test]
    fn codec_traffic_direction() {
        let w = OpCounts::codec(50, 200, true);
        assert_eq!(w.mem_write_bits, 10_000);
        assert_eq!(w.mem_read_bits, 0);
        assert_eq!(w.codec_frames, 50);
        let r = OpCounts::codec(50, 200, false);
        assert_eq!(r.mem_read_bits, 10_000);
        assert_eq!(r.mem_write_bits, 0);
    }

    #[test]
    fn add_and_zero() {
        let (a, _) = traced_activity(10);
        let f = OpCounts::forward(&a, true);
        let mut sum = OpCounts::default();
        assert!(sum.is_zero());
        sum += f;
        sum += f;
        assert_eq!(sum.synaptic_ops, 2 * f.synaptic_ops);
        assert_eq!((f + f).neuron_updates, sum.neuron_updates);
        assert!(!sum.is_zero());
        assert!(!sum.is_zero());
    }
}
