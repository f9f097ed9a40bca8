//! Recurrent spiking-neural-network simulator with surrogate-gradient BPTT
//! training — the substrate the Replay4NCL methodology runs on.
//!
//! This crate reimplements, from scratch and CPU-only, everything the paper
//! obtained from snnTorch + CUDA:
//!
//! * [`layer::RecurrentLifLayer`] — event-driven recurrent LIF layers
//!   (hard reset, Eq. (1)–(2) of the paper);
//! * [`readout::LiReadout`] — leaky-integrator readout with mean-membrane
//!   logits;
//! * [`network::Network`] — the stage-indexed 700‑200‑100‑50‑20 stack of
//!   Fig. 6, with frozen/learning splitting for latent replay;
//! * [`surrogate::Surrogate`] — the fast-sigmoid surrogate gradient
//!   (Fig. 5);
//! * [`bptt`] — full backpropagation through time, validated against
//!   finite differences and single-sample overfitting tests;
//! * [`adaptive`] — the Alg. 1 adaptive-threshold schedules of Replay4NCL;
//! * [`optimizer`] / [`trainer`] — Adam and parallel mini-batch loops;
//! * [`serialize`] — compact binary model checkpoints.
//!
//! # Example: train a small SNN
//!
//! ```
//! use ncl_snn::{Network, NetworkConfig};
//! use ncl_snn::optimizer::Optimizer;
//! use ncl_snn::trainer::{self, TrainOptions};
//! use ncl_spike::SpikeRaster;
//! use ncl_tensor::Rng;
//!
//! # fn main() -> Result<(), ncl_snn::SnnError> {
//! let mut net = Network::new(NetworkConfig::tiny(8, 2))?;
//! let mut rng = Rng::seed_from_u64(1);
//! // Two trivially-separable classes of spike rasters.
//! let data: Vec<(SpikeRaster, u16)> = (0..8)
//!     .map(|i| {
//!         let label = (i % 2) as u16;
//!         let r = SpikeRaster::from_fn(8, 10, |n, _| (n < 4) == (label == 0));
//!         (r, label)
//!     })
//!     .collect();
//! let refs: Vec<(&SpikeRaster, u16)> = data.iter().map(|(r, l)| (r, *l)).collect();
//! let mut opt = Optimizer::adam(1e-2);
//! let mut scratch = trainer::TrainScratch::new();
//! let mut report = None;
//! for _ in 0..3 {
//!     report = Some(trainer::train_epoch_with(
//!         &mut net, &refs, &mut opt, &TrainOptions::default(), &mut rng, &mut scratch,
//!     )?);
//! }
//! assert!(report.unwrap().mean_loss.is_finite());
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod bptt;
pub mod config;
pub mod error;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optimizer;
pub(crate) mod readout;
pub mod serialize;
pub mod surrogate;
pub mod trainer;

pub use adaptive::{AdaptivePolicy, ThresholdMode, ThresholdSchedule};
pub use bptt::{BpttScratch, Gradients};
pub use config::{LifConfig, NetworkConfig, ReadoutConfig};
pub use error::SnnError;
pub use network::{ForwardActivity, ForwardScratch, History, Network, StageActivity};
pub use trainer::{EpochReport, TrainOptions, TrainScratch};
