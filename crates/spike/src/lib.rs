//! Spike-train substrate for the Replay4NCL reproduction.
//!
//! Everything the latent-replay pipeline stores, moves or measures is a
//! *spike raster*: a binary `neurons x timesteps` matrix. This crate
//! provides:
//!
//! * [`SpikeRaster`] — a bit-packed, time-major raster with cheap per-step
//!   active-neuron iteration (the access pattern of the event-driven SNN
//!   forward pass);
//! * [`codec`] — the compression/decompression mechanism of the paper's
//!   Fig. 7 (frame decimation / zero re-expansion), plus size accounting;
//! * [`resample`] — temporal re-binning used for timestep optimization
//!   (Section III-A), with several strategies;
//! * [`metrics`] — spike counts, rates and mean spike times (the quantity
//!   driving the paper's adaptive threshold, Alg. 1);
//! * [`memory`] — bit-exact latent-memory accounting (Fig. 12);
//! * [`encode`] — a Poisson-rate encoder for turning analog vectors into
//!   rasters.
//!
//! # Example
//!
//! ```
//! use ncl_spike::{SpikeRaster, codec::{self, CompressionFactor}};
//!
//! # fn main() -> Result<(), ncl_spike::SpikeError> {
//! let mut raster = SpikeRaster::new(4, 10);
//! raster.set(2, 5, true);
//! let compressed = codec::compress(&raster, CompressionFactor::new(2)?);
//! assert_eq!(compressed.stored_steps(), 5);
//! let restored = compressed.decompress();
//! assert_eq!(restored.steps(), 10);
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod encode;
pub mod error;
pub mod memory;
pub mod metrics;
pub mod raster;
pub mod resample;
pub mod rle;

pub use error::SpikeError;
pub use raster::SpikeRaster;
