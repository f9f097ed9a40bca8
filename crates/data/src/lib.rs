//! Synthetic SHD-like event dataset and class-incremental task splits.
//!
//! The paper evaluates on the Spiking Heidelberg Digits (SHD) dataset:
//! 700-channel cochlea-model event streams of 20 spoken-digit classes.
//! That dataset is not available offline, so this crate generates a
//! *synthetic SHD-like* workload with the same interface properties
//! (700 channels, 20 classes, ~1 s of events binned into T timesteps,
//! within-class variability) — see DESIGN.md §3 for the substitution
//! rationale.
//!
//! Class identity is carried by a *channel trajectory*: each class is a
//! sequence of waypoint channels interpolated over time (a caricature of a
//! formant sweep). Classes share the same channel range and similar total
//! spike counts, so coarse time-collapsed statistics are weakly
//! discriminative and the temporal structure matters — which is exactly
//! what makes the paper's timestep reduction a real trade-off.
//!
//! # Example
//!
//! ```
//! use ncl_data::{ShdLikeConfig, generator};
//!
//! # fn main() -> Result<(), ncl_data::DataError> {
//! let config = ShdLikeConfig::smoke_test();
//! let dataset = generator::generate(&config)?;
//! assert_eq!(dataset.classes(), config.classes);
//! assert!(dataset.len() > 0);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod generator;
pub mod rate_coded;
pub mod sample;
pub mod split;

pub use error::DataError;
pub use generator::ShdLikeConfig;
pub use sample::{Dataset, LabeledSample};
pub use split::ClassIncrementalSplit;
