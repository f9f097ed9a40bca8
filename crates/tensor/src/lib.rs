//! Minimal dense linear-algebra and RNG substrate for the Replay4NCL stack.
//!
//! The Replay4NCL reproduction deliberately avoids heavyweight tensor
//! frameworks: spiking networks of the size used by the paper
//! (700‑200‑100‑50‑20 neurons) only need dense matrix/vector products,
//! event-driven accumulation, a few initializers, and a deterministic RNG.
//! This crate provides exactly that, with `f32` storage throughout.
//!
//! # Example
//!
//! ```
//! use ncl_tensor::{Matrix, Rng, ops};
//!
//! # fn main() -> Result<(), ncl_tensor::TensorError> {
//! let mut rng = Rng::seed_from_u64(7);
//! let w = Matrix::xavier_uniform(4, 3, &mut rng);
//! let x = vec![1.0, 0.5, -0.25];
//! let mut y = vec![0.0; 4];
//! ops::gemv(&w, &x, &mut y)?;
//! assert_eq!(y.len(), 4);
//! # Ok(())
//! # }
//! ```

pub mod error;
mod init;
mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use matrix::Matrix;
pub use rng::Rng;
