//! Workspace facade for the Replay4NCL reproduction.
//!
//! This root package exists to own the cross-crate integration tests in
//! `tests/` and the runnable walkthroughs in `examples/`; the actual
//! implementation lives in the 13 `crates/` members. The facade
//! re-exports each of them under one roof so downstream experiments can
//! depend on a single package.

pub use ncl_bench as bench;
pub use ncl_data as data;
pub use ncl_hw as hw;
pub use ncl_online as online;
pub use ncl_runtime as runtime;
pub use ncl_serve as serve;
pub use ncl_snn as snn;
pub use ncl_spike as spike;
pub use ncl_tensor as tensor;
pub use replay4ncl as replay;
