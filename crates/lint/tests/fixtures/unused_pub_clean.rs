//! Public surface every item of which has a user.

/// Named only by `encode`'s signature: reachable through the public API.
pub struct Frame {
    pub bits: u64,
}

/// Called by an integration test.
pub fn encode(bits: u64) -> Frame {
    Frame { bits }
}

/// Called by a bin of this crate.
pub fn decode_cli(frame: &Frame) -> u64 {
    helper(frame.bits)
}

/// Called by the frozen benchmark.
pub fn bench_hook() {}

/// Not `pub`: rustc's dead_code lint owns it.
pub(crate) fn helper(bits: u64) -> u64 {
    bits
}

#[cfg(test)]
pub fn test_only_helper() {}
