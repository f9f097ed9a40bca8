//! Public surface nothing outside the crate uses.

/// Named only by this file's own unit tests.
pub fn only_unit_tested(x: u32) -> u32 {
    x + 1
}

/// Named elsewhere only in a comment, a string and a `pub use`.
pub fn only_mentioned() {}

/// A type no signature or user names.
pub struct Orphan;

impl Orphan {
    /// An inherent method nothing calls.
    pub fn poke(&self) {}
}

/// A type a user names, whose private field shares a method's name.
pub struct Ring {
    log: Vec<u8>,
}

impl Ring {
    /// Named only by binders: the field above and a user's parameter.
    pub fn log(&self) -> &[u8] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps() {
        assert_eq!(only_unit_tested(1), 2);
        only_mentioned();
        Orphan.poke();
    }
}
