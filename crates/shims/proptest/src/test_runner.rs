//! Harness plumbing: config, RNG, and per-case outcome.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Runner configuration. Only `cases` is honoured by the shim, and the
/// `PROPTEST_CASES` environment variable overrides it.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }

    /// The number of cases to run: `PROPTEST_CASES` when set, else
    /// [`ProptestConfig::cases`].
    pub fn effective_cases(&self) -> u32 {
        env_u64("PROPTEST_CASES").map_or(self.cases, |n| {
            u32::try_from(n).unwrap_or_else(|_| panic!("PROPTEST_CASES={n} exceeds u32"))
        })
    }
}

/// Sampling seed used when `PROPTEST_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0x70726f70_74657374;

/// The sampling seed: `PROPTEST_SEED` (decimal or `0x`-prefixed hex) when
/// set, else [`DEFAULT_SEED`].
pub fn seed() -> u64 {
    env_u64("PROPTEST_SEED").unwrap_or(DEFAULT_SEED)
}

/// Parse an unsigned integer environment variable; a set but malformed
/// value is a usage error, not something to ignore.
fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    Some(parse_u64(&raw).unwrap_or_else(|| panic!("{name}={raw:?} is not an unsigned integer")))
}

/// Decimal or `0x`-prefixed hex, `_` separators allowed.
fn parse_u64(text: &str) -> Option<u64> {
    let text = text.trim().replace('_', "");
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        // Upstream defaults to 256; 64 keeps suite time reasonable while
        // still exercising the input space.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG used for sampling strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Seeded RNG: the same seed samples the same cases.
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` discarded the case.
    Reject,
    /// `prop_assert*` failed with this message.
    Fail(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_parse_in_decimal_and_hex() {
        assert_eq!(parse_u64("512"), Some(512));
        assert_eq!(parse_u64(" 0x70726f70_74657374 "), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("0XfF"), Some(255));
        assert_eq!(parse_u64("1_000"), Some(1000));
        assert_eq!(parse_u64(""), None);
        assert_eq!(parse_u64("-1"), None);
        assert_eq!(parse_u64("0xg"), None);
    }
}
