//! The workspace's one FNV-1a hash.
//!
//! Every stable 64-bit key in the workspace folds through [`Fingerprint`]:
//!
//! * the characterization and solve caches key a measured table by
//!   *everything that influenced the measurement* (model configuration,
//!   grids, render settings), folded as exact bit patterns — two
//!   configurations collide only if every folded value is bit-identical,
//!   which is precisely the condition under which the table is reusable;
//! * [`crate::artifact::digest`] proves a checkpoint or snapshot on disk
//!   is the one that was written;
//! * the serve layer's consistent-hash ring and tenant lanes route on
//!   raw-byte folds ([`Fingerprint::push_bytes`]).
//!
//! It lives at the bottom of the crate graph so all of them share it;
//! `vardelay_analog::Fingerprint` re-exports it.

/// An incremental FNV-1a hasher over typed values.
///
/// # Examples
///
/// ```
/// use vardelay_obs::Fingerprint;
///
/// let mut a = Fingerprint::new();
/// a.push_f64(1.5).push_u64(4);
/// let mut b = Fingerprint::new();
/// b.push_f64(1.5).push_u64(4);
/// assert_eq!(a.finish(), b.finish());
/// b.push_f64(0.0);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Folds raw bytes, **without** a length prefix — the plain FNV-1a
    /// byte fold. Callers that concatenate variable-length fields must
    /// separate them themselves (or use [`Fingerprint::push_str`]).
    #[inline]
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a raw 64-bit value (little-endian bytes).
    #[inline]
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Folds a float by its exact bit pattern (so `-0.0 != 0.0` and NaN
    /// payloads are distinguished — the cache must never alias "almost
    /// equal" configurations).
    #[inline]
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Folds a length/count.
    #[inline]
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Folds a string (length-prefixed, so concatenations cannot alias).
    #[inline]
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_usize(s.len()).push_bytes(s.as_bytes())
    }

    /// Folds a slice of floats (length-prefixed).
    pub fn push_f64_slice(&mut self, vs: &[f64]) -> &mut Self {
        self.push_usize(vs.len());
        for &v in vs {
            self.push_f64(v);
        }
        self
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_matters() {
        let mut a = Fingerprint::new();
        a.push_f64(1.0).push_f64(2.0);
        let mut b = Fingerprint::new();
        b.push_f64(2.0).push_f64(1.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        let mut a = Fingerprint::new();
        a.push_f64_slice(&[1.0]).push_f64_slice(&[2.0, 3.0]);
        let mut b = Fingerprint::new();
        b.push_f64_slice(&[1.0, 2.0]).push_f64_slice(&[3.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn negative_zero_is_distinct() {
        let mut a = Fingerprint::new();
        a.push_f64(0.0);
        let mut b = Fingerprint::new();
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn strings_fold_with_length() {
        let mut a = Fingerprint::new();
        a.push_str("ab").push_str("c");
        let mut b = Fingerprint::new();
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn push_bytes_is_the_unprefixed_fold() {
        // Raw bytes concatenate: the plain FNV-1a byte stream.
        let mut a = Fingerprint::new();
        a.push_bytes(b"ab").push_bytes(b"c");
        let mut b = Fingerprint::new();
        b.push_bytes(b"abc");
        assert_eq!(a.finish(), b.finish());
        // The empty fold is the offset basis.
        assert_eq!(Fingerprint::new().push_bytes(b"").finish(), FNV_OFFSET);
    }
}
