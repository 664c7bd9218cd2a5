//! Order-sensitive FNV-1a digest of a workload's outputs. Runs of one
//! commit with one seed must print the same digest; floats enter by their
//! bit patterns, so any arithmetic change shows.

pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    pub fn f32(&mut self, v: f32) -> &mut Digest {
        self.u64(u64::from(v.to_bits()))
    }

    /// A value by its `Debug` rendering (architectures, accelerator configs).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) -> &mut Digest {
        let text = format!("{v:?}");
        self.u64(text.len() as u64).bytes(text.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = Digest::new().u64(1).u64(2).finish();
        assert_eq!(a, Digest::new().u64(1).u64(2).finish());
        assert_ne!(a, Digest::new().u64(2).u64(1).finish());
        assert_ne!(
            Digest::new().f64(0.0).finish(),
            Digest::new().f64(-0.0).finish()
        );
        assert_ne!(
            Digest::new().debug(&"ab").debug(&"c").finish(),
            Digest::new().debug(&"a").debug(&"bc").finish()
        );
    }
}
