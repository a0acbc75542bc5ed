//! CRC32 (IEEE 802.3 polynomial), the integrity check shared by the
//! durable formats: `persist` v3 snapshot trailers, checkpoint file
//! trailers and the `dppr-wal` record framing all use it, so a snapshot
//! or log frame that was torn or bit-flipped on disk is detected before
//! any of its contents are trusted.
//!
//! The build environment is offline (no `crc32fast`), so this is a
//! table-driven slicing-by-8 implementation: eight `const`-built 256-entry
//! tables fold eight input bytes per step, and the plain byte-at-a-time
//! loop handles the tail. Every checkpoint write and load hashes each
//! state once, so this sits on the checkpoint path; the checkpoint file's
//! own trailer takes each state's CRC through [`Crc32::combine`] instead
//! of hashing the same bytes a second time.

/// The reflected CRC32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Reflected CRC32 lookup tables for polynomial `0xEDB88320`: `TABLES[0]`
/// is the byte table, and `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `a·b` modulo the CRC polynomial, both in the reflected bit order
/// (bit 31 is x⁰). `a` must be nonzero.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let (mut m, mut p) = (1u32 << 31, 0u32);
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` = x^(2^k) modulo the polynomial.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < 32 {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// The byte-at-a-time CRC step over `bytes`, starting from the raw
/// register `crc`: the tail handler of [`Crc32::update`] and the reference
/// its tests compare against.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC32 hasher (for writers that do not hold all bytes at
/// once).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` through the hasher, eight bytes per table step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        self.state = update_bytewise(crc, words.remainder());
    }

    /// Feeds a block of `len` bytes whose own CRC32 is `crc` without
    /// touching its bytes: afterwards the hasher holds the checksum of
    /// everything fed so far followed by that block (zlib's
    /// `crc32_combine`, in O(log len) steps).
    pub fn combine(&mut self, crc: u32, len: u64) {
        // Shifting the checksum so far past `len` zero bytes multiplies it
        // by x^(8·len); the block's own CRC then adds in.
        let (mut shift, mut n, mut k) = (1u32 << 31, len, 3);
        while n != 0 {
            if n & 1 != 0 {
                shift = mul_mod_p(X2N[k & 31], shift);
            }
            n >>= 1;
            k += 1;
        }
        self.state = !(mul_mod_p(shift, !self.state) ^ crc);
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn reference(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn slicing_by_8_matches_the_byte_loop() {
        let mut rng = SmallRng::seed_from_u64(0xC3C3);
        let data: Vec<u8> = (0..128).map(|_| rng.gen_range(0..=255u8)).collect();
        // Every length 0..=64 at every start offset 0..8: each split of
        // the input between the 8-byte steps and the tail.
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), reference(s), "offset {offset} len {len}");
            }
        }
        // Arbitrary update splits agree with the one-shot value.
        let data: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..=255u8)).collect();
        let want = reference(&data);
        for _ in 0..200 {
            let mut h = Crc32::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(40)));
                h.update(head);
                rest = tail;
            }
            assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn combine_matches_feeding_the_bytes() {
        let mut rng = SmallRng::seed_from_u64(0xC0B1);
        let data: Vec<u8> = (0..3000).map(|_| rng.gen_range(0..=255u8)).collect();
        for _ in 0..200 {
            let cut = rng.gen_range(0..=data.len());
            let (head, tail) = data.split_at(cut);
            let mut h = Crc32::new();
            h.update(head);
            h.combine(crc32(tail), tail.len() as u64);
            assert_eq!(h.finish(), crc32(&data), "cut at {cut}");
        }
        // An empty block changes nothing; an empty prefix is the block.
        let mut h = Crc32::new();
        h.update(&data);
        h.combine(crc32(&[]), 0);
        assert_eq!(h.finish(), crc32(&data));
        let mut h = Crc32::new();
        h.combine(crc32(&data), data.len() as u64);
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"dppr durable bytes".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
