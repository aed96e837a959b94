//! Sparse functional main memory.

use std::collections::HashMap;
use std::ops::Range;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// A sparse, paged byte-addressable memory.
///
/// Pages are allocated on first touch, so multi-gigabyte address spaces
/// cost only what is actually used. Reads of untouched memory return
/// zeros, like freshly mapped pages, and never allocate.
///
/// Every access walks its byte range page by page: one map lookup and
/// one slice copy per 4 KiB page, so a bulk transfer moves data at
/// `memcpy` speed and a scalar access inside one page costs one lookup.
/// Values are little-endian, and addresses wrap modulo 2^64 like RISC-V
/// effective addresses: an access running past `u64::MAX` continues at
/// address 0.
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

/// Splits the `len` bytes at `addr` (wrapping past `u64::MAX`) into
/// per-page runs: `(page number, offset in the page, byte range of the
/// caller's buffer)`.
fn page_runs(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let a = addr.wrapping_add(done as u64);
        let off = (a as usize) & (PAGE_SIZE - 1);
        let run = done..done + (PAGE_SIZE - off).min(len - done);
        done = run.end;
        Some((a >> PAGE_BITS, off, run))
    })
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Fills `buf` with the bytes at `addr`.
    fn read_into(&self, addr: u64, buf: &mut [u8]) {
        for (page, off, run) in page_runs(addr, buf.len()) {
            let dst = &mut buf[run];
            match self.pages.get(&page) {
                Some(p) => dst.copy_from_slice(&p[off..off + dst.len()]),
                None => dst.fill(0),
            }
        }
    }

    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0; N];
        self.read_into(addr, &mut out);
        out
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_array::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Bulk-writes a `u32` slice starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        let mut bytes = vec![0u8; values.len() * 4];
        for (b, v) in bytes.chunks_exact_mut(4).zip(values) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(addr, &bytes);
    }

    /// Bulk-reads `len` `u32`s starting at `addr`.
    pub fn read_u32_slice(&self, addr: u64, len: usize) -> Vec<u32> {
        self.read_bytes(addr, len * 4)
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect()
    }

    /// Bulk-writes raw bytes.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (page, off, run) in page_runs(addr, bytes.len()) {
            let src = &bytes[run];
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0; PAGE_SIZE]));
            p[off..off + src.len()].copy_from_slice(src);
        }
    }

    /// Bulk-reads raw bytes.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u32(0xDEAD_BEEF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u32_roundtrip_and_endianness() {
        let mut m = MainMemory::new();
        m.write_u32(100, 0x0403_0201);
        assert_eq!(m.read_u8(100), 0x01);
        assert_eq!(m.read_u8(103), 0x04);
        assert_eq!(m.read_u32(100), 0x0403_0201);
    }

    #[test]
    fn u64_roundtrip_across_page_boundary() {
        // The first page boundary, and the wrap from the top page to 0.
        for addr in [(1 << 12) - 4, u64::MAX - 3] {
            let mut m = MainMemory::new();
            m.write_u64(addr, 0x1122_3344_5566_7788);
            assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
            assert_eq!(m.read_u32(addr.wrapping_add(4)), 0x1122_3344);
            assert_eq!(m.resident_pages(), 2);
        }
    }

    #[test]
    fn slices_roundtrip() {
        let mut m = MainMemory::new();
        let data: Vec<u32> = (0..1000).collect();
        m.write_u32_slice(0x10_0000, &data);
        assert_eq!(m.read_u32_slice(0x10_0000, 1000), data);
    }

    #[test]
    fn sparse_pages_stay_sparse() {
        let mut m = MainMemory::new();
        m.write_u8(0, 1);
        m.write_u8(1 << 30, 2); // a gigabyte away
        assert_eq!(m.resident_pages(), 2);
    }

    /// One access of the page-walk property test.
    #[derive(Debug, Clone)]
    enum Access {
        WriteBytes(u64, Vec<u8>),
        WriteU32s(u64, Vec<u32>),
        WriteU32(u64, u32),
        WriteU64(u64, u64),
        ReadBytes(u64, usize),
        ReadU32s(u64, usize),
        ReadU32(u64),
        ReadU64(u64),
    }

    /// Addresses that stress the walk: random, a few bytes either side
    /// of a page boundary in a small window of pages (so some reads hit
    /// written pages and others untouched ones), and a few bytes below
    /// `u64::MAX`.
    fn address() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (0u64..8, 0u64..16).prop_map(|(page, d)| ((page + 1) << PAGE_BITS).wrapping_sub(8) + d),
            (0u64..24).prop_map(|d| u64::MAX - d),
        ]
    }

    /// Lengths from zero to three pages.
    fn length() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..16, 0usize..3 * PAGE_SIZE + 1]
    }

    /// `u32` counts from zero to three pages.
    fn words() -> impl Strategy<Value = usize> {
        0usize..3 * PAGE_SIZE / 4 + 1
    }

    fn access() -> impl Strategy<Value = Access> {
        prop_oneof![
            (address(), length()).prop_flat_map(|(a, n)| {
                proptest::collection::vec(any::<u8>(), n..n + 1)
                    .prop_map(move |v| Access::WriteBytes(a, v))
            }),
            (address(), words()).prop_flat_map(|(a, n)| {
                proptest::collection::vec(any::<u32>(), n..n + 1)
                    .prop_map(move |v| Access::WriteU32s(a, v))
            }),
            (address(), any::<u32>()).prop_map(|(a, v)| Access::WriteU32(a, v)),
            (address(), any::<u64>()).prop_map(|(a, v)| Access::WriteU64(a, v)),
            (address(), length()).prop_map(|(a, n)| Access::ReadBytes(a, n)),
            (address(), words()).prop_map(|(a, n)| Access::ReadU32s(a, n)),
            address().prop_map(Access::ReadU32),
            address().prop_map(Access::ReadU64),
        ]
    }

    /// The per-byte reference: a map from address to byte, absent bytes
    /// reading as zero, every offset added modulo 2^64.
    #[derive(Default)]
    struct Reference(HashMap<u64, u8>);

    impl Reference {
        fn write(&mut self, addr: u64, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                self.0.insert(addr.wrapping_add(i as u64), b);
            }
        }

        fn read(&self, addr: u64, len: usize) -> Vec<u8> {
            (0..len)
                .map(|i| {
                    let a = addr.wrapping_add(i as u64);
                    self.0.get(&a).copied().unwrap_or(0)
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bulk and scalar accesses at unaligned, page-straddling and
        /// wrapping addresses agree byte for byte with the per-byte
        /// reference, and no read allocates a page.
        #[test]
        fn page_walk_matches_byte_reference(ops in proptest::collection::vec(access(), 1..24)) {
            let mut mem = MainMemory::new();
            let mut reference = Reference::default();
            for op in ops {
                let pages = mem.resident_pages();
                match op {
                    Access::WriteBytes(a, v) => {
                        mem.write_bytes(a, &v);
                        reference.write(a, &v);
                        continue;
                    }
                    Access::WriteU32s(a, v) => {
                        mem.write_u32_slice(a, &v);
                        let bytes: Vec<u8> = v.iter().flat_map(|w| w.to_le_bytes()).collect();
                        reference.write(a, &bytes);
                        continue;
                    }
                    Access::WriteU32(a, v) => {
                        mem.write_u32(a, v);
                        reference.write(a, &v.to_le_bytes());
                        continue;
                    }
                    Access::WriteU64(a, v) => {
                        mem.write_u64(a, v);
                        reference.write(a, &v.to_le_bytes());
                        continue;
                    }
                    Access::ReadBytes(a, n) => {
                        prop_assert_eq!(mem.read_bytes(a, n), reference.read(a, n));
                    }
                    Access::ReadU32s(a, n) => {
                        let want: Vec<u32> = reference
                            .read(a, n * 4)
                            .chunks_exact(4)
                            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                            .collect();
                        prop_assert_eq!(mem.read_u32_slice(a, n), want);
                    }
                    Access::ReadU32(a) => {
                        prop_assert_eq!(mem.read_u32(a).to_le_bytes().to_vec(), reference.read(a, 4));
                        prop_assert_eq!(mem.read_u8(a), reference.read(a, 1)[0]);
                    }
                    Access::ReadU64(a) => {
                        prop_assert_eq!(mem.read_u64(a).to_le_bytes().to_vec(), reference.read(a, 8));
                    }
                }
                prop_assert_eq!(mem.resident_pages(), pages, "a read allocated a page");
            }
        }
    }
}
