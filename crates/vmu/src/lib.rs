//! CAPE's Vector Memory Unit (VMU, Section V-E of the paper).
//!
//! The VMU breaks each vector memory instruction into *sub-requests* of
//! the memory system's data-bus packet size (512 B). Because adjacent
//! vector elements are interleaved across chains (like bytes across DRAM
//! DIMM chips), each sub-request lands in distinct chains and the CSB can
//! consume it in a **single cycle** — sub-requests never need buffering,
//! and CSB writes proceed concurrently with the HBM stream. The CSB is
//! cacheless: vector requests have huge footprints and little temporal
//! locality, so the VMU connects directly to the memory bus.
//!
//! Timing: a transfer's cycle cost is the maximum of the HBM streaming
//! time and the CSB's one-cycle-per-packet consumption (they overlap),
//! and traffic is recorded in the [`Hbm`] model for roofline analysis.
//!
//! The unit also implements CAPE's *replica vector load* (`vlrw.v`,
//! Section V-G): a chunk of contiguous values is fetched **once** from
//! memory and replicated along the whole vector register — the key to
//! high lane utilization in dense matrix multiplication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cape_csb::Csb;
use cape_mem::{Hbm, MainMemory};
use serde::{Deserialize, Serialize};

/// Outcome of one vector memory transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmuTransfer {
    /// Bytes moved on the memory bus.
    pub bytes: u64,
    /// Sub-requests (data-bus packets) issued.
    pub packets: u64,
    /// Cycle cost at the CAPE clock.
    pub cycles: u64,
}

/// The vector memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vmu {
    /// CAPE core frequency in GHz (cycle conversions).
    freq_ghz: f64,
}

impl Vmu {
    /// Creates a VMU for a core running at `freq_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive.
    pub fn new(freq_ghz: f64) -> Self {
        assert!(freq_ghz > 0.0, "frequency must be positive");
        Self { freq_ghz }
    }

    /// The core frequency used for cycle conversion.
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    fn finish(&self, hbm: &Hbm, bytes: u64, hbm_cycles: u64) -> VmuTransfer {
        let packets = hbm.packets(bytes);
        // HBM streaming overlaps the CSB's one-cycle-per-packet intake.
        VmuTransfer {
            bytes,
            packets,
            cycles: hbm_cycles.max(packets),
        }
    }

    /// `vle32.v` — unit-stride load of the active window
    /// (`vstart..vl` elements of 4 bytes each) into register `vd`.
    pub fn load(
        &self,
        csb: &mut Csb,
        mem: &MainMemory,
        hbm: &mut Hbm,
        vd: usize,
        addr: u64,
    ) -> VmuTransfer {
        let (vstart, vl) = (csb.vstart(), csb.vl());
        // Element indexing is absolute (restartable page faults resume at
        // the faulting index), so the window maps to one contiguous slice
        // of memory, deposited via the CSB's bulk transposed-write path.
        let vals = mem.read_u32_slice(addr.wrapping_add((vstart as u64) * 4), vl - vstart);
        csb.write_vector_at(vd, vstart, &vals);
        let bytes = ((vl - vstart) as u64) * 4;
        let cycles = hbm.read(bytes, self.freq_ghz);
        self.finish(hbm, bytes, cycles)
    }

    /// `vse32.v` — unit-stride store of the active window from register
    /// `vs3`.
    pub fn store(
        &self,
        csb: &Csb,
        mem: &mut MainMemory,
        hbm: &mut Hbm,
        vs3: usize,
        addr: u64,
    ) -> VmuTransfer {
        let (vstart, vl) = (csb.vstart(), csb.vl());
        let vals = csb.read_vector_at(vs3, vstart, vl - vstart);
        mem.write_u32_slice(addr.wrapping_add((vstart as u64) * 4), &vals);
        let bytes = ((vl - vstart) as u64) * 4;
        let cycles = hbm.write(bytes, self.freq_ghz);
        self.finish(hbm, bytes, cycles)
    }

    /// Cycle cost of moving one tenant's vector-register context
    /// (`num_chains` × 32 lanes × 32 registers × 4 bytes) in one
    /// direction between the CSB and memory — the cost model a scheduler
    /// charges per context save or restore. Purely a timing query: no
    /// traffic is recorded, because context images spill to a reserved
    /// region rather than the job's own working set.
    pub fn context_transfer_cycles(&self, hbm: &Hbm, num_chains: usize) -> u64 {
        let bytes = (num_chains as u64) * 32 * 32 * 4;
        let hbm_cycles = hbm.transfer_cycles(bytes, self.freq_ghz);
        // Same overlap rule as a vector load: HBM streaming vs the CSB's
        // one-cycle-per-packet intake.
        hbm_cycles.max(hbm.packets(bytes))
    }

    /// `vlrw.v` — replica vector load: fetch a `chunk_len`-value chunk
    /// starting at `addr` **once**, then tile it across the active
    /// window. Only the `min(chunk_len, vl - vstart)` words the tiling
    /// uses are read and charged, so memory traffic is at most one chunk
    /// regardless of `vl`, and a chunk length from the guest never sizes
    /// a host allocation or the byte count past the window.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn load_replica(
        &self,
        csb: &mut Csb,
        mem: &MainMemory,
        hbm: &mut Hbm,
        vd: usize,
        addr: u64,
        chunk_len: usize,
    ) -> VmuTransfer {
        assert!(chunk_len > 0, "replica chunk must be non-empty");
        let (vstart, vl) = (csb.vstart(), csb.vl());
        let chunk = mem.read_u32_slice(addr, chunk_len.min(vl - vstart));
        // Materialize the tiling once, then deposit it in bulk.
        let vals: Vec<u32> = (0..vl - vstart).map(|k| chunk[k % chunk.len()]).collect();
        csb.write_vector_at(vd, vstart, &vals);
        let bytes = (chunk.len() as u64) * 4;
        let hbm_cycles = hbm.read(bytes, self.freq_ghz);
        // The replicated chunk is broadcast to all chains; each chain
        // fills its columns locally, one column per cycle.
        let cols = (vl - vstart).div_ceil(csb.geometry().num_chains().max(1)) as u64;
        let packets = hbm.packets(bytes);
        VmuTransfer {
            bytes,
            packets,
            cycles: hbm_cycles.max(cols),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_csb::CsbGeometry;

    fn setup() -> (Csb, MainMemory, Hbm, Vmu) {
        (
            Csb::new(CsbGeometry::new(4)),
            MainMemory::new(),
            Hbm::default(),
            Vmu::new(2.7),
        )
    }

    #[test]
    fn load_then_store_roundtrips_through_memory() {
        let (mut csb, mut mem, mut hbm, vmu) = setup();
        let data: Vec<u32> = (0..100).map(|i| i * 7 + 1).collect();
        mem.write_u32_slice(0x1000, &data);
        csb.set_active_window(0, 100);
        let t = vmu.load(&mut csb, &mem, &mut hbm, 1, 0x1000);
        assert_eq!(t.bytes, 400);
        assert_eq!(csb.read_vector(1, 100), data);
        let t2 = vmu.store(&csb, &mut mem, &mut hbm, 1, 0x8000);
        assert_eq!(t2.bytes, 400);
        assert_eq!(mem.read_u32_slice(0x8000, 100), data);
    }

    #[test]
    fn load_respects_vstart() {
        let (mut csb, mut mem, mut hbm, vmu) = setup();
        mem.write_u32_slice(0, &[10, 20, 30, 40]);
        csb.set_active_window(2, 4);
        vmu.load(&mut csb, &mem, &mut hbm, 1, 0);
        // Elements 2 and 3 get memory words 2 and 3 (restartable page
        // faults resume at the faulting index, so indexing is absolute).
        assert_eq!(csb.read_element(1, 2), 30);
        assert_eq!(csb.read_element(1, 3), 40);
        assert_eq!(csb.read_element(1, 0), 0, "below vstart untouched");
    }

    #[test]
    fn replica_load_tiles_the_chunk_with_chunk_sized_traffic() {
        let (mut csb, mut mem, mut hbm, vmu) = setup();
        mem.write_u32_slice(0x100, &[7, 8, 9]);
        csb.set_active_window(0, 12);
        let t = vmu.load_replica(&mut csb, &mem, &mut hbm, 2, 0x100, 3);
        assert_eq!(t.bytes, 12, "only the chunk is fetched");
        assert_eq!(
            csb.read_vector(2, 12),
            vec![7, 8, 9, 7, 8, 9, 7, 8, 9, 7, 8, 9]
        );
    }

    #[test]
    fn replica_load_reads_no_more_of_the_chunk_than_the_window_uses() {
        let (mut csb, mut mem, mut hbm, vmu) = setup();
        mem.write_u32_slice(0x100, &[7, 8, 9, 10, 11]);
        csb.set_active_window(1, 4);
        let t = vmu.load_replica(&mut csb, &mem, &mut hbm, 2, 0x100, usize::MAX);
        assert_eq!(t.bytes, 12, "three window elements, three words");
        assert_eq!(csb.read_vector(2, 4), vec![0, 7, 8, 9]);
    }

    #[test]
    fn cycles_are_at_least_one_per_packet() {
        let (mut csb, mut mem, mut hbm, vmu) = setup();
        let n = 128usize; // full 4-chain CSB
        mem.write_u32_slice(0, &vec![1; n]);
        csb.set_active_window(0, n);
        let t = vmu.load(&mut csb, &mem, &mut hbm, 1, 0);
        assert_eq!(t.packets, 1); // 512 bytes exactly
        assert!(t.cycles >= t.packets);
        assert_eq!(hbm.bytes_read(), 512);
    }

    #[test]
    fn context_transfer_scales_with_chain_count_and_records_no_traffic() {
        let (_, _, hbm, vmu) = setup();
        let small = vmu.context_transfer_cycles(&hbm, 4);
        let large = vmu.context_transfer_cycles(&hbm, 1024);
        assert!(small > 0);
        assert!(large > small);
        // At least one cycle per 512 B packet: 1024 chains = 4 MiB.
        assert!(large >= hbm.packets(1024 * 32 * 32 * 4));
        assert_eq!(hbm.bytes_read() + hbm.bytes_written(), 0);
    }

    #[test]
    fn store_counts_write_traffic() {
        let (mut csb, mut mem, mut hbm, vmu) = setup();
        csb.set_active_window(0, 64);
        vmu.store(&csb, &mut mem, &mut hbm, 3, 0);
        assert_eq!(hbm.bytes_written(), 256);
        assert_eq!(hbm.bytes_read(), 0);
    }
}
