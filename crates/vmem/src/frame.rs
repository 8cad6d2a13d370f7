//! Simulated physical memory: a pool of 4-KiB frames plus an allocator.
//!
//! Objects really live here — GC correctness tests read heap contents back
//! through translations after compaction, so a PTE swap that corrupted data
//! would be caught, not just mis-costed.

use crate::addr::{FrameId, PhysAddr, PAGE_SIZE};
use crate::error::VmError;
use crate::pool::{AllocContext, FrameLease};
use std::sync::{Mutex, PoisonError};

/// Flat physical memory of `frames * 4096` bytes.
///
/// Host memory is recycled, not page-faulted afresh: a dropped pool's
/// buffer goes to a process-wide spare list and the next [`PhysMem::new`]
/// that fits reuses it. A dirty watermark keeps both sides cheap — every
/// byte at or above it is known to be zero, so a recycled buffer is
/// cleaned by zeroing only its dirty prefix, and [`PhysMem::zero_frame`]
/// never touches (first-faults) a frame that was never written. Invariant:
/// a pool reads as zero wherever it has not been written since `new`.
#[derive(Debug)]
pub struct PhysMem {
    /// At least `frames * PAGE_SIZE` bytes (a recycled buffer may be
    /// longer; bounds checks use the frame count).
    bytes: Vec<u8>,
    frames: u32,
    /// Every byte of `bytes` at or above this offset is zero.
    dirty: usize,
}

/// A dropped pool's buffer and its dirty watermark.
struct Spare {
    bytes: Vec<u8>,
    dirty: usize,
}

/// Buffers of dropped pools, at most [`svagc_metrics::host_threads`] of
/// them: the number of runs that can end at once.
static SPARES: Mutex<Vec<Spare>> = Mutex::new(Vec::new());

fn spares() -> std::sync::MutexGuard<'static, Vec<Spare>> {
    // A panicking holder cannot leave the list inconsistent (every
    // critical section is a single push, remove or take).
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PhysMem {
    /// A pool of `frames` zeroed frames: the smallest spare buffer that
    /// fits with its dirty prefix zeroed, else a fresh allocation (after
    /// freeing the spares, which fit nothing).
    pub fn new(frames: u32) -> PhysMem {
        let len = frames as usize * PAGE_SIZE as usize;
        // Spares that fit nothing are freed outside the lock.
        let (reused, evicted) = {
            let mut spares = spares();
            let fit = (0..spares.len())
                .filter(|&i| spares[i].bytes.len() >= len)
                .min_by_key(|&i| spares[i].bytes.len());
            match fit {
                Some(i) => (Some(spares.swap_remove(i)), Vec::new()),
                None => (None, std::mem::take(&mut *spares)),
            }
        };
        drop(evicted);
        let bytes = match reused {
            Some(Spare { mut bytes, dirty }) => {
                bytes[..dirty].fill(0);
                bytes
            }
            None => vec![0u8; len],
        };
        PhysMem { bytes, frames, dirty: 0 }
    }

    /// Number of frames in the pool.
    pub fn frame_count(&self) -> u32 {
        self.frames
    }

    #[inline]
    fn check(&self, pa: PhysAddr, len: u64) -> Result<usize, VmError> {
        let start = pa.get();
        let end = start.checked_add(len).ok_or(VmError::BadPhysAddr(pa))?;
        if end > self.frames as u64 * PAGE_SIZE {
            return Err(VmError::BadPhysAddr(pa));
        }
        Ok(start as usize)
    }

    /// [`PhysMem::check`] for a write: also raises the dirty watermark
    /// past the written range.
    #[inline]
    fn check_write(&mut self, pa: PhysAddr, len: u64) -> Result<usize, VmError> {
        let i = self.check(pa, len)?;
        self.dirty = self.dirty.max(i + len as usize);
        Ok(i)
    }

    /// Read one 8-byte word (must not straddle the pool end).
    #[inline]
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, VmError> {
        let i = self.check(pa, 8)?;
        Ok(u64::from_le_bytes(
            self.bytes[i..i + 8]
                .try_into()
                .expect("bounds invariant: check() guarantees an 8-byte slice"),
        ))
    }

    /// Write one 8-byte word.
    #[inline]
    pub fn write_u64(&mut self, pa: PhysAddr, val: u64) -> Result<(), VmError> {
        let i = self.check_write(pa, 8)?;
        self.bytes[i..i + 8].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Read `buf.len()` bytes at `pa`.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), VmError> {
        let i = self.check(pa, buf.len() as u64)?;
        buf.copy_from_slice(&self.bytes[i..i + buf.len()]);
        Ok(())
    }

    /// Append `len` bytes at `pa` to `out` — `read_bytes` without the
    /// caller having to pre-size (and zero-fill) a destination buffer.
    pub fn read_append(&self, pa: PhysAddr, len: u64, out: &mut Vec<u8>) -> Result<(), VmError> {
        let i = self.check(pa, len)?;
        out.extend_from_slice(&self.bytes[i..i + len as usize]);
        Ok(())
    }

    /// Write `buf` at `pa`.
    pub fn write_bytes(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), VmError> {
        let i = self.check_write(pa, buf.len() as u64)?;
        self.bytes[i..i + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` (handles overlap like memmove).
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) -> Result<(), VmError> {
        let s = self.check(src, len)?;
        let d = self.check_write(dst, len)?;
        self.bytes.copy_within(s..s + len as usize, d);
        Ok(())
    }

    /// Zero a whole frame. A frame above the dirty watermark is already
    /// zero and is left untouched.
    pub fn zero_frame(&mut self, frame: FrameId) -> Result<(), VmError> {
        let i = self.check(frame.base(), PAGE_SIZE)?;
        if i < self.dirty {
            self.bytes[i..i + PAGE_SIZE as usize].fill(0);
        }
        Ok(())
    }

    /// Borrow a frame's bytes (tests, checksums).
    pub fn frame_bytes(&self, frame: FrameId) -> Result<&[u8], VmError> {
        let i = self.check(frame.base(), PAGE_SIZE)?;
        Ok(&self.bytes[i..i + PAGE_SIZE as usize])
    }
}

impl Drop for PhysMem {
    /// Hand the buffer to the spare list, evicting the smallest spare
    /// once more than [`svagc_metrics::host_threads`] are kept.
    fn drop(&mut self) {
        if self.bytes.is_empty() {
            return;
        }
        let spare = Spare { bytes: std::mem::take(&mut self.bytes), dirty: self.dirty };
        let evicted = {
            let mut spares = spares();
            spares.push(spare);
            (spares.len() > svagc_metrics::host_threads()).then(|| {
                let smallest = (0..spares.len())
                    .min_by_key(|&i| spares[i].bytes.len())
                    .expect("the list holds the spare just pushed");
                spares.swap_remove(smallest)
            })
        };
        drop(evicted);
    }
}

/// Free-list frame allocator over a [`PhysMem`]-sized pool.
///
/// The allocator tracks an allocated-bitmap so `free` can reject
/// out-of-range and double-freed frames with a typed error instead of
/// silently corrupting the free list (and underflowing `allocated`) in
/// release builds. An optional [`FrameLease`] attaches the allocator to a
/// fleet-wide [`crate::FramePool`]: every alloc is charged against the
/// owning tenant's quota under the current [`AllocContext`], and every
/// free releases the charge.
#[derive(Debug)]
pub struct FrameAllocator {
    /// Next never-allocated frame (bump region).
    next: u32,
    limit: u32,
    /// Returned frames, reused LIFO.
    free: Vec<FrameId>,
    /// One bit per frame: is it currently allocated?
    bits: Vec<u64>,
    allocated: u32,
    /// High-water mark of simultaneously live frames.
    peak: u32,
    /// Invalid frees rejected (out of range or double free).
    free_errors: u64,
    /// Optional fleet budget; charged/released alongside alloc/free.
    lease: Option<FrameLease>,
    /// Attribution for subsequent allocations.
    ctx: AllocContext,
}

impl FrameAllocator {
    /// Allocator over frames `0..limit`.
    pub fn new(limit: u32) -> FrameAllocator {
        FrameAllocator {
            next: 0,
            limit,
            free: Vec::new(),
            bits: vec![0u64; limit.div_ceil(64) as usize],
            allocated: 0,
            peak: 0,
            free_errors: 0,
            lease: None,
            ctx: AllocContext::Heap,
        }
    }

    #[inline]
    fn bit(&self, frame: FrameId) -> bool {
        self.bits[(frame.0 / 64) as usize] & (1u64 << (frame.0 % 64)) != 0
    }

    #[inline]
    fn set_bit(&mut self, frame: FrameId, on: bool) {
        let mask = 1u64 << (frame.0 % 64);
        if on {
            self.bits[(frame.0 / 64) as usize] |= mask;
        } else {
            self.bits[(frame.0 / 64) as usize] &= !mask;
        }
    }

    /// Attach a fleet-budget lease; every subsequent alloc/free is charged
    /// to or released from the owning tenant's quota.
    pub fn attach_lease(&mut self, lease: FrameLease) {
        self.lease = Some(lease);
    }

    /// The attached fleet-budget lease, if any.
    pub fn lease(&self) -> Option<&FrameLease> {
        self.lease.as_ref()
    }

    /// Set the attribution context for subsequent allocations.
    pub fn set_context(&mut self, ctx: AllocContext) {
        self.ctx = ctx;
    }

    /// Current allocation attribution context.
    pub fn context(&self) -> AllocContext {
        self.ctx
    }

    /// Allocate one frame.
    pub fn alloc(&mut self) -> Result<FrameId, VmError> {
        // Pick the candidate first, charge the fleet budget, and only then
        // commit allocator state — a quota denial must leave the free list
        // and bump cursor untouched.
        let (f, from_free) = if let Some(&f) = self.free.last() {
            (f, true)
        } else if self.next < self.limit {
            (FrameId(self.next), false)
        } else {
            return Err(VmError::OutOfFrames);
        };
        if let Some(lease) = &self.lease {
            lease.charge(self.ctx, f)?;
        }
        if from_free {
            self.free.pop();
        } else {
            self.next += 1;
        }
        self.set_bit(f, true);
        self.allocated += 1;
        self.peak = self.peak.max(self.allocated);
        Ok(f)
    }

    /// Allocate `n` frames (not necessarily contiguous).
    pub fn alloc_many(&mut self, n: u32) -> Result<Vec<FrameId>, VmError> {
        let mut v = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.alloc() {
                Ok(f) => v.push(f),
                Err(e) => {
                    for f in v {
                        self.free(f).expect("rollback of a just-allocated frame");
                    }
                    return Err(e);
                }
            }
        }
        Ok(v)
    }

    /// Return a frame to the pool. Out-of-range and double frees are
    /// rejected with a typed error (and counted) instead of corrupting the
    /// free list; counters never underflow.
    pub fn free(&mut self, frame: FrameId) -> Result<(), VmError> {
        if frame.0 >= self.limit {
            self.free_errors += 1;
            return Err(VmError::FrameOutOfRange(frame));
        }
        if !self.bit(frame) {
            self.free_errors += 1;
            return Err(VmError::FrameNotAllocated(frame));
        }
        if let Some(lease) = &self.lease {
            lease.release(frame)?;
        }
        self.set_bit(frame, false);
        self.allocated = self.allocated.saturating_sub(1);
        self.free.push(frame);
        Ok(())
    }

    /// Frames currently allocated.
    pub fn in_use(&self) -> u32 {
        self.allocated
    }

    /// Frames still available.
    pub fn available(&self) -> u32 {
        self.limit - self.next + self.free.len() as u32
    }

    /// High-water mark of live frames.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Invalid frees rejected over the allocator's lifetime.
    pub fn free_errors(&self) -> u64 {
        self.free_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut m = PhysMem::new(2);
        let pa = PhysAddr(4096 + 16);
        m.write_u64(pa, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(pa).unwrap(), 0xdead_beef_cafe_f00d);
        // Untouched memory is zero.
        assert_eq!(m.read_u64(PhysAddr(0)).unwrap(), 0);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = PhysMem::new(1);
        assert!(m.read_u64(PhysAddr(4096)).is_err());
        assert!(m.read_u64(PhysAddr(4090)).is_err()); // straddles end
        assert!(m.read_u64(PhysAddr(u64::MAX)).is_err()); // overflow
    }

    #[test]
    fn byte_copy_handles_overlap() {
        let mut m = PhysMem::new(1);
        m.write_bytes(PhysAddr(0), b"abcdef").unwrap();
        m.copy(PhysAddr(0), PhysAddr(2), 4).unwrap();
        let mut out = [0u8; 6];
        m.read_bytes(PhysAddr(0), &mut out).unwrap();
        assert_eq!(&out, b"ababcd");
    }

    #[test]
    fn allocator_reuses_freed_frames() {
        let mut a = FrameAllocator::new(2);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert!(a.alloc().is_err());
        a.free(f0).unwrap();
        assert_eq!(a.alloc().unwrap(), f0);
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.peak(), 2);
        let _ = f1;
    }

    #[test]
    fn alloc_many_rolls_back_on_failure() {
        let mut a = FrameAllocator::new(3);
        assert!(a.alloc_many(4).is_err());
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.alloc_many(3).unwrap().len(), 3);
    }

    #[test]
    fn free_rejects_out_of_range_and_double_free() {
        let mut a = FrameAllocator::new(4);
        let f = a.alloc().unwrap();
        // Out of range: typed error, counter untouched.
        assert_eq!(
            a.free(FrameId(4)),
            Err(VmError::FrameOutOfRange(FrameId(4)))
        );
        assert_eq!(a.in_use(), 1);
        // Never-allocated frame.
        assert_eq!(
            a.free(FrameId(2)),
            Err(VmError::FrameNotAllocated(FrameId(2)))
        );
        // Legitimate free, then double free of the same frame.
        a.free(f).unwrap();
        assert_eq!(a.free(f), Err(VmError::FrameNotAllocated(f)));
        // No underflow even after repeated invalid frees.
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.free_errors(), 3);
        // The free list was never corrupted: both frames still allocatable.
        assert_eq!(a.alloc_many(4).unwrap().len(), 4);
    }

    #[test]
    fn freed_frames_are_reused_in_lifo_order() {
        let mut a = FrameAllocator::new(8);
        let frames = a.alloc_many(5).unwrap();
        // Free 1, 3, 0 — LIFO reuse must hand them back as 0, 3, 1.
        a.free(frames[1]).unwrap();
        a.free(frames[3]).unwrap();
        a.free(frames[0]).unwrap();
        assert_eq!(a.alloc().unwrap(), frames[0]);
        assert_eq!(a.alloc().unwrap(), frames[3]);
        assert_eq!(a.alloc().unwrap(), frames[1]);
        // Free list drained: next alloc comes from the bump region.
        assert_eq!(a.alloc().unwrap(), FrameId(5));
    }

    #[test]
    fn peak_tracks_high_water_across_interleaved_churn() {
        let mut a = FrameAllocator::new(16);
        let first = a.alloc_many(6).unwrap();
        assert_eq!(a.peak(), 6);
        for f in &first[..4] {
            a.free(*f).unwrap();
        }
        assert_eq!(a.in_use(), 2);
        // Peak is a high-water mark: unchanged by frees.
        assert_eq!(a.peak(), 6);
        // Climb above the previous peak through a mix of reuse and bump.
        let second = a.alloc_many(7).unwrap();
        assert_eq!(a.in_use(), 9);
        assert_eq!(a.peak(), 9);
        for f in second {
            a.free(f).unwrap();
        }
        assert_eq!(a.peak(), 9);
        assert_eq!(a.in_use(), 2);
    }

    #[test]
    fn alloc_many_rollback_interacts_with_free_list() {
        let mut a = FrameAllocator::new(4);
        let keep = a.alloc_many(2).unwrap();
        a.free(keep[0]).unwrap();
        // 3 available (1 free-listed + 2 bump); asking for 4 must roll back
        // cleanly and leave all 3 allocatable afterwards.
        assert!(a.alloc_many(4).is_err());
        assert_eq!(a.in_use(), 1);
        assert_eq!(a.alloc_many(3).unwrap().len(), 3);
        assert_eq!(a.in_use(), 4);
        assert_eq!(a.peak(), 4);
    }

    /// Dirty `m` through every write path: a word at a scattered offset
    /// of each frame, a byte run across a frame boundary, a copy into the
    /// last frame, and the pool's final word.
    fn scribble(m: &mut PhysMem) {
        let end = m.frame_count() as u64 * PAGE_SIZE;
        for f in 0..m.frame_count() as u64 {
            m.write_u64(PhysAddr(f * PAGE_SIZE + (f * 1096) % (PAGE_SIZE - 8)), !f).unwrap();
        }
        m.write_bytes(PhysAddr(PAGE_SIZE / 2 + 3), &[0xAB; 5000]).unwrap();
        m.copy(PhysAddr(PAGE_SIZE / 2), PhysAddr(end - 3000), 2000).unwrap();
        m.write_u64(PhysAddr(end - 8), u64::MAX).unwrap();
    }

    fn assert_zero(m: &PhysMem) {
        for f in 0..m.frame_count() {
            let bytes = m.frame_bytes(FrameId(f)).unwrap();
            assert!(bytes.iter().all(|&b| b == 0), "frame {f} of {} not zero", m.frame_count());
        }
    }

    #[test]
    fn recycled_pools_read_zero() {
        // Smaller, equal and larger than the dropped pool, built on the
        // dropping thread and on another one, dirtied on either.
        for frames in [2, 5, 8, 9, 16] {
            let mut m = PhysMem::new(8);
            scribble(&mut m);
            drop(m);
            let mut same = PhysMem::new(frames);
            assert_zero(&same);
            scribble(&mut same);
            drop(same);
            std::thread::spawn(move || {
                let mut other = PhysMem::new(frames);
                assert_zero(&other);
                scribble(&mut other);
            })
            .join()
            .unwrap();
            assert_zero(&PhysMem::new(frames));
        }
    }

    #[test]
    fn every_write_path_is_zeroed_on_reuse() {
        // Each path alone dirties the last frame, so a path that failed
        // to raise the watermark would leave dirty bytes in the reused
        // buffer. Other tests share the spare list and may take the
        // buffer first: retry until this thread gets its own back.
        let paths: [fn(&mut PhysMem); 3] = [
            |m| m.write_u64(PhysAddr(4 * PAGE_SIZE - 8), !0).unwrap(),
            |m| m.write_bytes(PhysAddr(3 * PAGE_SIZE + 7), &[0xCD; 100]).unwrap(),
            |m| {
                m.write_u64(PhysAddr(0), !0).unwrap();
                m.copy(PhysAddr(0), PhysAddr(4 * PAGE_SIZE - 16), 16).unwrap();
            },
        ];
        for dirty in paths {
            let reused = (0..50).any(|_| {
                let mut m = PhysMem::new(4);
                dirty(&mut m);
                let buf = m.frame_bytes(FrameId(0)).unwrap().as_ptr();
                drop(m);
                let again = PhysMem::new(4);
                assert_zero(&again);
                again.frame_bytes(FrameId(0)).unwrap().as_ptr() == buf
            });
            assert!(reused, "a dropped pool's buffer never came back");
        }
    }

    #[test]
    fn zero_frame_above_the_watermark_leaves_a_zero_frame() {
        let mut m = PhysMem::new(6);
        m.write_u64(PhysAddr(2 * PAGE_SIZE + 40), 9).unwrap();
        m.zero_frame(FrameId(4)).unwrap();
        assert_eq!(m.frame_bytes(FrameId(4)).unwrap(), &[0u8; PAGE_SIZE as usize][..]);
        m.zero_frame(FrameId(2)).unwrap();
        assert_zero(&m);
    }

    #[test]
    fn zero_frame_clears() {
        let mut m = PhysMem::new(1);
        m.write_u64(PhysAddr(8), 7).unwrap();
        m.zero_frame(FrameId(0)).unwrap();
        assert_eq!(m.read_u64(PhysAddr(8)).unwrap(), 0);
    }
}
