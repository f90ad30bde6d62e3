//! Simulated device global memory.
//!
//! Buffers are byte vectors with synthetic 64-bit base addresses: buffer
//! `i` starts at `(i+1) << 40`, so any address decodes to (buffer,
//! offset) without a search and buffer overruns are detected rather than
//! silently corrupting neighbours.
//!
//! Each buffer carries the [`ContentKey`] of its bytes once somebody has
//! asked for it ([`DeviceMemory::buffer_key`]). Every `&mut` route to
//! the bytes drops the key, so a key that is present is the key of the
//! bytes as they stand and the launch memo can identify a buffer without
//! reading it again.

use crate::content::{ContentHasher, ContentKey};
use crate::vir::VType;
use std::cell::Cell;
use std::fmt;

/// The content key of a buffer holding `bytes`: what
/// [`DeviceMemory::buffer_key`] computes, and what a memo entry's
/// verification recomputes from a snapshot.
pub(crate) fn bytes_key(bytes: &[u8]) -> ContentKey {
    let mut h = ContentHasher::default();
    h.bytes(bytes);
    h.key()
}

/// Identifies one device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

/// Bits used for the in-buffer offset within a synthetic address.
const OFFSET_BITS: u32 = 40;

/// The in-buffer offset of an address.
#[inline]
fn offset(addr: u64) -> usize {
    (addr & ((1u64 << OFFSET_BITS) - 1)) as usize
}

/// Little-endian, zero-extended load of `bytes` at `off`; the caller has
/// checked that `off + bytes` fits.
#[inline(always)]
fn load(buf: &[u8], off: usize, bytes: u32) -> u64 {
    match bytes {
        4 => u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as u64,
        8 => u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes")),
        _ => {
            let mut v = 0u64;
            for i in 0..bytes as usize {
                v |= (buf[off + i] as u64) << (8 * i);
            }
            v
        }
    }
}

/// Little-endian store of the low `bytes` bytes of `value` at `off`; the
/// caller has checked that `off + bytes` fits.
#[inline(always)]
fn store(buf: &mut [u8], off: usize, bytes: u32, value: u64) {
    match bytes {
        4 => buf[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
        8 => buf[off..off + 8].copy_from_slice(&value.to_le_bytes()),
        _ => {
            for i in 0..bytes as usize {
                buf[off + i] = (value >> (8 * i)) as u8;
            }
        }
    }
}

/// One allocation: its bytes, and their content key while it is known.
#[derive(Debug)]
struct Buffer {
    bytes: Vec<u8>,
    /// `Some` only while it is the key of `bytes`: set by
    /// [`DeviceMemory::buffer_key`] / [`DeviceMemory::set_buffer_key`],
    /// dropped by every mutable route to `bytes`.
    key: Cell<Option<ContentKey>>,
}

impl Buffer {
    fn holding(bytes: Vec<u8>) -> Buffer {
        Buffer { bytes, key: Cell::new(None) }
    }

    /// The bytes for writing: whatever key was known is now stale.
    #[inline]
    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        *self.key.get_mut() = None;
        &mut self.bytes
    }
}

/// Device memory: an address space of buffers.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    buffers: Vec<Buffer>,
    /// Bytes fed to buffer-key hashing so far (the launch memo's
    /// `bytes_hashed` counters are differences of this).
    bytes_hashed: Cell<u64>,
}

/// An out-of-bounds or unmapped access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device memory fault at {:#x} ({} bytes): {}", self.addr, self.bytes, self.message)
    }
}

impl std::error::Error for MemFault {}

impl DeviceMemory {
    /// Create an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a zero-initialized buffer of `bytes` bytes.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        assert!((bytes as u64) < (1u64 << OFFSET_BITS), "buffer too large");
        let id = BufferId(self.buffers.len() as u32);
        self.buffers.push(Buffer::holding(vec![0u8; bytes]));
        id
    }

    /// Allocate a buffer holding a copy of `data` (allocation and
    /// host→device transfer in one pass, without the zero fill).
    pub fn alloc_from(&mut self, data: &[u8]) -> BufferId {
        assert!((data.len() as u64) < (1u64 << OFFSET_BITS), "buffer too large");
        let id = BufferId(self.buffers.len() as u32);
        self.buffers.push(Buffer::holding(data.to_vec()));
        id
    }

    /// The synthetic base address of a buffer.
    pub fn base_addr(&self, id: BufferId) -> u64 {
        ((id.0 as u64) + 1) << OFFSET_BITS
    }

    /// Size of a buffer in bytes.
    pub fn len(&self, id: BufferId) -> usize {
        self.buffers[id.0 as usize].bytes.len()
    }

    /// True if no buffers are allocated.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    fn decode(&self, addr: u64, bytes: u32) -> Result<(usize, usize), MemFault> {
        let buf = (addr >> OFFSET_BITS) as usize;
        let off = offset(addr);
        if buf == 0 || buf > self.buffers.len() {
            return Err(MemFault { addr, bytes, message: "unmapped address".into() });
        }
        let b = buf - 1;
        if off + bytes as usize > self.buffers[b].bytes.len() {
            return Err(MemFault {
                addr,
                bytes,
                message: format!(
                    "out of bounds: offset {off} + {bytes} > buffer size {}",
                    self.buffers[b].bytes.len()
                ),
            });
        }
        Ok((b, off))
    }

    /// Read `bytes` (4 or 8) at `addr`, little-endian, zero-extended.
    #[inline]
    pub fn read(&self, addr: u64, bytes: u32) -> Result<u64, MemFault> {
        let (b, off) = self.decode(addr, bytes)?;
        Ok(load(&self.buffers[b].bytes, off, bytes))
    }

    /// Write the low `bytes` bytes of `value` at `addr`, little-endian.
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: u32, value: u64) -> Result<(), MemFault> {
        let (b, off) = self.decode(addr, bytes)?;
        store(self.buffers[b].bytes_mut(), off, bytes, value);
        Ok(())
    }

    /// `AtomAdd`: read the `bytes` at `addr`, add `add` under `ty`'s
    /// arithmetic, and write the sum back — the ISA's one
    /// read-modify-write, in the order every engine performs it.
    #[inline]
    pub(crate) fn atom_add(
        &mut self,
        ty: VType,
        addr: u64,
        bytes: u32,
        add: u64,
    ) -> Result<(), MemFault> {
        let old = self.read(addr, bytes)?;
        self.write(addr, bytes, crate::interp::atom_add(ty, old, add))
    }

    /// The buffer a whole warp access lies in: every address decodes to
    /// the same buffer and the highest offset plus the width fits.
    /// `None` when the lanes span buffers, any lane would fault, or there
    /// are no lanes; the per-lane path then handles (and reports) them.
    #[inline]
    fn warp_buffer(&self, addrs: &[u64], bytes: u32) -> Option<usize> {
        let &a0 = addrs.first()?;
        let (mut differ, mut max) = (0u64, a0);
        for &a in addrs {
            differ |= a ^ a0;
            max = max.max(a);
        }
        if differ >> OFFSET_BITS != 0 {
            return None;
        }
        let b = ((a0 >> OFFSET_BITS) as usize).checked_sub(1)?;
        let len = self.buffers.get(b)?.bytes.len();
        (offset(max) + bytes as usize <= len).then_some(b)
    }

    /// [`DeviceMemory::read`] for each lane of a warp access, in lane
    /// order, into `out`: one buffer lookup and one bounds check when
    /// the warp stays inside one buffer, else lane by lane, stopping at
    /// the first faulting lane.
    #[inline]
    pub(crate) fn read_warp(
        &self,
        addrs: &[u64],
        bytes: u32,
        out: &mut [u64],
    ) -> Result<(), MemFault> {
        let Some(b) = self.warp_buffer(addrs, bytes) else {
            for (o, &a) in out.iter_mut().zip(addrs) {
                *o = self.read(a, bytes)?;
            }
            return Ok(());
        };
        let buf = &self.buffers[b].bytes;
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = load(buf, offset(a), bytes);
        }
        Ok(())
    }

    /// [`DeviceMemory::write`] for each lane of a warp access, in lane
    /// order (a later lane's bytes win where lanes overlap), with the
    /// same fast path and fallback as [`DeviceMemory::read_warp`].
    #[inline]
    pub(crate) fn write_warp(
        &mut self,
        addrs: &[u64],
        bytes: u32,
        vals: &[u64],
    ) -> Result<(), MemFault> {
        // Checked before `bytes_mut`: a store that faults drops the key
        // only of a buffer an earlier lane really wrote.
        let Some(b) = self.warp_buffer(addrs, bytes) else {
            for (&a, &v) in addrs.iter().zip(vals) {
                self.write(a, bytes, v)?;
            }
            return Ok(());
        };
        let buf = self.buffers[b].bytes_mut();
        for (&a, &v) in addrs.iter().zip(vals) {
            store(buf, offset(a), bytes, v);
        }
        Ok(())
    }

    /// Number of allocated buffers (for content hashing / snapshots).
    pub(crate) fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Raw bytes of buffer `i` (for snapshots).
    pub(crate) fn buffer_bytes(&self, i: usize) -> &[u8] {
        &self.buffers[i].bytes
    }

    /// Mutable raw bytes of buffer `i` (for memoized replay).
    pub(crate) fn buffer_bytes_mut(&mut self, i: usize) -> &mut [u8] {
        self.buffers[i].bytes_mut()
    }

    /// The content key of buffer `i`: the one it carries, or else a hash
    /// of its bytes that it carries from now on. Either way the same
    /// function of the bytes.
    pub(crate) fn buffer_key(&self, i: usize) -> ContentKey {
        let buf = &self.buffers[i];
        buf.key.get().unwrap_or_else(|| {
            self.bytes_hashed.set(self.bytes_hashed.get() + buf.bytes.len() as u64);
            let key = bytes_key(&buf.bytes);
            buf.key.set(Some(key));
            key
        })
    }

    /// Declare `key` the content key of buffer `i` as it stands: the
    /// memo installing a snapshot whose key it recorded, or finding a
    /// buffer unchanged by a launch. A wrong key here is a wrong memo
    /// hit later, so only what [`DeviceMemory::buffer_key`] returned for
    /// these very bytes may come back in.
    pub(crate) fn set_buffer_key(&mut self, i: usize, key: ContentKey) {
        *self.buffers[i].key.get_mut() = Some(key);
    }

    /// Bytes [`DeviceMemory::buffer_key`] has hashed on this memory.
    pub(crate) fn bytes_hashed(&self) -> u64 {
        self.bytes_hashed.get()
    }

    /// Copy a host slice into a buffer (host→device transfer).
    pub fn copy_in(&mut self, id: BufferId, data: &[u8]) {
        let buf = self.buffers[id.0 as usize].bytes_mut();
        assert!(data.len() <= buf.len(), "copy_in larger than buffer");
        buf[..data.len()].copy_from_slice(data);
    }

    /// Copy a buffer back out to the host.
    pub fn copy_out(&self, id: BufferId) -> Vec<u8> {
        self.buffers[id.0 as usize].bytes.clone()
    }

    /// Move a buffer's contents out to the host, leaving it empty: the
    /// device→host transfer of a buffer nothing will touch again.
    pub fn take(&mut self, id: BufferId) -> Vec<u8> {
        std::mem::take(self.buffers[id.0 as usize].bytes_mut())
    }

    /// Typed convenience: upload a slice of `f32`.
    pub fn copy_in_f32(&mut self, id: BufferId, data: &[f32]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_in(id, &bytes);
    }

    /// Typed convenience: download a buffer as `f32`s.
    pub fn copy_out_f32(&self, id: BufferId) -> Vec<f32> {
        self.copy_out(id)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Typed convenience: upload a slice of `f64`.
    pub fn copy_in_f64(&mut self, id: BufferId, data: &[f64]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_in(id, &bytes);
    }

    /// Typed convenience: download a buffer as `f64`s.
    pub fn copy_out_f64(&self, id: BufferId) -> Vec<f64> {
        self.copy_out(id)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect()
    }

    /// Typed convenience: upload a slice of `i32`.
    pub fn copy_in_i32(&mut self, id: BufferId, data: &[i32]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_in(id, &bytes);
    }

    /// Typed convenience: download a buffer as `i32`s.
    pub fn copy_out_i32(&self, id: BufferId) -> Vec<i32> {
        self.copy_out(id)
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_roundtrip() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(64);
        let base = m.base_addr(b);
        m.write(base + 8, 4, 0xDEADBEEF).unwrap();
        assert_eq!(m.read(base + 8, 4).unwrap(), 0xDEADBEEF);
        m.write(base + 16, 8, u64::MAX - 5).unwrap();
        assert_eq!(m.read(base + 16, 8).unwrap(), u64::MAX - 5);
    }

    #[test]
    fn distinct_buffers_do_not_alias() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(16);
        let b = m.alloc(16);
        m.write(m.base_addr(a), 4, 1).unwrap();
        m.write(m.base_addr(b), 4, 2).unwrap();
        assert_eq!(m.read(m.base_addr(a), 4).unwrap(), 1);
        assert_eq!(m.read(m.base_addr(b), 4).unwrap(), 2);
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(16);
        let base = m.base_addr(b);
        assert!(m.read(base + 16, 4).is_err());
        assert!(m.read(base + 13, 4).is_err());
        assert!(m.write(base + 16, 4, 0).is_err());
        assert!(m.read(0, 4).is_err()); // null
        assert!(m.read(m.base_addr(BufferId(5)), 4).is_err()); // unmapped
    }

    #[test]
    fn alloc_from_and_take_move_whole_buffers() {
        let mut m = DeviceMemory::new();
        let a = m.alloc_from(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = m.alloc(4);
        assert_eq!(m.len(a), 8);
        assert_eq!(m.read(m.base_addr(a) + 4, 4).unwrap(), 0x0807_0605);
        m.write(m.base_addr(a), 4, 0xAABB_CCDD).unwrap();
        assert_eq!(m.take(a), vec![0xDD, 0xCC, 0xBB, 0xAA, 5, 6, 7, 8]);
        // The id stays mapped (to nothing), and neighbours are untouched.
        assert_eq!(m.len(a), 0);
        assert!(m.read(m.base_addr(a), 4).is_err());
        assert_eq!(m.base_addr(b), 2u64 << 40);
        assert_eq!(m.copy_out(b), vec![0; 4]);
    }

    /// A key that is present is the key of the bytes as they stand:
    /// every `&mut` route to a buffer's bytes drops it, the others keep
    /// it, and recomputing hashes exactly the buffer's bytes again.
    #[test]
    fn every_mutable_route_drops_the_key() {
        type Route = (&'static str, fn(&mut DeviceMemory, BufferId));
        let routes: [Route; 6] = [
            ("write", |m, b| m.write(m.base_addr(b) + 4, 4, 7).unwrap()),
            ("atom_add", |m, b| m.atom_add(VType::B32, m.base_addr(b), 4, 1).unwrap()),
            ("copy_in", |m, b| m.copy_in(b, &[9])),
            ("copy_in_f32", |m, b| m.copy_in_f32(b, &[1.5])),
            ("buffer_bytes_mut", |m, b| m.buffer_bytes_mut(b.0 as usize)[0] = 1),
            ("take", |m, b| drop(m.take(b))),
        ];
        for (name, route) in routes {
            let mut m = DeviceMemory::new();
            m.alloc_from(&[1; 24]);
            let b = m.alloc_from(&[2; 16]);
            let (other_key, key) = (m.buffer_key(0), m.buffer_key(1));
            assert_eq!(m.bytes_hashed(), 40);
            assert_eq!(m.buffer_key(1), key, "{name}: a second ask is answered from the buffer");
            assert_eq!(m.bytes_hashed(), 40);
            route(&mut m, b);
            assert_eq!(m.buffers[1].key.get(), None, "{name} keeps a stale key");
            let fresh = {
                let mut f = DeviceMemory::new();
                f.alloc_from(m.buffer_bytes(1));
                f.buffer_key(0)
            };
            assert_eq!(m.buffer_key(1), fresh, "{name}: the key is a function of the bytes");
            assert_ne!(fresh, key, "{name} changed the bytes");
            assert_eq!(m.buffers[0].key.get(), Some(other_key), "{name}: the neighbour");
            assert_eq!(m.bytes_hashed(), 40 + m.buffer_bytes(1).len() as u64, "{name}");
        }
        // Reads keep it.
        let mut m = DeviceMemory::new();
        let b = m.alloc(8);
        let key = m.buffer_key(0);
        m.read(m.base_addr(b), 4).unwrap();
        m.copy_out(b);
        assert!(m.write(m.base_addr(b) + 8, 4, 0).is_err(), "a faulting write touches nothing");
        assert_eq!(m.buffers[0].key.get(), Some(key));
    }

    /// A warp access gives what its lanes one by one give: the same
    /// values, the same first fault, the same bytes, and the same content
    /// keys — a faulting store keeps the key of every buffer no earlier
    /// lane wrote — with the same hashing afterwards.
    #[test]
    fn warp_accesses_match_the_per_lane_loop() {
        let fresh = || {
            let mut m = DeviceMemory::new();
            m.alloc_from(&(0..64).collect::<Vec<u8>>());
            m.alloc_from(&(64..128).collect::<Vec<u8>>());
            m.buffer_key(0);
            m.buffer_key(1);
            m
        };
        let (a, b) = (1u64 << 40, 2u64 << 40);
        let lanes = |f: &dyn Fn(u64) -> u64, n: u64| (0..n).map(f).collect::<Vec<u64>>();
        for bytes in [1u32, 4, 8] {
            let w = bytes as u64;
            let cases: [(&str, Vec<u64>); 9] = [
                ("ascending", lanes(&|l| a + l * w, 64 / w)),
                ("repeats, out of order", lanes(&|l| a + (l * 3 % 7) * w, 32)),
                ("last byte", vec![a + 64 - w, a]),
                ("two buffers", lanes(&|l| if l % 2 == 0 { a + l } else { b + l }, 32)),
                ("unmapped", lanes(&|l| if l == 2 { 5 << 40 } else { a + l * w }, 8)),
                ("null", lanes(&|l| if l == 1 { 0 } else { b + l }, 8)),
                ("out of bounds", lanes(&|l| if l == 3 { a + 64 - w + 1 } else { a + l }, 8)),
                ("lane 0 faults", lanes(&|l| a + 64 - l, 4)),
                ("no lanes", Vec::new()),
            ];
            for (case, addrs) in cases {
                let what = format!("{case}, width {bytes}");
                let vals: Vec<u64> = (0..addrs.len() as u64).map(|l| !l << 8 | l).collect();

                let (mut warp, mut lane) = (fresh(), fresh());
                let (mut got, mut want) = (vec![7; addrs.len()], vec![7; addrs.len()]);
                let r = warp.read_warp(&addrs, bytes, &mut got);
                let mut per_lane = || -> Result<(), MemFault> {
                    for (o, &x) in want.iter_mut().zip(&addrs) {
                        *o = lane.read(x, bytes)?;
                    }
                    Ok(())
                };
                assert_eq!(r, per_lane(), "{what}: read result");
                assert_eq!(got, want, "{what}: values read");

                let r = warp.write_warp(&addrs, bytes, &vals);
                let mut per_lane = || -> Result<(), MemFault> {
                    for (&x, &v) in addrs.iter().zip(&vals) {
                        lane.write(x, bytes, v)?;
                    }
                    Ok(())
                };
                assert_eq!(r, per_lane(), "{what}: write result");
                for i in 0..2 {
                    assert_eq!(warp.buffer_bytes(i), lane.buffer_bytes(i), "{what}: buffer {i}");
                    let keys = (warp.buffers[i].key.get(), lane.buffers[i].key.get());
                    assert_eq!(keys.0, keys.1, "{what}: key of buffer {i}");
                    assert_eq!(warp.buffer_key(i), lane.buffer_key(i), "{what}: rekey {i}");
                }
                assert_eq!(warp.bytes_hashed(), lane.bytes_hashed(), "{what}: bytes hashed");
            }
        }
    }

    #[test]
    fn typed_f32_roundtrip() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(5 * 4);
        let data = [1.0f32, -2.5, 3.25, 0.0, f32::MAX];
        m.copy_in_f32(b, &data);
        assert_eq!(m.copy_out_f32(b), data);
    }

    #[test]
    fn device_memory_atom_matches_read_modify_write() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(4);
        m.copy_in_f32(b, &[1.5]);
        m.atom_add(VType::F32, m.base_addr(b), 4, 2.25f32.to_bits() as u64).unwrap();
        assert_eq!(m.copy_out_f32(b), vec![3.75]);
    }

    #[test]
    fn typed_f64_and_i32_roundtrip() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(3 * 8);
        m.copy_in_f64(b, &[1.5, -2.25, 1e100]);
        assert_eq!(m.copy_out_f64(b), vec![1.5, -2.25, 1e100]);
        let c = m.alloc(2 * 4);
        m.copy_in_i32(c, &[-7, 42]);
        assert_eq!(m.copy_out_i32(c), vec![-7, 42]);
    }

    #[test]
    fn base_addresses_are_stable_and_distinct() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(8);
        let b = m.alloc(8);
        assert_ne!(m.base_addr(a), m.base_addr(b));
        assert_eq!(m.base_addr(a), 1u64 << 40);
        assert_eq!(m.base_addr(b), 2u64 << 40);
    }
}
