//! Virtual device-address allocation for kernel specs.
//!
//! Kernel specs describe memory behaviour with *virtual* global addresses.
//! Distinct buffers must not alias in the L2 model, so specs allocate their
//! tensors from an [`AddressSpace`], which hands out disjoint, aligned
//! ranges and tracks the total footprint (used for out-of-memory checks,
//! e.g. the FFT convolution failures on CV5/CV6 in Fig 5).

/// A buffer in simulated device memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeviceBuffer {
    /// Base byte address.
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
}

impl DeviceBuffer {
    /// Byte address of element `index` for `elem_bytes`-sized elements.
    #[inline]
    pub fn addr(&self, index: u64, elem_bytes: u64) -> u64 {
        debug_assert!(
            (index + 1) * elem_bytes <= self.bytes,
            "element {index} x {elem_bytes}B out of buffer of {}B",
            self.bytes
        );
        self.base + index * elem_bytes
    }

    /// Byte address of `f32` element `index`.
    #[inline]
    pub fn f32(&self, index: u64) -> u64 {
        self.addr(index, 4)
    }
}

/// Bump allocator for simulated device memory.
#[derive(Debug, Default)]
pub struct AddressSpace {
    next: u64,
}

/// Alignment of allocations; larger than any cache line so buffers never
/// share a sector.
const ALIGN: u64 = 256;

impl AddressSpace {
    /// An empty address space starting at a non-zero base (so address 0 is
    /// never valid and accidental zero addresses are distinguishable).
    pub fn new() -> AddressSpace {
        AddressSpace { next: ALIGN }
    }

    /// Allocate `bytes` of device memory.
    pub fn alloc(&mut self, bytes: u64) -> DeviceBuffer {
        let base = self.next;
        let padded = bytes.div_ceil(ALIGN) * ALIGN;
        self.next += padded.max(ALIGN);
        DeviceBuffer { base, bytes }
    }

    /// Allocate room for `elems` `f32` values.
    pub fn alloc_f32(&mut self, elems: u64) -> DeviceBuffer {
        self.alloc(elems * 4)
    }

    /// Total bytes allocated so far (footprint for OOM checks).
    pub fn footprint(&self) -> u64 {
        self.next - ALIGN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut a = AddressSpace::new();
        let x = a.alloc(100);
        let y = a.alloc(1);
        let z = a.alloc_f32(64);
        assert_eq!(x.base % ALIGN, 0);
        assert_eq!(y.base % ALIGN, 0);
        assert_eq!(z.base % ALIGN, 0);
        assert!(x.base + x.bytes <= y.base);
        assert!(y.base + y.bytes <= z.base);
        assert_eq!(z.bytes, 256);
    }

    #[test]
    fn footprint_accumulates() {
        let mut a = AddressSpace::new();
        assert_eq!(a.footprint(), 0);
        a.alloc(1000);
        assert_eq!(a.footprint(), 1024);
        a.alloc(24);
        assert_eq!(a.footprint(), 1024 + 256);
    }

    #[test]
    fn element_addressing() {
        let mut a = AddressSpace::new();
        let b = a.alloc_f32(10);
        assert_eq!(b.f32(0), b.base);
        assert_eq!(b.f32(3), b.base + 12);
    }

    #[test]
    #[should_panic(expected = "out of buffer")]
    #[cfg(debug_assertions)]
    fn out_of_bounds_element_panics_in_debug() {
        let mut a = AddressSpace::new();
        let b = a.alloc_f32(10);
        let _ = b.f32(10);
    }
}
