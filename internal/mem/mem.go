// Package mem implements the simulated physical memory: a sparse, paged,
// byte-addressed 64-bit address space with per-page protection bits.
//
// Protection is deliberately simple — each page is either user-accessible or
// kernel-only — because the only protection property the NDA reproduction
// needs is the one Meltdown-class attacks violate: a user-mode load of a
// kernel page must architecturally fault, while micro-architecturally the
// data may (on vulnerable cores) still flow to dependents before the fault
// is taken at commit.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageBits is log2 of the page size.
const PageBits = 12

// PageSize is the size of a page in bytes.
const PageSize = 1 << PageBits

// Memory is a sparse physical memory. The zero value is not usable; call New.
// Unmapped addresses read as zero (pages are allocated on first write), which
// matches how speculative wrong-path accesses to arbitrary addresses behave
// in the simulator: they never fault the host, they just observe zeros.
type Memory struct {
	pages  map[uint64]*[PageSize]byte
	kernel map[uint64]bool // page number -> kernel-only
	// dropped holds, by page number, the zeroed buffers of pages CopyFrom
	// unmapped, for the next first touch of the same page to reuse.
	dropped map[uint64]*[PageSize]byte
}

// New returns an empty memory with every page user-accessible and zero.
func New() *Memory {
	return &Memory{
		pages:  make(map[uint64]*[PageSize]byte),
		kernel: make(map[uint64]bool),
	}
}

// Clone returns a deep copy of the memory, used to run the same initial
// image on several cores (e.g. the differential tests and the per-policy
// attack sweeps).
func (m *Memory) Clone() *Memory {
	c := New()
	c.CopyFrom(m)
	return c
}

// CopyFrom makes m an exact copy of base: every page base maps is copied
// into m's existing buffer for that page, every page base lacks is dropped,
// so it reads zero and is unmapped again, and the kernel bits become base's.
// Dropped buffers are kept for m's later first touches, so restoring one
// loaded image before each of many runs allocates nothing once m has seen
// the pages the runs touch.
func (m *Memory) CopyFrom(base *Memory) {
	for pn, pg := range m.pages {
		if base.pages[pn] == nil {
			if m.dropped == nil {
				m.dropped = make(map[uint64]*[PageSize]byte)
			}
			*pg = [PageSize]byte{}
			m.dropped[pn] = pg
			delete(m.pages, pn)
		}
	}
	for pn, pg := range base.pages {
		*m.page(pn<<PageBits, true) = *pg
	}
	clear(m.kernel)
	for pn, k := range base.kernel {
		m.kernel[pn] = k
	}
}

func pageNum(addr uint64) uint64 { return addr >> PageBits }

// SetKernel marks every page overlapping [addr, addr+size) as kernel-only.
func (m *Memory) SetKernel(addr, size uint64) {
	if size == 0 {
		return
	}
	for pn := pageNum(addr); pn <= pageNum(addr+size-1); pn++ {
		m.kernel[pn] = true
	}
}

// SetUser marks every page overlapping [addr, addr+size) as user-accessible.
func (m *Memory) SetUser(addr, size uint64) {
	if size == 0 {
		return
	}
	for pn := pageNum(addr); pn <= pageNum(addr+size-1); pn++ {
		delete(m.kernel, pn)
	}
}

// KernelOnly reports whether the page containing addr is kernel-only.
func (m *Memory) KernelOnly(addr uint64) bool { return m.kernel[pageNum(addr)] }

// UserAccessOK reports whether a user-mode access of size bytes at addr is
// architecturally permitted.
func (m *Memory) UserAccessOK(addr uint64, size int) bool {
	if size <= 0 {
		return true
	}
	for pn := pageNum(addr); pn <= pageNum(addr+uint64(size)-1); pn++ {
		if m.kernel[pn] {
			return false
		}
	}
	return true
}

func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	pn := pageNum(addr)
	pg := m.pages[pn]
	if pg == nil && alloc {
		if pg = m.dropped[pn]; pg != nil {
			delete(m.dropped, pn)
		} else {
			//ndavet:allow alloclint:op first touch of a page allocates its backing; steady-state stores hit mapped pages
			pg = new([PageSize]byte)
		}
		//ndavet:allow alloclint:op page-table insert happens once per touched page, not per store
		m.pages[pn] = pg
	}
	return pg
}

// LoadByte returns the byte at addr. Unmapped memory reads as zero.
func (m *Memory) LoadByte(addr uint64) byte {
	pg := m.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[addr&(PageSize-1)]
}

// StoreByte stores one byte at addr, allocating the page if needed.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(PageSize-1)] = v
}

// Read returns size bytes starting at addr as a little-endian unsigned value.
// size must be 1, 4, or 8. Accesses may straddle page boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(m.LoadByte(addr))
	case 4, 8:
		var buf [8]byte
		for i := 0; i < size; i++ {
			buf[i] = m.LoadByte(addr + uint64(i))
		}
		if size == 4 {
			return uint64(binary.LittleEndian.Uint32(buf[:4]))
		}
		return binary.LittleEndian.Uint64(buf[:])
	default:
		panic(fmt.Sprintf("mem: unsupported read size %d", size))
	}
}

// Write stores the low size bytes of v at addr, little-endian.
// size must be 1, 4, or 8.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	switch size {
	case 1:
		m.StoreByte(addr, byte(v))
	case 4, 8:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		for i := 0; i < size; i++ {
			m.StoreByte(addr+uint64(i), buf[i])
		}
	default:
		panic(fmt.Sprintf("mem: unsupported write size %d", size))
	}
}

// StoreBytes copies b into memory starting at addr, a page at a time.
func (m *Memory) StoreBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr, true)[addr&(PageSize-1):], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// LoadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) LoadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint64(i))
	}
	return out
}

// MappedPages returns the number of pages that have been allocated.
func (m *Memory) MappedPages() int { return len(m.pages) }

// PageNums returns the numbers of all allocated pages in ascending order;
// used by checkpoint serialization.
func (m *Memory) PageNums() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageData returns a copy of the page's contents (nil if unmapped).
func (m *Memory) PageData(pn uint64) []byte {
	pg := m.pages[pn]
	if pg == nil {
		return nil
	}
	out := make([]byte, PageSize)
	copy(out, pg[:])
	return out
}

// SetPageData installs a full page of data at the given page number.
func (m *Memory) SetPageData(pn uint64, data []byte) {
	pg := new([PageSize]byte)
	copy(pg[:], data)
	m.pages[pn] = pg
}

// KernelPages returns the numbers of kernel-only pages in ascending order.
func (m *Memory) KernelPages() []uint64 {
	out := make([]uint64, 0, len(m.kernel))
	for pn, k := range m.kernel {
		if k {
			out = append(out, pn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
