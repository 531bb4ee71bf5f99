package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestUnmappedReadsZero(t *testing.T) {
	m := New()
	if m.Read(0xDEADBEEF, 8) != 0 {
		t.Error("unmapped memory must read zero")
	}
	if m.MappedPages() != 0 {
		t.Error("reads must not allocate pages")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("Read = %#x", got)
	}
	// Little-endian byte order.
	if m.LoadByte(0x1000) != 0x88 || m.LoadByte(0x1007) != 0x11 {
		t.Error("memory must be little-endian")
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("4-byte Read = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("upper 4-byte Read = %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 4)
	m.Write(addr, 8, 0xAABBCCDD11223344)
	if got := m.Read(addr, 8); got != 0xAABBCCDD11223344 {
		t.Errorf("straddling read = %#x", got)
	}
	if m.MappedPages() != 2 {
		t.Errorf("straddling write should touch 2 pages, got %d", m.MappedPages())
	}
}

func TestWriteTruncation(t *testing.T) {
	m := New()
	m.Write(0, 8, ^uint64(0))
	m.Write(0, 1, 0x1234) // only low byte lands
	if got := m.Read(0, 8); got != 0xFFFFFFFFFFFFFF34 {
		t.Errorf("byte overwrite = %#x", got)
	}
}

// TestRoundTripProperty writes and reads random values at random sizes,
// checking each Read against a reference assembled from LoadByte. The
// addresses stress both access paths: page-end offsets (within the page,
// straddling it), the top of the address space (wrapping onto page 0),
// pages no write ever mapped, and ordinary low addresses.
func TestRoundTripProperty(t *testing.T) {
	m := New()
	reference := func(addr uint64, size int) uint64 {
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(m.LoadByte(addr+uint64(i)))
		}
		return v
	}
	f := func(a, v uint64, sz, kind uint8) bool {
		size := []int{1, 4, 8}[sz%3]
		page := a >> PageBits & 0xFF
		var addr uint64
		switch kind % 4 {
		case 0: // the last 16 bytes of a page
			addr = (page+1)<<PageBits - 16 + a%16
		case 1: // the top of the address space
			addr = ^uint64(15) + a%16
		case 2: // an unmapped page, read only
			addr = 1<<40 | page<<PageBits | a%PageSize
			return m.Read(addr, size) == 0 && reference(addr, size) == 0
		default:
			addr = a % (1 << 30)
		}
		m.Write(addr, size, v)
		got := m.Read(addr, size)
		if got != reference(addr, size) {
			return false
		}
		switch size {
		case 1:
			return got == v&0xFF
		case 4:
			return got == v&0xFFFFFFFF
		default:
			return got == v
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if m.Read(0, 8) != reference(0, 8) || m.Read(PageSize-4, 8) != reference(PageSize-4, 8) {
		t.Error("Read disagrees with LoadByte at page 0")
	}
}

// TestWrappingAccessChecksEveryPage: an access whose last bytes wrap past
// 2^64 onto page 0 touches both the top page and page 0, as Read and Write
// do, so the protection check and the marking helpers must cover both.
func TestWrappingAccessChecksEveryPage(t *testing.T) {
	top := ^uint64(PageSize - 1)
	m := New()
	m.SetKernel(top, PageSize)
	if m.UserAccessOK(top+PageSize-4, 8) {
		t.Error("an access starting in a kernel top page was allowed")
	}
	m = New()
	m.SetKernel(0, PageSize)
	if m.UserAccessOK(top+PageSize-4, 8) {
		t.Error("an access wrapping onto kernel page 0 was allowed")
	}
	if !m.UserAccessOK(top+PageSize-8, 8) {
		t.Error("an access ending at the top of the address space must not touch page 0")
	}

	m = New()
	m.SetKernel(top+PageSize-4, 8)
	if !m.kernel[pageNum(top)] || !m.kernel[pageNum(0)] {
		t.Errorf("SetKernel over the wrap marked top=%v page0=%v, want both", m.kernel[pageNum(top)], m.kernel[pageNum(0)])
	}
	if m.kernel[pageNum(PageSize)] || m.kernel[pageNum(top-PageSize)] {
		t.Error("SetKernel over the wrap marked a page the range does not touch")
	}

	m = New()
	m.Write(top+PageSize-4, 8, 0x1122334455667788)
	if m.Read(0, 4) != 0x11223344 || m.Read(top+PageSize-4, 8) != 0x1122334455667788 {
		t.Error("a wrapping write must land its high bytes on page 0")
	}
}

func TestPermissions(t *testing.T) {
	m := New()
	m.SetKernel(0x3000, 0x1000)
	if m.UserAccessOK(0x3000, 8) {
		t.Error("kernel page must reject user access")
	}
	if m.UserAccessOK(0x2FFC, 8) {
		t.Error("access straddling into a kernel page must be rejected")
	}
	if !m.UserAccessOK(0x2FF8, 8) {
		t.Error("access fully below the kernel page must be allowed")
	}
	if !m.kernel[pageNum(0x3FFF)] || m.kernel[pageNum(0x4000)] {
		t.Error("kernel range must cover exactly its pages")
	}
}

func TestSetKernelZeroSize(t *testing.T) {
	m := New()
	m.SetKernel(0x5000, 0)
	if m.kernel[pageNum(0x5000)] {
		t.Error("zero-size SetKernel must mark nothing")
	}
}

func TestClone(t *testing.T) {
	m := New()
	m.Write(0x100, 8, 42)
	m.SetKernel(0x9000, 16)
	c := m.Clone()
	if c.Read(0x100, 8) != 42 || !c.kernel[pageNum(0x9000)] {
		t.Error("clone must copy contents and permissions")
	}
	c.Write(0x100, 8, 7)
	if m.Read(0x100, 8) != 42 {
		t.Error("clone must be independent of the original")
	}
	m.Write(0x200, 8, 9)
	if c.Read(0x200, 8) != 0 {
		t.Error("original writes must not appear in the clone")
	}
}

// TestCopyFrom restores a dirtied image from a base: a page written after
// the copy reads back as the base's bytes, a page the base lacks reads zero
// again, the kernel bits are the base's, and restoring an unchanged base a
// second time allocates nothing, nor does re-mapping a dropped page or
// alternating with an image of as many pages at other page numbers.
func TestCopyFrom(t *testing.T) {
	base := New()
	base.Write(0x1000, 8, 0x1122334455667788)
	base.Write(0x3000, 8, 42)
	base.SetKernel(0x3000, 8)

	m := New()
	m.Write(0x1000, 8, 5) // overwritten by the copy
	m.Write(0x7000, 8, 9) // a page the base lacks
	m.SetKernel(0x8000, 8)
	m.CopyFrom(base)

	m.Write(0x1000, 8, 0xFFFF)     // written after the copy
	m.Write(0x5000, 8, 0xDEADBEEF) // mapped after the copy, absent in base
	m.SetKernel(0x9000, 8)
	delete(m.kernel, pageNum(0x3000)) // a page the base keeps kernel-only turns user
	m.CopyFrom(base)

	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("page written after the copy reads %#x, want the base's bytes", got)
	}
	if got := m.Read(0x3000, 8); got != 42 {
		t.Errorf("base page reads %#x, want 42", got)
	}
	for _, addr := range []uint64{0x5000, 0x7000} {
		if got := m.Read(addr, 8); got != 0 {
			t.Errorf("page %#x the base lacks reads %#x, want 0", addr, got)
		}
	}
	if m.MappedPages() != base.MappedPages() {
		t.Errorf("%d mapped pages, base has %d", m.MappedPages(), base.MappedPages())
	}
	if got, want := fmt.Sprint(m.kernel), fmt.Sprint(base.kernel); got != want {
		t.Errorf("kernel pages %s, want the base's %s", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.CopyFrom(base) }); allocs != 0 {
		t.Errorf("restoring an unchanged base allocates %.0f times, want 0", allocs)
	}
	// A run that maps a page the base lacks reuses the buffer the previous
	// restore dropped.
	if allocs := testing.AllocsPerRun(100, func() {
		m.CopyFrom(base)
		if m.Read(0x5000, 8) != 0 {
			t.Fatal("a reused page buffer must read zero")
		}
		m.Write(0x5000, 8, 0xDEADBEEF)
	}); allocs != 0 {
		t.Errorf("restore plus a first touch outside the base allocates %.0f times, want 0", allocs)
	}
	base.Write(0x1000, 8, 7)
	if m.Read(0x1000, 8) == 7 {
		t.Error("the copy must not share page buffers with the base")
	}

	// An image of as many pages at other page numbers, as another
	// program's, takes the buffers the previous one leaves.
	other := New()
	other.Write(0x21000, 8, 3)
	other.Write(0x23000, 8, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		m.CopyFrom(other)
		if m.Read(0x1000, 8) != 0 || m.Read(0x21000, 8) != 3 || m.Read(0x23000, 8) != 4 {
			t.Fatal("a copy of another image reads the wrong bytes")
		}
		m.CopyFrom(base)
	}); allocs != 0 {
		t.Errorf("alternating two images of one size allocates %.0f times, want 0", allocs)
	}
}

func TestBytesHelpers(t *testing.T) {
	m := New()
	m.StoreBytes(0x40, []byte{1, 2, 3, 4})
	for i, b := range []byte{1, 2, 3, 4} {
		if got := m.LoadByte(0x40 + uint64(i)); got != b {
			t.Fatalf("LoadByte(%#x) = %d, want %d", 0x40+i, got, b)
		}
	}
}

// StoreBytes copies a page at a time; a span crossing several page
// boundaries, starting and ending mid-page, must land byte for byte and
// map exactly the pages it touches.
func TestStoreBytesAcrossPages(t *testing.T) {
	m := New()
	b := make([]byte, 2*PageSize+100)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	addr := uint64(5*PageSize - 50)
	m.StoreBytes(addr, b)
	for i, want := range b {
		if got := m.LoadByte(addr + uint64(i)); got != want {
			t.Fatalf("byte %d = %d, want %d", i, got, want)
		}
	}
	if got := m.LoadByte(addr - 1); got != 0 {
		t.Errorf("byte before the span = %d, want 0", got)
	}
	if got := m.LoadByte(addr + uint64(len(b))); got != 0 {
		t.Errorf("byte after the span = %d, want 0", got)
	}
	if n := m.MappedPages(); n != 4 {
		t.Errorf("mapped pages = %d, want 4", n)
	}
	m.StoreBytes(0x9000, nil)
	if n := m.MappedPages(); n != 4 {
		t.Errorf("an empty store mapped a page: %d pages", n)
	}
}

func TestInvalidSizePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("Read with invalid size must panic")
		}
	}()
	m.Read(0, 3)
}
