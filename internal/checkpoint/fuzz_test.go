package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load, the decoder behind
// nda.LoadCheckpoint. Load must never panic. A checkpoint it accepts has
// every page within the address space, and saving it, loading that back
// and saving again gives the same bytes.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, pn := range append(cp.Mem.PageNums(), cp.Mem.KernelPages()...) {
			if pn > maxPageNum {
				t.Fatalf("page %#x is outside the address space", pn)
			}
		}
		var first bytes.Buffer
		if err := cp.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("save -> load -> save changed the bytes: %d, then %d", first.Len(), second.Len())
		}
	})
}
