package asm_test

import (
	"reflect"
	"slices"
	"testing"

	"nda/internal/asm"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/mem"
)

// FuzzAssemble: arbitrary source never panics the assembler, and whatever
// assembles survives the round trip. Disassemble's text reassembles to the
// same text base, entry, instructions and loaded memory image (its pages,
// their bytes and its kernel pages after emu.Load), and disassembles to
// the same text again. The seed corpus in testdata/fuzz/FuzzAssemble
// covers every mnemonic, pseudo-instruction and directive.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		text := asm.Disassemble(p)
		q, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, text)
		}
		if q.TextBase != p.TextBase || q.Entry != p.Entry {
			t.Fatalf("base/entry %#x/%#x, want %#x/%#x", q.TextBase, q.Entry, p.TextBase, p.Entry)
		}
		if !slices.Equal(q.Insts, p.Insts) {
			t.Fatalf("instructions %v, want %v", q.Insts, p.Insts)
		}
		if !reflect.DeepEqual(image(q), image(p)) {
			t.Fatal("the reassembled program loads a different memory image")
		}
		if again := asm.Disassemble(q); again != text {
			t.Fatalf("disassembly is not a fixpoint:\n%s\nthen\n%s", text, again)
		}
	})
}

// image is the memory a machine running p starts with.
func image(p *isa.Program) *mem.Memory {
	m := mem.New()
	emu.Load(m, p)
	return m
}
