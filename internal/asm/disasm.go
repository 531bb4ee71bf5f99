package asm

import (
	"fmt"
	"strings"

	"nda/internal/isa"
)

// Disassemble renders a program back into assembler source accepted by
// Assemble. The round trip Assemble(Disassemble(p)) reproduces p exactly:
// same text base, instructions, entry point, and data bytes (segment
// boundaries may be merged). Each instruction is printed by isa.Inst.String,
// which spells its operands by the same table the assembler parses them
// by, with branch and jump targets as absolute hex addresses.
//
// The one synthesized label is "main:", at the entry point. An entry on an
// instruction is labelled in .text; any other entry (the end of text, a
// data address) gets ".org ENTRY" and the label at the end of .data, so
// the entry survives the round trip wherever it lies.
func Disassemble(p *isa.Program) string {
	var b strings.Builder

	b.WriteString("        .text\n")
	fmt.Fprintf(&b, "        .org 0x%x\n", p.TextBase)
	entryLabelled := false
	for i, inst := range p.Insts {
		if p.TextBase+uint64(i)*isa.InstBytes == p.Entry {
			b.WriteString("main:\n")
			entryLabelled = true
		}
		b.WriteString("        ")
		b.WriteString(inst.String())
		b.WriteByte('\n')
	}

	if len(p.Data) > 0 || !entryLabelled {
		b.WriteString("\n        .data\n")
		kernel := false
		for _, seg := range p.Data {
			if seg.Kernel != kernel {
				if seg.Kernel {
					b.WriteString("        .kernel\n")
				} else {
					b.WriteString("        .user\n")
				}
				kernel = seg.Kernel
			}
			fmt.Fprintf(&b, "        .org 0x%x\n", seg.Addr)
			for off := 0; off < len(seg.Bytes); off += 16 {
				end := off + 16
				if end > len(seg.Bytes) {
					end = len(seg.Bytes)
				}
				b.WriteString("        .byte ")
				for i := off; i < end; i++ {
					if i > off {
						b.WriteString(", ")
					}
					fmt.Fprintf(&b, "0x%02x", seg.Bytes[i])
				}
				b.WriteString("\n")
			}
		}
		if !entryLabelled {
			fmt.Fprintf(&b, "        .org 0x%x\nmain:\n", p.Entry)
		}
	}
	return b.String()
}
