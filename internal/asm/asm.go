// Package asm implements a two-pass text assembler for the simulator's ISA.
//
// The syntax is RISC-V-flavoured. A source file is a sequence of lines; each
// line may contain a label, a directive or instruction, and a comment
// (introduced by '#' or "//"):
//
//	        .text
//	        .org 0x1000
//	main:   li    t0, 123          # 64-bit immediate load
//	        la    a0, table        # load a label's address
//	        ld    t1, 16(t2)
//	loop:   beq   t0, t1, done
//	        call  helper
//	        j     loop
//	done:   halt
//
//	        .data
//	        .org 0x100000
//	table:  .word64 1, 2, 3, helper
//	buf:    .space 4096
//	        .kernel                # pages of following data are kernel-only
//	secret: .byte 42
//
// Sections: ".text" holds instructions, ".data" holds initialized bytes.
// ".org ADDR" sets the location counter of the current section. ".kernel"
// and ".user" set the protection of subsequently emitted data. Supported
// data directives: .byte, .word32, .word64, .ascii, .asciiz, .space, .align.
//
// Immediates may be decimal, hex (0x..), character ('c'), or a symbol,
// optionally with a +N/-N offset (e.g. "table+8"). Branch and jump targets
// are resolved to absolute byte addresses.
//
// Each opcode's operands are spelled by isa.Op.Operands, the table
// isa.Inst.String prints by: "add" takes "rd, rs1, rs2", "ld" takes
// "rd, off(rs1)", "sd" takes "rs2, off(rs1)", "beq" takes "rs1, rs2,
// target". Its mnemonic is the opcode's name ("li" for isa.OpLui). The
// pseudo-instructions preset fields of a real instruction: la (li), mv
// (addi rd, rs1, 0), j and call (jal with x0 or ra), callr and jr (jalr
// with ra or x0, offset 0) and ret (jalr x0, 0(ra)).
//
// The entry point is the "main" label, else "_start", else the start of
// text. Disassemble prints source that reassembles to the same program,
// entry included.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"nda/internal/isa"
)

// Error describes an assembly failure with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

type assembler struct {
	symbols map[string]uint64

	textBase uint64
	textPC   uint64
	insts    []isa.Inst

	dataCursor uint64
	kernel     bool
	segments   []isa.Segment
	curSeg     *isa.Segment

	section section
	pass    int
	lineNo  int

	ops []string // the current line's operands, reused across lines

	// forward is pass 1's first location directive whose operand names a
	// symbol not defined yet (forwardSym). If a later line defines it, the
	// labels after the directive sit where its 0 operand put them, so
	// Assemble fails; a symbol never defined fails in pass 2 as usual.
	forward    *Error
	forwardSym string
}

// Assemble translates source into a Program. The text section defaults to
// isa.DefaultTextBase; entry is the "main" or "_start" label if defined,
// otherwise the start of text.
func Assemble(source string) (*isa.Program, error) {
	a := &assembler{symbols: make(map[string]uint64), textBase: isa.DefaultTextBase}
	lines := strings.Split(source, "\n")

	for pass := 1; pass <= 2; pass++ {
		a.pass = pass
		a.textPC = 0
		a.textBase = isa.DefaultTextBase
		a.dataCursor = 0
		a.kernel = false
		a.section = secText
		a.insts = a.insts[:0]
		a.segments = nil
		a.curSeg = nil
		for i, raw := range lines {
			a.lineNo = i + 1
			if err := a.line(raw); err != nil {
				return nil, err
			}
		}
		if _, defined := a.symbols[a.forwardSym]; a.forward != nil && defined {
			return nil, a.forward
		}
	}

	p := &isa.Program{
		TextBase: a.textBase,
		Insts:    a.insts,
		Data:     a.segments,
		Symbols:  a.symbols,
	}
	p.Entry = p.TextBase
	if e, ok := a.symbols["main"]; ok {
		p.Entry = e
	} else if e, ok := a.symbols["_start"]; ok {
		p.Entry = e
	}
	return p, nil
}

// MustAssemble is Assemble but panics on error; for tests and built-in
// program generators whose source is statically known to be valid.
func MustAssemble(source string) *isa.Program {
	p, err := Assemble(source)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.lineNo, Msg: fmt.Sprintf(format, args...)}
}

func stripComment(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func (a *assembler) here() uint64 {
	if a.section == secText {
		return a.textBase + a.textPC
	}
	return a.dataCursor
}

func (a *assembler) line(raw string) error {
	s := strings.TrimSpace(strings.ReplaceAll(stripComment(raw), "\t", " "))
	if s == "" {
		return nil
	}
	// Labels (possibly several) at line start.
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		name := strings.TrimSpace(s[:i])
		if !isIdent(name) {
			break // ':' belongs to something else (we have no such syntax, but be safe)
		}
		if a.pass == 1 {
			if _, dup := a.symbols[name]; dup {
				return a.errf("duplicate label %q", name)
			}
			a.symbols[name] = a.here()
		} else if at := a.symbols[name]; at != a.here() {
			return a.errf("label %q moved from %#x in pass 1 to %#x in pass 2", name, at, a.here())
		}
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	if a.section != secText {
		return a.errf("instruction %q outside .text", s)
	}
	inst, err := a.instruction(s)
	if err != nil {
		return err
	}
	a.insts = append(a.insts, inst)
	a.textPC += isa.InstBytes
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ---- directives ----

func (a *assembler) directive(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		a.section = secText
		return nil
	case ".data":
		a.section = secData
		a.curSeg = nil
		return nil
	case ".org":
		v, err := a.location(name, rest)
		if err != nil {
			return err
		}
		if a.section == secText {
			if len(a.insts) > 0 {
				return a.errf(".org in .text must precede all instructions")
			}
			a.textBase = v
		} else {
			a.dataCursor = v
			a.curSeg = nil
		}
		return nil
	case ".kernel":
		a.kernel = true
		a.curSeg = nil
		return nil
	case ".user":
		a.kernel = false
		a.curSeg = nil
		return nil
	case ".align":
		n, err := a.location(name, rest)
		if err != nil {
			return err
		}
		if n == 0 || n&(n-1) != 0 {
			return a.errf(".align requires a power of two, got %d", n)
		}
		if a.section != secData {
			return a.errf(".align only supported in .data")
		}
		a.dataCursor = (a.dataCursor + n - 1) &^ (n - 1)
		a.curSeg = nil
		return nil
	case ".space":
		n, err := a.location(name, rest)
		if err != nil {
			return err
		}
		if a.section != secData {
			return a.errf(".space only supported in .data")
		}
		a.dataCursor += n
		a.curSeg = nil
		return nil
	case ".byte":
		return a.emitList(rest, 1)
	case ".word32":
		return a.emitList(rest, 4)
	case ".word64":
		return a.emitList(rest, 8)
	case ".ascii", ".asciiz":
		if a.section != secData {
			return a.errf("%s only supported in .data", name)
		}
		str, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf("%s: bad string %s: %v", name, rest, err)
		}
		b := []byte(str)
		if name == ".asciiz" {
			b = append(b, 0)
		}
		a.emitBytes(b)
		return nil
	default:
		return a.errf("unknown directive %q", name)
	}
}

func (a *assembler) emitList(rest string, size int) error {
	if a.section != secData {
		return a.errf("data directive outside .data")
	}
	if strings.TrimSpace(rest) == "" {
		return a.errf("empty value list")
	}
	a.ops = splitOperands(a.ops[:0], rest)
	for _, f := range a.ops {
		v, err := a.value(f)
		if err != nil {
			return err
		}
		var buf [8]byte
		for i := 0; i < size; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		a.emitBytes(buf[:size])
	}
	return nil
}

// emitBytes places b at the data cursor, in pass 2 into the current
// segment. No bytes open no segment: Disassemble has nothing to print for
// an empty one, so it would not survive the round trip.
func (a *assembler) emitBytes(b []byte) {
	if a.pass == 2 && len(b) > 0 {
		if a.curSeg == nil {
			a.segments = append(a.segments, isa.Segment{Addr: a.dataCursor, Kernel: a.kernel})
			a.curSeg = &a.segments[len(a.segments)-1]
		}
		a.curSeg.Bytes = append(a.curSeg.Bytes, b...)
	}
	a.dataCursor += uint64(len(b))
}

// ---- operand parsing ----

// value evaluates an immediate expression: NUMBER | 'c' | SYMBOL | SYMBOL±NUMBER.
func (a *assembler) value(expr string) (uint64, error) {
	v, undefined, err := a.eval(expr)
	if err != nil || undefined == "" {
		return v, err
	}
	return a.undefined(undefined)
}

// location is value for the operand of the directive name, which moves
// the location counter: labels after it take their pass-1 addresses from
// its value, so it cannot refer to a later label (see assembler.forward).
func (a *assembler) location(name, expr string) (uint64, error) {
	v, undefined, err := a.eval(expr)
	if err != nil || undefined == "" {
		return v, err
	}
	if a.pass == 1 && a.forward == nil {
		a.forward = &Error{Line: a.lineNo, Msg: fmt.Sprintf(
			"%s: symbol %q is defined after it (a location cannot depend on a later label)", name, undefined)}
		a.forwardSym = undefined
	}
	return a.undefined(undefined)
}

// undefined is the value of a symbol not defined (yet): 0 in pass 1, where
// instructions and data have fixed sizes, so a forward reference moves no
// label; an error in pass 2.
func (a *assembler) undefined(sym string) (uint64, error) {
	if a.pass == 1 {
		return 0, nil // forward reference; resolved in pass 2
	}
	return 0, a.errf("undefined symbol %q", sym)
}

// eval evaluates an immediate expression, or names the symbol it refers
// to that is not defined (yet).
func (a *assembler) eval(expr string) (v uint64, undefined string, err error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, "", a.errf("missing value")
	}
	if expr[0] == '\'' {
		r, err := strconv.Unquote(expr)
		if err != nil || len(r) != 1 {
			return 0, "", a.errf("bad character literal %s", expr)
		}
		return uint64(r[0]), "", nil
	}
	// Only a leading digit, signed or not, can start a number: skipping
	// the parse for a symbol saves the error value it would build.
	if d := strings.TrimPrefix(expr, "-"); d != "" && d[0] >= '0' && d[0] <= '9' {
		if n, err := parseNum(expr); err == nil {
			return n, "", nil
		}
	}
	// SYMBOL, SYMBOL+N, SYMBOL-N (split at the last +/- that is not leading)
	sym, off := expr, int64(0)
	for i := 1; i < len(expr); i++ {
		if expr[i] == '+' || expr[i] == '-' {
			n, err := parseNum(expr[i+1:])
			if err != nil {
				return 0, "", a.errf("bad offset in %q", expr)
			}
			sym = strings.TrimSpace(expr[:i])
			off = int64(n)
			if expr[i] == '-' {
				off = -off
			}
			break
		}
	}
	if !isIdent(sym) {
		return 0, "", a.errf("bad value %q", expr)
	}
	addr, ok := a.symbols[sym]
	if !ok {
		return 0, sym, nil
	}
	return addr + uint64(off), "", nil
}

func parseNum(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, err
	}
	if neg {
		return uint64(-int64(v)), nil
	}
	return v, nil
}

var regAliases = map[string]isa.Reg{
	"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
	"t0": 5, "t1": 6, "t2": 7,
	"s0": 8, "fp": 8, "s1": 9,
	"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
	"s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25,
	"s10": 26, "s11": 27,
	"t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

func (a *assembler) reg(tok string) (isa.Reg, error) {
	tok = strings.TrimSpace(tok)
	if r, ok := regAliases[tok]; ok {
		return r, nil
	}
	if strings.HasPrefix(tok, "x") {
		if n, err := strconv.Atoi(tok[1:]); err == nil && n >= 0 && n < isa.NumGPR {
			return isa.Reg(n), nil
		}
	}
	return 0, a.errf("bad register %q", tok)
}

// memOperand parses "OFFSET(REG)" or "(REG)" or "SYMBOL(REG)".
func (a *assembler) memOperand(tok string) (off int64, base isa.Reg, err error) {
	tok = strings.TrimSpace(tok)
	open := strings.Index(tok, "(")
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return 0, 0, a.errf("bad memory operand %q (want off(reg))", tok)
	}
	base, err = a.reg(tok[open+1 : len(tok)-1])
	if err != nil {
		return 0, 0, err
	}
	offStr := strings.TrimSpace(tok[:open])
	if offStr == "" {
		return 0, base, nil
	}
	v, err := a.value(offStr)
	if err != nil {
		return 0, 0, err
	}
	return int64(v), base, nil
}

// splitOperands appends the comma-separated operands of s to out.
func splitOperands(out []string, s string) []string {
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// ---- instructions ----

// mnemonic is what one assembler mnemonic stands for: the instruction it
// presets and the operand spelling (isa.Op.Operands) its operands fill in.
type mnemonic struct {
	inst     isa.Inst
	operands string
}

// mnemonics holds every opcode under its own name, spelled as isa prints
// it, plus the pseudo-instructions, which preset fields of a real one.
var mnemonics = func() map[string]mnemonic {
	m := map[string]mnemonic{
		"la":    {isa.Inst{Op: isa.OpLui}, "di"},
		"mv":    {isa.Inst{Op: isa.OpAddi}, "ds"},
		"j":     {isa.Inst{Op: isa.OpJal, Rd: isa.RegZero}, "a"},
		"call":  {isa.Inst{Op: isa.OpJal, Rd: isa.RegRA}, "a"},
		"callr": {isa.Inst{Op: isa.OpJalr, Rd: isa.RegRA}, "s"},
		"jr":    {isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero}, "s"},
		"ret":   {isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}, ""},
	}
	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		m[op.String()] = mnemonic{isa.Inst{Op: op}, op.Operands()}
	}
	return m
}()

// instruction assembles one source line's mnemonic and operands.
func (a *assembler) instruction(s string) (isa.Inst, error) {
	mn, rest, _ := strings.Cut(s, " ")
	mn = strings.ToLower(strings.TrimSpace(mn))
	m, ok := mnemonics[mn]
	if !ok {
		return isa.Inst{}, a.errf("unknown mnemonic %q", mn)
	}
	a.ops = a.ops[:0]
	if rest != "" {
		a.ops = splitOperands(a.ops, rest)
	}
	if len(a.ops) != len(m.operands) {
		return isa.Inst{}, a.errf("%s: want %d operands, got %d", mn, len(m.operands), len(a.ops))
	}
	inst := m.inst
	for k, tok := range a.ops {
		var err error
		switch m.operands[k] {
		case 'd':
			inst.Rd, err = a.reg(tok)
		case 's':
			inst.Rs1, err = a.reg(tok)
		case 't':
			inst.Rs2, err = a.reg(tok)
		case 'i', 'a':
			var v uint64
			v, err = a.value(tok)
			inst.Imm = int64(v)
		case 'm':
			inst.Imm, inst.Rs1, err = a.memOperand(tok)
		}
		if err != nil {
			return isa.Inst{}, err
		}
	}
	return inst, nil
}
