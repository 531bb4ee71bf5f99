package workload

import (
	"testing"

	"nda/internal/emu"
	"nda/internal/isa"
)

func TestAllSpecsBuildAndRun(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			prog := s.Build(5)
			if len(prog.Insts) == 0 {
				t.Fatal("empty program")
			}
			m := emu.New(prog)
			if err := m.Run(2_000_000); err != nil {
				t.Fatalf("emu run: %v", err)
			}
			if !m.Halted {
				t.Error("program did not halt")
			}
		})
	}
}

func TestSpecsAreDeterministic(t *testing.T) {
	for _, s := range SPEC()[:4] {
		p1 := s.Build(3)
		p2 := s.Build(3)
		if len(p1.Insts) != len(p2.Insts) {
			t.Fatalf("%s: nondeterministic code size", s.Name)
		}
		for i := range p1.Insts {
			if p1.Insts[i] != p2.Insts[i] {
				t.Fatalf("%s: instruction %d differs", s.Name, i)
			}
		}
		m1, m2 := emu.New(p1), emu.New(p2)
		if err := m1.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		if err := m2.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		if m1.Regs != m2.Regs {
			t.Fatalf("%s: nondeterministic results", s.Name)
		}
	}
}

func TestIterationScaling(t *testing.T) {
	s, err := ByName("exchange2")
	if err != nil {
		t.Fatal(err)
	}
	short := emu.New(s.Build(2))
	long := emu.New(s.Build(20))
	if err := short.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := long.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if long.Retired <= short.Retired*5 {
		t.Errorf("iteration count must scale work: %d vs %d", short.Retired, long.Retired)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mcf"); err != nil {
		t.Error("mcf must exist")
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark must error")
	}
	for _, s := range All() {
		if got, err := ByName(s.Name); err != nil || got.Name != s.Name || got.Suite != s.Suite {
			t.Errorf("ByName(%q) = %q, %v", s.Name, got.Name, err)
		}
	}
	if len(byName()) != len(All()) {
		t.Errorf("index holds %d specs, All() %d: names must be distinct", len(byName()), len(All()))
	}
}

// TestByNameAllocs: a lookup reads the index; it builds no spec.
func TestByNameAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("exchange2") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
}

func TestSuiteCounts(t *testing.T) {
	intN, fpN := 0, 0
	for _, s := range SPEC() {
		switch s.Suite {
		case "intrate":
			intN++
		case "fprate":
			fpN++
		default:
			t.Errorf("%s: bad suite %q", s.Name, s.Suite)
		}
	}
	if intN != 10 || fpN != 13 {
		t.Errorf("suite sizes: int=%d fp=%d, want 10/13", intN, fpN)
	}
}

func TestRandomTerminates(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		prog := Random(seed, 500)
		m := emu.New(prog)
		if err := m.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := Random(7, 100), Random(7, 100)
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("nondeterministic generation")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatal("instruction streams differ")
		}
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	if b.PC() != isa.DefaultTextBase {
		t.Errorf("initial PC = %#x", b.PC())
	}
	b.Li(isa.RegT0, 42)
	idx := b.Jump(0)
	b.Label("here")
	b.PatchImm(idx, b.PC())
	b.Halt()
	p := b.Program()
	if uint64(p.Insts[1].Imm) != p.MustSymbol("here") {
		t.Error("patching failed")
	}
	if p.Entry != p.TextBase {
		t.Error("default entry")
	}
}

func TestBuilderCountedLoop(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.SetEntry()
	b.Li(isa.RegT0, 0)
	b.CountedLoop(isa.RegT1, 10, func() {
		b.OpI(isa.OpAddi, isa.RegT0, isa.RegT0, 2)
	})
	b.Halt()
	m := emu.New(b.Program())
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.RegT0] != 20 {
		t.Errorf("loop result = %d", m.Regs[isa.RegT0])
	}
}

func TestDataWords(t *testing.T) {
	b := NewBuilder()
	b.DataWords(0x5000, 0x1122334455667788, 42)
	b.Label("main")
	b.SetEntry()
	b.Halt()
	m := emu.New(b.Program())
	if m.Mem.Read(0x5000, 8) != 0x1122334455667788 || m.Mem.Read(0x5008, 8) != 42 {
		t.Error("DataWords layout wrong")
	}
}
