package gadget

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strconv"

	"nda/internal/isa"
)

// DefaultWindow bounds how far past a steering point the analyzer follows a
// transient path, in instructions. It matches the ROB size of
// ooo.DefaultParams: the window within which wrong-path instructions can be
// in flight.
const DefaultWindow = 192

const (
	maxChainSites = 12 // representative-chain cap in reports
	maxBypassScan = 64 // straight-line distance a load may bypass a store
)

// Config parameterizes an analysis.
type Config struct {
	// SecretRegs designates registers holding a secret architecturally at
	// region entry, enabling detection of the §4.2 register-steering gadget
	// (secret already in a GPR, no load needed).
	SecretRegs []isa.Reg
	// Window bounds the transient window in instructions; 0 = DefaultWindow.
	Window int
}

// Analyze runs the static gadget analysis over one program.
func Analyze(p *isa.Program, cfg Config) *Analysis {
	a := newAnalyzer(p, cfg)
	a.harvest()
	a.constProp()
	a.liveness()
	guards := 0
	for i := range a.insts {
		if isa.ClassOf(a.insts[i]) != isa.ClassBranch || !a.live[2*i+1] {
			continue
		}
		guards++
		a.analyzeSteering(i)
	}
	a.analyzeChosenCode()
	a.analyzeBypass()

	gs := a.gadgets()
	sortGadgets(gs)
	leaks := make(map[string]bool, 9)
	for _, pol := range policies {
		leaks[pol.Name] = false
	}
	byChannel := map[string]map[string]bool{}
	for i := range gs {
		fillVerdicts(&gs[i])
		if gs[i].Advisory {
			continue
		}
		ch := string(gs[i].Channel)
		if byChannel[ch] == nil {
			m := make(map[string]bool, 9)
			for _, pol := range policies {
				m[pol.Name] = false
			}
			byChannel[ch] = m
		}
		for name, v := range gs[i].Verdicts {
			if !v.Blocked {
				leaks[name] = true
				byChannel[ch][name] = true
			}
		}
	}
	return &Analysis{Insts: a.n, Guards: guards, Gadgets: gs, Leaks: leaks, LeaksByChannel: byChannel}
}

// ---------------------------------------------------------------------------
// analyzer state and the preparatory passes

type analyzer struct {
	p      *isa.Program
	cfg    Config
	insts  []isa.Inst
	n      int
	window int

	retSites  []int // indices following call instructions: RAS mis-targets
	harvested []int // code addresses found in data: BTB mis-targets
	barrier   []bool
	loadAddr  []knownAddr
	storeAddr []knownAddr
	slowStore []bool
	live      []bool // live[2i+1]: i is arch-reachable with speculation on; live[2i]: off
	syms      []symEntry
	symsBuilt bool
	sites     []Site // rendered per instruction on first use; Asm is never empty

	// Scratch reused by every region and dataflow of the analysis.
	reg  region
	in   []regState // incoming taint per instruction, valid for reg's members
	inWL []bool
	wl   []int
	flav []flavors // the flavor sets regStates name; flav[0] is the empty set

	// Gadget candidates, one per (kind, channel, transmitter, flavor);
	// candAt[i] is 1 + the index of transmitter i's latest candidate, whose
	// next links the transmitter's earlier ones (0 ends both).
	cands  []candidate
	candAt []int32
}

// knownAddr is a statically resolved load or store address.
type knownAddr struct {
	addr uint64
	ok   bool
}

type symEntry struct {
	addr uint64
	name string
}

func newAnalyzer(p *isa.Program, cfg Config) *analyzer {
	w := cfg.Window
	if w <= 0 {
		w = DefaultWindow
	}
	n := len(p.Insts)
	ints := make([]int, 3*n) // a region's entries, order and queue: n each at most
	return &analyzer{
		p:         p,
		cfg:       cfg,
		insts:     p.Insts,
		n:         n,
		window:    w,
		barrier:   make([]bool, n),
		loadAddr:  make([]knownAddr, n),
		storeAddr: make([]knownAddr, n),
		slowStore: make([]bool, n),
		reg: region{
			dist:    make([]int32, n),
			entries: ints[:0:n],
			order:   ints[n : n : 2*n],
			queue:   ints[2*n : 2*n : 3*n],
		},
		in:     make([]regState, n),
		inWL:   make([]bool, n),
		flav:   make([]flavors, 1, 8),
		candAt: make([]int32, n),
	}
}

func (a *analyzer) idx(pc uint64) (int, bool) {
	if pc < a.p.TextBase || (pc-a.p.TextBase)%isa.InstBytes != 0 {
		return 0, false
	}
	i := int((pc - a.p.TextBase) / isa.InstBytes)
	if i >= a.n {
		return 0, false
	}
	return i, true
}

func (a *analyzer) pc(i int) uint64 { return a.p.TextBase + uint64(i)*isa.InstBytes }

// harvest scans data segments for aligned words that decode to text
// addresses: the indirect-branch targets an attacker can plant for the BTB
// to mispredict to (function-pointer tables, vtables). It also records the
// return sites the RAS can mispredict to.
func (a *analyzer) harvest() {
	seen := make([]bool, a.n)
	for _, seg := range a.p.Data {
		for off := 0; off+8 <= len(seg.Bytes); off++ {
			if (seg.Addr+uint64(off))%8 != 0 {
				continue
			}
			w := binary.LittleEndian.Uint64(seg.Bytes[off : off+8])
			if i, ok := a.idx(w); ok && !seen[i] {
				seen[i] = true
				a.harvested = append(a.harvested, i)
			}
		}
	}
	slices.Sort(a.harvested)
	for i := range a.insts {
		if a.insts[i].IsCall() && i+1 < a.n {
			a.retSites = append(a.retSites, i+1)
		}
	}
}

// constProp runs one linear constant-propagation pass (invalidated at every
// control-transfer target and after every control instruction) to resolve
// statically known load/store addresses — kernel-segment accesses for the
// chosen-code analysis, alias checks for the bypass analysis — and marks
// "slow stores": stores whose address chain contains a load and therefore
// resolves late enough for a younger load to bypass (§4.1, Spectre v4).
func (a *analyzer) constProp() {
	for i := range a.insts {
		inst := a.insts[i]
		if inst.IsCondBranch() || inst.Op == isa.OpJal {
			if t, ok := a.idx(uint64(inst.Imm)); ok {
				a.barrier[t] = true
			}
		}
	}
	for _, t := range a.harvested {
		a.barrier[t] = true
	}
	for _, t := range a.retSites {
		a.barrier[t] = true
	}

	var consts [isa.NumGPR]uint64
	var known, der [isa.NumGPR]bool
	val := func(r isa.Reg) (uint64, bool) {
		if r == isa.RegZero {
			return 0, true
		}
		return consts[r], known[r]
	}
	for i := 0; i < a.n; i++ {
		if a.barrier[i] {
			known, der = [isa.NumGPR]bool{}, [isa.NumGPR]bool{}
		}
		inst := a.insts[i]
		if inst.IsLoad() {
			if base, ok := val(inst.Rs1); ok {
				a.loadAddr[i] = knownAddr{base + uint64(inst.Imm), true}
			}
		}
		if inst.IsStore() {
			a.slowStore[i] = inst.Rs1 != isa.RegZero && der[inst.Rs1]
			if base, ok := val(inst.Rs1); ok {
				a.storeAddr[i] = knownAddr{base + uint64(inst.Imm), true}
			}
		}
		if rd, writes := inst.WritesReg(); writes {
			switch {
			case inst.Op == isa.OpLui:
				consts[rd], known[rd] = uint64(inst.Imm), true
				der[rd] = false
			case isa.IsALU(inst.Op):
				_, nsrc := inst.SrcRegs()
				av, aok := val(inst.Rs1)
				bv, bok := uint64(inst.Imm), true
				d := der[inst.Rs1]
				if nsrc == 2 {
					bv, bok = val(inst.Rs2)
					d = d || der[inst.Rs2]
				}
				known[rd] = aok && bok
				if known[rd] {
					consts[rd] = isa.EvalALU(inst.Op, av, bv)
				}
				der[rd] = d
			case inst.IsLoad() || inst.Op == isa.OpRdmsr:
				known[rd] = false
				der[rd] = true
			default: // jal/jalr link, rdcycle
				known[rd] = false
				der[rd] = false
			}
		}
		if inst.IsControl() {
			known, der = [isa.NumGPR]bool{}, [isa.NumGPR]bool{}
		}
	}
}

// liveness computes architectural reachability over (pc, speculation-enabled)
// states, starting from the entry with speculation on. A guard that is only
// reachable inside a specoff/specon bracket can never mis-steer: the front
// end fetches past unresolved branches only when speculation is enabled.
func (a *analyzer) liveness() {
	a.live = make([]bool, a.n*2)
	entry, ok := a.idx(a.p.Entry)
	if !ok {
		return
	}
	type st struct {
		i  int
		on bool
	}
	stack := []st{{entry, true}}
	push := func(i int, on bool) {
		k := i*2 + 1
		if !on {
			k = i * 2
		}
		if i < a.n && !a.live[k] {
			a.live[k] = true
			stack = append(stack, st{i, on})
		}
	}
	a.live[entry*2+1] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		inst := a.insts[s.i]
		switch {
		case inst.Op == isa.OpHalt || inst.Op == isa.OpInvalid:
		case inst.Op == isa.OpSpecOff:
			push(s.i+1, false)
		case inst.Op == isa.OpSpecOn:
			push(s.i+1, true)
		case inst.IsCondBranch():
			push(s.i+1, s.on)
			if t, ok := a.idx(uint64(inst.Imm)); ok {
				push(t, s.on)
			}
		case inst.Op == isa.OpJal:
			if t, ok := a.idx(uint64(inst.Imm)); ok {
				push(t, s.on)
			}
		case inst.Op == isa.OpJalr:
			if inst.IsReturn() {
				for _, t := range a.retSites {
					push(t, s.on)
				}
			} else {
				for _, t := range a.harvested {
					push(t, s.on)
				}
			}
		default:
			push(s.i+1, s.on)
		}
	}
}

// liveAny reports whether instruction i is arch-reachable in either
// speculation state.
func (a *analyzer) liveAny(i int) bool { return a.live[2*i] || a.live[2*i+1] }

// ---------------------------------------------------------------------------
// transient regions: the code a mis-steered front end can fetch

// specSuccs returns the indices fetch can reach right after instruction i on
// a speculative path, in buf or in one of the analyzer's target lists
// (which the caller must not modify). Fetch stops dead at
// halt/invalid/specoff; it also stops at fence because younger instructions
// cannot issue before the fence completes, and the fence itself waits for
// every older instruction — including the unresolved guard, whose
// resolution squashes the path first.
func (a *analyzer) specSuccs(i int, buf *[2]int) []int {
	inst := a.insts[i]
	succs := buf[:0]
	switch {
	case inst.Op == isa.OpHalt || inst.Op == isa.OpInvalid ||
		inst.Op == isa.OpSpecOff || inst.Op == isa.OpFence:
	case inst.IsCondBranch():
		if i+1 < a.n {
			succs = append(succs, i+1)
		}
		if t, ok := a.idx(uint64(inst.Imm)); ok {
			succs = append(succs, t)
		}
	case inst.Op == isa.OpJal:
		if t, ok := a.idx(uint64(inst.Imm)); ok {
			succs = append(succs, t)
		}
	case inst.Op == isa.OpJalr:
		if inst.IsReturn() {
			return a.retSites
		}
		return a.harvested
	default:
		if i+1 < a.n {
			succs = append(succs, i+1)
		}
	}
	return succs
}

// region is the set of instructions within the transient window of one or
// more entry points, with each member's minimum fetch distance.
type region struct {
	dist    []int32 // per instruction: fetch distance, 0 = not a member
	entries []int   // ascending
	order   []int   // every member, ascending
	queue   []int
}

// buildRegion rebuilds a.reg over the window of starts (which must not be
// a.reg's own slices) and returns it.
func (a *analyzer) buildRegion(starts []int) *region {
	r := &a.reg
	for _, i := range r.order {
		r.dist[i] = 0
	}
	r.entries, r.queue = r.entries[:0], r.queue[:0]
	for _, s := range starts {
		if r.dist[s] == 0 {
			r.dist[s] = 1
			r.entries = append(r.entries, s)
			r.queue = append(r.queue, s)
		}
	}
	var buf [2]int
	for h := 0; h < len(r.queue); h++ {
		i := r.queue[h]
		d := r.dist[i]
		if int(d) >= a.window {
			continue
		}
		for _, s := range a.specSuccs(i, &buf) {
			if r.dist[s] == 0 {
				r.dist[s] = d + 1
				r.queue = append(r.queue, s)
			}
		}
	}
	// Every member entered the queue exactly once.
	r.order = append(r.order[:0], r.queue...)
	slices.Sort(r.order)
	slices.Sort(r.entries)
	return r
}

// ---------------------------------------------------------------------------
// taint dataflow over a region

// flavorKey collapses the taint lattice per register: what kind of source
// the value derives from and which chain properties the verdict table needs.
// Keeping one representative chain per flavor (instead of one gadget per
// source×path) bounds the output without losing any verdict-distinct gadget.
// Its three bits index a flavors set, so ascending keys run from
// {register seed, load-free, direct use} all false to all true.
type flavorKey uint8

const (
	flavDirectUse flavorKey = 1 << iota // no producer at all between seed and consumer
	flavLoadFree                        // no load anywhere on the chain
	flavGPR                             // derives from a register-resident secret seed

	numFlavors = 8
)

// rep is the representative source and chain for one flavor.
type rep struct {
	srcIdx int32 // instruction index of the access, or -1 for a GPR seed
	srcReg isa.Reg
	n      uint8 // chain length
	chain  [maxChainSites]int32
}

// sourceRep is the representative of a fresh secret read by instruction i.
func sourceRep(i int) rep {
	r := rep{srcIdx: int32(i), n: 1}
	r.chain[0] = int32(i)
	return r
}

// repLess is a total order on representatives; joins keep the minimum, which
// makes the fixpoint independent of evaluation order.
func repLess(x, y *rep) bool {
	if x.srcIdx != y.srcIdx {
		return x.srcIdx < y.srcIdx
	}
	if x.srcReg != y.srcReg {
		return x.srcReg < y.srcReg
	}
	if x.n != y.n {
		return x.n < y.n
	}
	for i := uint8(0); i < x.n; i++ {
		if x.chain[i] != y.chain[i] {
			return x.chain[i] < y.chain[i]
		}
	}
	return false
}

func extendChain(r rep, i int) rep {
	if r.n < maxChainSites {
		r.chain[r.n] = int32(i)
		r.n++
	}
	return r
}

// flavors holds at most one representative per flavor: reps[k] is present
// iff bit k of has is set.
type flavors struct {
	has  uint8
	reps [numFlavors]rep
}

// add joins r in as flavor k's representative, keeping the minimum.
// Reports whether f changed.
func (f *flavors) add(k flavorKey, r rep) bool {
	bit := uint8(1) << k
	if f.has&bit != 0 && !repLess(&r, &f.reps[k]) {
		return false
	}
	f.has |= bit
	f.reps[k] = r
	return true
}

// memCell is the pseudo-register modeling memory taint through store-to-load
// forwarding. One conservative cell stands for all of memory: a store of
// tainted data joins its flavors (chain extended by the store) into the
// cell, and every later in-region load reads them back (chain extended by
// the load). No address discrimination is attempted — any tainted store may
// feed any later load — which can only add gadgets, never hide one.
const memCell = isa.Reg(isa.NumGPR)

// regState is the taint of every register and the memory cell: the index in
// a.flav of its flavor set, 0 when untainted. Flavor sets are never changed
// once added, so states share them freely.
type regState [isa.NumGPR + 1]int32

// intern adds f to the flavor sets and returns its index.
func (a *analyzer) intern(f *flavors) int32 {
	a.flav = append(a.flav, *f)
	return int32(len(a.flav) - 1)
}

// join merges src into dst, keeping the minimum representative per flavor.
// Reports whether dst changed.
func (a *analyzer) join(dst, src *regState) bool {
	changed := false
	for r, s := range src {
		d := dst[r]
		if s == 0 || s == d {
			continue
		}
		if d == 0 {
			dst[r] = s
			changed = true
			continue
		}
		m := a.flav[d]
		grew := false
		sf := &a.flav[s]
		for k := flavorKey(0); k < numFlavors; k++ {
			if sf.has&(1<<k) != 0 && m.add(k, sf.reps[k]) {
				grew = true
			}
		}
		if grew {
			dst[r] = a.intern(&m)
			changed = true
		}
	}
	return changed
}

// transfer applies instruction i to the incoming taint state. In guardMode
// (steering analysis) every load is additionally a fresh secret source: on a
// mis-steered path, any reachable load can read an attacker-chosen address.
func (a *analyzer) transfer(in *regState, i int, guardMode bool) regState {
	inst := a.insts[i]
	out := *in
	if inst.IsStore() {
		src := out[inst.Rs2]
		if src == 0 {
			return out
		}
		// Tainted store data flows into the memory cell. The flavor is
		// normalized to its seed kind: once laundered through memory the
		// chain necessarily contains a producer (the store) and, on read-
		// back, a load.
		m := a.flav[out[memCell]]
		grew := false
		fl := &a.flav[src]
		for k := flavorKey(0); k < numFlavors; k++ {
			if fl.has&(1<<k) != 0 && m.add(k&flavGPR, extendChain(fl.reps[k], i)) {
				grew = true
			}
		}
		if grew {
			out[memCell] = a.intern(&m)
		}
		return out
	}
	rd, writes := inst.WritesReg()
	if !writes {
		return out
	}
	var derived flavors
	// from joins every flavor of the set named by s into derived, mapped by
	// keep (the key bits that survive) and the chain extended by i.
	from := func(s int32, keep flavorKey) {
		fl := &a.flav[s]
		for k := flavorKey(0); k < numFlavors; k++ {
			if fl.has&(1<<k) != 0 {
				derived.add(k&keep, extendChain(fl.reps[k], i))
			}
		}
	}
	switch {
	case inst.Op == isa.OpLui:
		// immediate overwrite: kills taint
	case isa.IsALU(inst.Op):
		srcs, nsrc := inst.SrcRegs()
		for s := 0; s < nsrc; s++ {
			from(out[srcs[s]], ^flavDirectUse)
		}
	case inst.IsLoad():
		from(out[inst.Rs1], flavGPR)
		// Store-to-load forwarding: the load may read back any tainted
		// value a prior in-region store put in memory.
		from(out[memCell], flavGPR)
		if guardMode {
			derived.add(0, sourceRep(i))
		}
	case inst.Op == isa.OpRdmsr:
		if guardMode {
			derived.add(0, sourceRep(i))
		}
		// rdcycle, jal/jalr link writes: untainted
	}
	out[rd] = 0
	if derived.has != 0 {
		out[rd] = a.intern(&derived)
	}
	return out
}

// newFlow starts a dataflow: it drops the previous dataflow's flavor sets,
// which no state of the new one names.
func (a *analyzer) newFlow() { a.flav = a.flav[:1] }

// taint returns the index of a new flavor set holding r as flavor k.
func (a *analyzer) taint(k flavorKey, r rep) int32 {
	var f flavors
	f.add(k, r)
	return a.intern(&f)
}

// dataflow runs the taint worklist to fixpoint over the region, leaving
// each member's incoming state in a.in.
func (a *analyzer) dataflow(reg *region, seed *regState, guardMode bool) {
	for _, i := range reg.order {
		a.in[i] = regState{}
	}
	for _, e := range reg.entries {
		a.join(&a.in[e], seed)
	}
	// Every member enters the worklist once: taint is GENERATED inside the
	// region (guard-mode load sources), not only injected at the entries.
	wl := append(a.wl[:0], reg.order...)
	for _, i := range wl {
		a.inWL[i] = true
	}
	var buf [2]int
	for h := 0; h < len(wl); h++ {
		i := wl[h]
		a.inWL[i] = false
		out := a.transfer(&a.in[i], i, guardMode)
		for _, s := range a.specSuccs(i, &buf) {
			if reg.dist[s] == 0 {
				continue
			}
			if a.join(&a.in[s], &out) && !a.inWL[s] {
				wl = append(wl, s)
				a.inWL[s] = true
			}
		}
	}
	a.wl = wl
}

// ---------------------------------------------------------------------------
// the three gadget analyses

func (a *analyzer) analyzeSteering(guard int) {
	var buf [2]int
	reg := a.buildRegion(a.specSuccs(guard, &buf))
	a.newFlow()
	var seed regState
	for _, r := range a.cfg.SecretRegs {
		if r != isa.RegZero {
			seed[r] = a.taint(flavGPR|flavLoadFree|flavDirectUse, rep{srcIdx: -1, srcReg: r})
		}
	}
	a.dataflow(reg, &seed, true)
	a.emit(reg, KindSteering, guard)
}

func (a *analyzer) analyzeChosenCode() {
	var buf [2]int
	for i := range a.insts {
		if !a.liveAny(i) {
			continue
		}
		inst := a.insts[i]
		source := false
		if inst.IsLoad() {
			if la := a.loadAddr[i]; la.ok && a.inKernel(la.addr) {
				source = true
			}
		}
		if inst.Op == isa.OpRdmsr && isa.PrivilegedMSR(uint16(inst.Imm)) {
			source = true
		}
		if !source {
			continue
		}
		rd, writes := inst.WritesReg()
		if !writes {
			continue
		}
		reg := a.buildRegion(a.specSuccs(i, &buf))
		a.newFlow()
		var seed regState
		seed[rd] = a.taint(0, sourceRep(i))
		a.dataflow(reg, &seed, false)
		a.emit(reg, KindChosenCode, -1)
	}
}

func (a *analyzer) analyzeBypass() {
	var buf [2]int
	for s := range a.insts {
		if !a.slowStore[s] || !a.liveAny(s) {
			continue
		}
		for j := s + 1; j < a.n && j <= s+maxBypassScan; j++ {
			inst := a.insts[j]
			if inst.IsControl() || inst.Op == isa.OpHalt || inst.Op == isa.OpInvalid ||
				inst.Op == isa.OpFence || inst.Op == isa.OpSpecOff {
				break
			}
			if !inst.IsLoad() || !a.mayAlias(s, j) {
				continue
			}
			rd, writes := inst.WritesReg()
			if !writes {
				continue
			}
			reg := a.buildRegion(a.specSuccs(j, &buf))
			src := rep{srcIdx: int32(j), n: 2}
			src.chain[0], src.chain[1] = int32(s), int32(j)
			a.newFlow()
			var seed regState
			seed[rd] = a.taint(0, src)
			a.dataflow(reg, &seed, false)
			a.emit(reg, KindBypass, -1)
		}
	}
}

func (a *analyzer) inKernel(addr uint64) bool {
	for _, seg := range a.p.Data {
		if seg.Kernel && addr >= seg.Addr && addr < seg.Addr+uint64(len(seg.Bytes)) {
			return true
		}
	}
	return false
}

// mayAlias reports whether store s and load j can touch the same bytes.
// Unknown addresses are conservatively assumed to alias — that is exactly
// the situation that lets the load bypass the store in the first place.
func (a *analyzer) mayAlias(s, j int) bool {
	sa, la := a.storeAddr[s], a.loadAddr[j]
	if !sa.ok || !la.ok {
		return true
	}
	sw := uint64(a.insts[s].MemBytes())
	lw := uint64(a.insts[j].MemBytes())
	return sa.addr < la.addr+lw && la.addr < sa.addr+sw
}

// ---------------------------------------------------------------------------
// gadget emission

// candidate is the winning chain so far for one (kind, channel,
// transmitter, flavor), in instruction indices; gadgets renders the final
// winners.
type candidate struct {
	kind     Kind
	channel  Channel
	flavor   flavorKey
	transmit int
	guard    int // -1 when no guard is mis-steered
	depth    int // fetch distance of the transmitter
	rp       rep
	next     int32
}

// emit scans the region's fixpoint states for transmitters and records one
// candidate per (kind, channel, transmitter, flavor), keeping the shortest
// fetch distance.
func (a *analyzer) emit(reg *region, kind Kind, guard int) {
	for _, i := range reg.order {
		st := &a.in[i]
		depth := int(reg.dist[i])
		inst := a.insts[i]
		switch {
		case inst.IsLoad():
			a.recordAll(kind, ChannelDCache, guard, st[inst.Rs1], i, depth)
		case inst.Op == isa.OpJalr:
			a.recordAll(kind, ChannelBTB, guard, st[inst.Rs1], i, depth)
		case inst.IsCondBranch():
			srcs, nsrc := inst.SrcRegs()
			for s := 0; s < nsrc; s++ {
				a.recordAll(kind, ChannelBranch, guard, st[srcs[s]], i, depth)
			}
		}
	}
}

// recordAll records every flavor of the set a.flav[set] reaching transmit.
func (a *analyzer) recordAll(kind Kind, ch Channel, guard int, set int32, transmit, depth int) {
	fl := &a.flav[set]
	for k := flavorKey(0); k < numFlavors; k++ {
		if fl.has&(1<<k) != 0 {
			a.record(kind, ch, guard, k, &fl.reps[k], transmit, depth)
		}
	}
}

func (a *analyzer) record(kind Kind, ch Channel, guard int, k flavorKey, rp *rep, transmit, depth int) {
	for c := a.candAt[transmit]; c != 0; c = a.cands[c-1].next {
		old := &a.cands[c-1]
		if old.kind == kind && old.channel == ch && old.flavor == k {
			if candidateLess(depth, guard, rp, old) {
				old.guard, old.depth, old.rp = guard, depth, *rp
			}
			return
		}
	}
	a.cands = append(a.cands, candidate{
		kind: kind, channel: ch, flavor: k, transmit: transmit,
		guard: guard, depth: depth, rp: *rp, next: a.candAt[transmit],
	})
	a.candAt[transmit] = int32(len(a.cands))
}

// candidateLess prefers the shallowest fetch distance, then the lowest guard
// address, then the lowest source address/register — a total order on
// everything that distinguishes candidates within one dedup key, so the
// winner is independent of analysis order. Addresses grow with instruction
// indices, and no guard or a register source (-1) sorts first.
func candidateLess(depth, guard int, rp *rep, old *candidate) bool {
	if depth != old.depth {
		return depth < old.depth
	}
	if guard != old.guard {
		return guard < old.guard
	}
	if rp.srcIdx != old.rp.srcIdx {
		return rp.srcIdx < old.rp.srcIdx
	}
	return rp.srcIdx < 0 && rp.srcReg.String() < old.rp.srcReg.String()
}

// gadgets renders the winning candidates, in no particular order.
func (a *analyzer) gadgets() []Gadget {
	gs := make([]Gadget, len(a.cands))
	for j := range a.cands {
		c := &a.cands[j]
		g := &gs[j]
		*g = Gadget{
			Kind:      c.kind,
			Channel:   c.channel,
			Advisory:  c.channel == ChannelBranch,
			Transmit:  a.site(c.transmit),
			LoadFree:  c.flavor&flavLoadFree != 0,
			DirectUse: c.flavor&flavDirectUse != 0,
		}
		if c.guard >= 0 {
			s := a.site(c.guard)
			g.Guard = &s
		}
		if c.rp.srcIdx >= 0 {
			s := a.site(int(c.rp.srcIdx))
			g.Source = &s
		} else {
			g.SourceReg = c.rp.srcReg.String()
		}
		chain := c.rp.chain[:c.rp.n]
		g.Chain = make([]Site, 0, len(chain)+1)
		for _, ci := range chain {
			g.Chain = append(g.Chain, a.site(int(ci)))
		}
		if len(chain) == 0 || int(chain[len(chain)-1]) != c.transmit {
			if len(chain) < maxChainSites {
				g.Chain = append(g.Chain, g.Transmit)
			}
		}
	}
	return gs
}

func (a *analyzer) site(i int) Site {
	if a.sites == nil {
		a.sites = make([]Site, a.n)
	}
	if a.sites[i].Asm == "" {
		pc := a.pc(i)
		a.sites[i] = Site{PC: pc, Asm: a.insts[i].String(), Sym: a.symFor(pc)}
	}
	return a.sites[i]
}

func (a *analyzer) symFor(pc uint64) string {
	if !a.symsBuilt {
		a.symsBuilt = true
		for name, addr := range a.p.Symbols {
			if addr >= a.p.TextBase && addr < a.p.End() {
				a.syms = append(a.syms, symEntry{addr, name})
			}
		}
		slices.SortFunc(a.syms, func(x, y symEntry) int {
			if c := cmp.Compare(x.addr, y.addr); c != 0 {
				return c
			}
			return cmp.Compare(x.name, y.name)
		})
	}
	lo, hi := 0, len(a.syms)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.syms[mid].addr <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return ""
	}
	s := a.syms[lo-1]
	if s.addr == pc {
		return s.name
	}
	var buf [64]byte
	b := append(append(buf[:0], s.name...), "+0x"...)
	return string(strconv.AppendUint(b, pc-s.addr, 16))
}
