package gadget

import (
	"encoding/binary"
	"sort"

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
		if isa.ClassOf(a.insts[i]) != isa.ClassBranch || !a.liveOn[i] {
			continue
		}
		guards++
		a.analyzeSteering(i)
	}
	a.analyzeChosenCode()
	a.analyzeBypass()

	gs := make([]Gadget, 0, len(a.found))
	for _, g := range a.found {
		gs = append(gs, *g)
	}
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
	loadAddr  map[int]uint64
	storeAddr map[int]uint64
	slowStore []bool
	liveOn    []bool // arch-reachable with speculation enabled
	liveAny   []bool // arch-reachable in either speculation state
	syms      []symEntry

	found map[gadgetKey]*Gadget
}

type symEntry struct {
	addr uint64
	name string
}

type gadgetKey struct {
	kind     Kind
	channel  Channel
	transmit int
	flavor   flavorKey
}

func newAnalyzer(p *isa.Program, cfg Config) *analyzer {
	w := cfg.Window
	if w <= 0 {
		w = DefaultWindow
	}
	a := &analyzer{
		p:         p,
		cfg:       cfg,
		insts:     p.Insts,
		n:         len(p.Insts),
		window:    w,
		barrier:   make([]bool, len(p.Insts)),
		loadAddr:  map[int]uint64{},
		storeAddr: map[int]uint64{},
		slowStore: make([]bool, len(p.Insts)),
		found:     map[gadgetKey]*Gadget{},
	}
	for name, addr := range p.Symbols {
		if addr >= p.TextBase && addr < p.End() {
			a.syms = append(a.syms, symEntry{addr, name})
		}
	}
	sort.Slice(a.syms, func(i, j int) bool {
		if a.syms[i].addr != a.syms[j].addr {
			return a.syms[i].addr < a.syms[j].addr
		}
		return a.syms[i].name < a.syms[j].name
	})
	return a
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
	seen := map[int]bool{}
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
	sort.Ints(a.harvested)
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

	consts := map[isa.Reg]uint64{}
	var der [isa.NumGPR]bool
	reset := func() {
		consts = map[isa.Reg]uint64{}
		der = [isa.NumGPR]bool{}
	}
	val := func(r isa.Reg) (uint64, bool) {
		if r == isa.RegZero {
			return 0, true
		}
		v, ok := consts[r]
		return v, ok
	}
	for i := 0; i < a.n; i++ {
		if a.barrier[i] {
			reset()
		}
		inst := a.insts[i]
		if inst.IsLoad() {
			if base, ok := val(inst.Rs1); ok {
				a.loadAddr[i] = base + uint64(inst.Imm)
			}
		}
		if inst.IsStore() {
			a.slowStore[i] = inst.Rs1 != isa.RegZero && der[inst.Rs1]
			if base, ok := val(inst.Rs1); ok {
				a.storeAddr[i] = base + uint64(inst.Imm)
			}
		}
		if rd, writes := inst.WritesReg(); writes {
			switch {
			case inst.Op == isa.OpLui:
				consts[rd] = uint64(inst.Imm)
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
				if aok && bok {
					consts[rd] = isa.EvalALU(inst.Op, av, bv)
				} else {
					delete(consts, rd)
				}
				der[rd] = d
			case inst.IsLoad() || inst.Op == isa.OpRdmsr:
				delete(consts, rd)
				der[rd] = true
			default: // jal/jalr link, rdcycle
				delete(consts, rd)
				der[rd] = false
			}
		}
		if inst.IsControl() {
			reset()
		}
	}
}

// liveness computes architectural reachability over (pc, speculation-enabled)
// states, starting from the entry with speculation on. A guard that is only
// reachable inside a specoff/specon bracket can never mis-steer: the front
// end fetches past unresolved branches only when speculation is enabled.
func (a *analyzer) liveness() {
	a.liveOn = make([]bool, a.n)
	a.liveAny = make([]bool, a.n)
	seen := make([]bool, a.n*2)
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
		if i < a.n && !seen[k] {
			seen[k] = true
			stack = append(stack, st{i, on})
		}
	}
	seen[entry*2+1] = true
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
	for i := 0; i < a.n; i++ {
		a.liveOn[i] = seen[i*2+1]
		a.liveAny[i] = seen[i*2] || seen[i*2+1]
	}
}

// ---------------------------------------------------------------------------
// transient regions: the code a mis-steered front end can fetch

// specSuccs returns the indices fetch can reach right after instruction i on
// a speculative path. Fetch stops dead at halt/invalid/specoff; it also
// stops at fence because younger instructions cannot issue before the fence
// completes, and the fence itself waits for every older instruction —
// including the unresolved guard, whose resolution squashes the path first.
func (a *analyzer) specSuccs(i int) []int {
	inst := a.insts[i]
	next := func() []int {
		if i+1 < a.n {
			return []int{i + 1}
		}
		return nil
	}
	switch {
	case inst.Op == isa.OpHalt || inst.Op == isa.OpInvalid ||
		inst.Op == isa.OpSpecOff || inst.Op == isa.OpFence:
		return nil
	case inst.IsCondBranch():
		succs := next()
		if t, ok := a.idx(uint64(inst.Imm)); ok {
			succs = append(succs, t)
		}
		return succs
	case inst.Op == isa.OpJal:
		if t, ok := a.idx(uint64(inst.Imm)); ok {
			return []int{t}
		}
		return nil
	case inst.Op == isa.OpJalr:
		if inst.IsReturn() {
			return a.retSites
		}
		return a.harvested
	default:
		return next()
	}
}

// region is the set of instructions within the transient window of one or
// more entry points, with each member's minimum fetch distance.
type region struct {
	member  map[int]int
	entries []int
	order   []int
}

func (a *analyzer) buildRegion(starts []int) *region {
	r := &region{member: map[int]int{}}
	queue := []int{}
	for _, s := range starts {
		if _, ok := r.member[s]; !ok {
			r.member[s] = 1
			r.entries = append(r.entries, s)
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		d := r.member[i]
		if d >= a.window {
			continue
		}
		for _, s := range a.specSuccs(i) {
			if _, ok := r.member[s]; !ok {
				r.member[s] = d + 1
				queue = append(queue, s)
			}
		}
	}
	for i := range r.member {
		r.order = append(r.order, i)
	}
	sort.Ints(r.order)
	sort.Ints(r.entries)
	return r
}

// ---------------------------------------------------------------------------
// taint dataflow over a region

// flavorKey collapses the taint lattice per register: what kind of source
// the value derives from and which chain properties the verdict table needs.
// Keeping one representative chain per flavor (instead of one gadget per
// source×path) bounds the output without losing any verdict-distinct gadget.
type flavorKey struct {
	gpr       bool // derives from a register-resident secret seed
	loadFree  bool // no load anywhere on the chain
	directUse bool // no producer at all between seed and consumer
}

var allFlavorKeys = []flavorKey{
	{false, false, false},
	{false, false, true},
	{false, true, false},
	{false, true, true},
	{true, false, false},
	{true, false, true},
	{true, true, false},
	{true, true, true},
}

// rep is the representative source and chain for one flavor.
type rep struct {
	srcIdx int // instruction index of the access, or -1 for a GPR seed
	srcReg isa.Reg
	chain  []int
}

// repLess is a total order on representatives; joins keep the minimum, which
// makes the fixpoint independent of evaluation order.
func repLess(x, y rep) bool {
	if x.srcIdx != y.srcIdx {
		return x.srcIdx < y.srcIdx
	}
	if x.srcReg != y.srcReg {
		return x.srcReg < y.srcReg
	}
	if len(x.chain) != len(y.chain) {
		return len(x.chain) < len(y.chain)
	}
	for i := range x.chain {
		if x.chain[i] != y.chain[i] {
			return x.chain[i] < y.chain[i]
		}
	}
	return false
}

type flavors map[flavorKey]rep

// memCell is the pseudo-register modeling memory taint through store-to-load
// forwarding. One conservative cell stands for all of memory: a store of
// tainted data joins its flavors (chain extended by the store) into the
// cell, and every later in-region load reads them back (chain extended by
// the load). No address discrimination is attempted — any tainted store may
// feed any later load — which can only add gadgets, never hide one.
const memCell = isa.Reg(isa.NumGPR)

type regState map[isa.Reg]flavors

func sortedKeys(m flavors) []flavorKey {
	ks := make([]flavorKey, 0, len(m))
	for _, k := range allFlavorKeys {
		if _, ok := m[k]; ok {
			ks = append(ks, k)
		}
	}
	return ks
}

func extendChain(r rep, i int) rep {
	if len(r.chain) >= maxChainSites {
		return r
	}
	nc := make([]int, len(r.chain), len(r.chain)+1)
	copy(nc, r.chain)
	r.chain = append(nc, i)
	return r
}

// joinInto merges src into dst (owned by the caller), keeping the minimum
// representative per flavor. Reports whether dst changed.
func joinInto(dst, src regState) bool {
	changed := false
	for r, fl := range src {
		d := dst[r]
		for k, rp := range fl {
			old, ok := d[k]
			if ok && !repLess(rp, old) {
				continue
			}
			if d == nil {
				d = flavors{}
				dst[r] = d
			}
			d[k] = rp
			changed = true
		}
	}
	return changed
}

// transfer applies instruction i to the incoming taint state. In guardMode
// (steering analysis) every load is additionally a fresh secret source: on a
// mis-steered path, any reachable load can read an attacker-chosen address.
func (a *analyzer) transfer(in regState, i int, guardMode bool) regState {
	inst := a.insts[i]
	if inst.IsStore() {
		fl := in[inst.Rs2]
		if len(fl) == 0 {
			return in
		}
		// Tainted store data flows into the memory cell. The flavor is
		// normalized to its seed kind: once laundered through memory the
		// chain necessarily contains a producer (the store) and, on read-
		// back, a load.
		out := make(regState, len(in)+1)
		for r, f := range in {
			out[r] = f
		}
		d := make(flavors, len(in[memCell])+1)
		for k, rp := range in[memCell] {
			d[k] = rp
		}
		for _, k := range sortedKeys(fl) {
			nk := flavorKey{gpr: k.gpr}
			rp := extendChain(fl[k], i)
			if old, ok := d[nk]; !ok || repLess(rp, old) {
				d[nk] = rp
			}
		}
		out[memCell] = d
		return out
	}
	rd, writes := inst.WritesReg()
	if !writes {
		return in
	}
	derived := flavors{}
	add := func(k flavorKey, r rep) {
		if old, ok := derived[k]; !ok || repLess(r, old) {
			derived[k] = r
		}
	}
	switch {
	case inst.Op == isa.OpLui:
		// immediate overwrite: kills taint
	case isa.IsALU(inst.Op):
		srcs, nsrc := inst.SrcRegs()
		for s := 0; s < nsrc; s++ {
			fl := in[srcs[s]]
			for _, k := range sortedKeys(fl) {
				nk := k
				nk.directUse = false
				add(nk, extendChain(fl[k], i))
			}
		}
	case inst.IsLoad():
		fl := in[inst.Rs1]
		for _, k := range sortedKeys(fl) {
			add(flavorKey{gpr: k.gpr}, extendChain(fl[k], i))
		}
		// Store-to-load forwarding: the load may read back any tainted
		// value a prior in-region store put in memory.
		mfl := in[memCell]
		for _, k := range sortedKeys(mfl) {
			add(flavorKey{gpr: k.gpr}, extendChain(mfl[k], i))
		}
		if guardMode {
			add(flavorKey{}, rep{srcIdx: i, chain: []int{i}})
		}
	case inst.Op == isa.OpRdmsr:
		if guardMode {
			add(flavorKey{}, rep{srcIdx: i, chain: []int{i}})
		}
		// rdcycle, jal/jalr link writes: untainted
	}
	out := make(regState, len(in)+1)
	for r, fl := range in {
		if r != rd {
			out[r] = fl
		}
	}
	if len(derived) > 0 {
		out[rd] = derived
	}
	return out
}

// dataflow runs the taint worklist to fixpoint over the region and returns
// each member's incoming state.
func (a *analyzer) dataflow(reg *region, seed regState, guardMode bool) map[int]regState {
	in := make(map[int]regState, len(reg.member))
	for _, e := range reg.entries {
		if in[e] == nil {
			in[e] = regState{}
		}
		joinInto(in[e], seed)
	}
	// Every member enters the worklist once: taint is GENERATED inside the
	// region (guard-mode load sources), not only injected at the entries.
	wl := append([]int{}, reg.order...)
	inWL := map[int]bool{}
	for _, e := range wl {
		inWL[e] = true
	}
	for _, i := range reg.order {
		if in[i] == nil {
			in[i] = regState{}
		}
	}
	for len(wl) > 0 {
		i := wl[0]
		wl = wl[1:]
		inWL[i] = false
		out := a.transfer(in[i], i, guardMode)
		for _, s := range a.specSuccs(i) {
			if _, ok := reg.member[s]; !ok {
				continue
			}
			if in[s] == nil {
				in[s] = regState{}
			}
			if joinInto(in[s], out) && !inWL[s] {
				wl = append(wl, s)
				inWL[s] = true
			}
		}
	}
	return in
}

// ---------------------------------------------------------------------------
// the three gadget analyses

func (a *analyzer) analyzeSteering(guard int) {
	reg := a.buildRegion(a.specSuccs(guard))
	seed := regState{}
	for _, r := range a.cfg.SecretRegs {
		if r == isa.RegZero {
			continue
		}
		seed[r] = flavors{
			{gpr: true, loadFree: true, directUse: true}: {srcIdx: -1, srcReg: r},
		}
	}
	in := a.dataflow(reg, seed, true)
	a.emit(reg, in, KindSteering, guard)
}

func (a *analyzer) analyzeChosenCode() {
	for i := range a.insts {
		if !a.liveAny[i] {
			continue
		}
		inst := a.insts[i]
		source := false
		if inst.IsLoad() {
			if addr, ok := a.loadAddr[i]; ok && a.inKernel(addr) {
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
		reg := a.buildRegion(a.specSuccs(i))
		seed := regState{rd: flavors{{}: {srcIdx: i, chain: []int{i}}}}
		in := a.dataflow(reg, seed, false)
		a.emit(reg, in, KindChosenCode, -1)
	}
}

func (a *analyzer) analyzeBypass() {
	for s := range a.insts {
		if !a.slowStore[s] || !a.liveAny[s] {
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
			reg := a.buildRegion(a.specSuccs(j))
			seed := regState{rd: flavors{{}: {srcIdx: j, chain: []int{s, j}}}}
			in := a.dataflow(reg, seed, false)
			a.emit(reg, in, KindBypass, -1)
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
	sa, sok := a.storeAddr[s]
	la, lok := a.loadAddr[j]
	if !sok || !lok {
		return true
	}
	sw := uint64(a.insts[s].MemBytes())
	lw := uint64(a.insts[j].MemBytes())
	return sa < la+lw && la < sa+sw
}

// ---------------------------------------------------------------------------
// gadget emission

// emit scans the region's fixpoint states for transmitters and records one
// gadget per (kind, channel, transmitter, flavor), keeping the shortest
// fetch distance.
func (a *analyzer) emit(reg *region, in map[int]regState, kind Kind, guard int) {
	for _, i := range reg.order {
		st := in[i]
		if st == nil {
			continue
		}
		inst := a.insts[i]
		switch {
		case inst.IsLoad():
			fl := st[inst.Rs1]
			for _, k := range sortedKeys(fl) {
				a.record(kind, ChannelDCache, false, guard, k, fl[k], i, reg.member[i])
			}
		case inst.Op == isa.OpJalr:
			fl := st[inst.Rs1]
			for _, k := range sortedKeys(fl) {
				a.record(kind, ChannelBTB, false, guard, k, fl[k], i, reg.member[i])
			}
		case inst.IsCondBranch():
			srcs, nsrc := inst.SrcRegs()
			for s := 0; s < nsrc; s++ {
				fl := st[srcs[s]]
				for _, k := range sortedKeys(fl) {
					a.record(kind, ChannelBranch, true, guard, k, fl[k], i, reg.member[i])
				}
			}
		}
	}
}

func (a *analyzer) record(kind Kind, ch Channel, advisory bool, guard int, k flavorKey, rp rep, transmit, depth int) {
	key := gadgetKey{kind, ch, transmit, k}
	if old, ok := a.found[key]; ok && !a.candidateLess(depth, guard, rp, old) {
		return
	}
	g := &Gadget{
		Kind:      kind,
		Channel:   ch,
		Advisory:  advisory,
		Transmit:  a.site(transmit),
		LoadFree:  k.loadFree,
		DirectUse: k.directUse,
		depth:     depth,
	}
	if guard >= 0 {
		s := a.site(guard)
		g.Guard = &s
	}
	if rp.srcIdx >= 0 {
		s := a.site(rp.srcIdx)
		g.Source = &s
	} else {
		g.SourceReg = rp.srcReg.String()
	}
	for _, ci := range rp.chain {
		g.Chain = append(g.Chain, a.site(ci))
	}
	if len(g.Chain) == 0 || g.Chain[len(g.Chain)-1].PC != a.pc(transmit) {
		if len(g.Chain) < maxChainSites {
			g.Chain = append(g.Chain, a.site(transmit))
		}
	}
	a.found[key] = g
}

// candidateLess prefers the shallowest fetch distance, then the lowest guard
// address, then the lowest source address/register — a total order on
// everything that distinguishes candidates within one dedup key, so the
// winner is independent of analysis order.
func (a *analyzer) candidateLess(depth, guard int, rp rep, old *Gadget) bool {
	if depth != old.depth {
		return depth < old.depth
	}
	ng, og := int64(-1), int64(-1)
	if guard >= 0 {
		ng = int64(a.pc(guard))
	}
	if old.Guard != nil {
		og = int64(old.Guard.PC)
	}
	if ng != og {
		return ng < og
	}
	ns, os := int64(-1), int64(-1)
	if rp.srcIdx >= 0 {
		ns = int64(a.pc(rp.srcIdx))
	}
	if old.Source != nil {
		os = int64(old.Source.PC)
	}
	if ns != os {
		return ns < os
	}
	return rp.srcIdx < 0 && rp.srcReg.String() < old.SourceReg
}

func (a *analyzer) site(i int) Site {
	pc := a.pc(i)
	return Site{PC: pc, Asm: a.insts[i].String(), Sym: a.symFor(pc)}
}

func (a *analyzer) symFor(pc uint64) string {
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
	return s.name + "+" + hexOff(pc-s.addr)
}

func hexOff(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return "0x" + string(buf[i:])
}
