package workload

import (
	"math/rand"

	"nda/internal/isa"
)

// This file implements the micro-kernels the SPEC CPU 2017 proxies are
// composed from. Each kernel emits one pass of work into the enclosing
// benchmark loop and owns a disjoint set of persistent s-registers;
// temporaries t0..t6 are shared and clobbered freely.
//
// Register map (persistent across iterations):
//
//	s2  pointer-chase cursor
//	s3  stream cursor
//	s4  LCG state (random access / branchy selector)
//	s5  accumulator
//	s6  table/array base (set once in the prologue)
//	s7  second base
//	s8  third base / secondary accumulator
//	s9  stencil cursor
//	s10 scratch persistent
//	s11 outer loop counter (owned by the benchmark wrapper)

// Data placement for kernels. Each region is sized by the kernel configs.
const (
	chaseBase   = 0x04000000
	streamBase  = 0x08000000
	tableBase   = 0x0C000000
	patternBase = 0x10000000
	outBase     = 0x14000000
)

// kern carries shared generation state.
type kern struct {
	b *Builder
	r *rand.Rand
}

// prologue initializes the persistent registers.
func (k *kern) prologue() {
	b := k.b
	b.Li(rChase, chaseBase)
	b.Li(rStream, streamBase)
	b.Li(rLCG, 0x9E3779B97F4A7C15)
	b.Li(rAcc, 0x9E37) // nonzero seed so store-heavy kernels leave visible traces
	b.Li(rTable, tableBase)
	b.Li(rPattern, patternBase)
	b.Li(rOut, outBase)
	b.Li(rStencil, streamBase)
	b.Li(rScratch, 0)
}

const (
	rChase   = isa.Reg(18) // s2
	rStream  = isa.Reg(19) // s3
	rLCG     = isa.Reg(20) // s4
	rAcc     = isa.Reg(21) // s5
	rTable   = isa.Reg(22) // s6
	rPattern = isa.Reg(23) // s7
	rOut     = isa.Reg(24) // s8
	rStencil = isa.Reg(25) // s9
	rScratch = isa.Reg(26) // s10
	rOuter   = isa.Reg(27) // s11
	t0       = isa.RegT0
	t1       = isa.RegT1
	t2       = isa.RegT2
	t3       = isa.Reg(28)
	t4       = isa.Reg(29)
	t5       = isa.Reg(30)
	t6       = isa.Reg(31)
)

// chaseData builds a cyclic random permutation linked list of nodes 64-byte
// nodes at chaseBase and leaves the cursor register pointing at node 0.
func (k *kern) chaseData(nodes int) {
	perm := k.r.Perm(nodes)
	// Build a single cycle: node perm[i] -> perm[i+1].
	buf := make([]byte, nodes*64)
	for i := 0; i < nodes; i++ {
		from := perm[i]
		to := perm[(i+1)%nodes]
		next := uint64(chaseBase + to*64)
		for j := 0; j < 8; j++ {
			buf[from*64+j] = byte(next >> (8 * j))
		}
	}
	k.b.Data(chaseBase, buf, false)
}

// chase emits hops serial pointer-chase steps: the classic mcf/omnetpp
// memory-latency-bound pattern (MLP ~= 1 on this chain).
func (k *kern) chase(hops int) {
	for i := 0; i < hops; i++ {
		k.b.Load(isa.OpLd, rChase, rChase, 0)
	}
}

// stream emits unroll independent loads (and optionally stores) with a
// 64-byte stride, then advances and wraps the cursor: the
// bwaves/lbm/fotonik3d pattern. High MLP: the loads are independent.
func (k *kern) stream(unroll int, bytes int, withStores bool) {
	b := k.b
	for i := 0; i < unroll; i++ {
		b.Load(isa.OpLd, t0, rStream, int64(i*64))
		b.Op3(isa.OpAdd, rAcc, rAcc, t0)
		if withStores {
			b.Store(isa.OpSd, rAcc, rStream, int64(i*64+8))
		}
	}
	b.OpI(isa.OpAddi, rStream, rStream, int64(unroll*64))
	// Wrap: cursor = base + (cursor-base) & (bytes-1).
	b.Li(t1, uint64(streamBase))
	b.Op3(isa.OpSub, t2, rStream, t1)
	b.OpI(isa.OpAndi, t2, t2, int64(bytes-1))
	b.Op3(isa.OpAdd, rStream, t1, t2)
}

// lcgStep advances the LCG state and leaves a pseudo-random value in dst.
func (k *kern) lcgStep(dst isa.Reg) {
	b := k.b
	b.Li(t6, 6364136223846793005)
	b.Op3(isa.OpMul, rLCG, rLCG, t6)
	b.OpI(isa.OpAddi, rLCG, rLCG, 1442695040888963407)
	b.OpI(isa.OpSrli, dst, rLCG, 29)
}

// randomAccess emits n dependent-index random table loads — the gcc/
// xalancbmk/omnetpp pointer-ish pattern. With tableBytes larger than L2 the
// kernel is DRAM-bound but (unlike chase) the accesses are independent, so
// MLP stays high.
func (k *kern) randomAccess(n int, tableBytes int) {
	b := k.b
	for i := 0; i < n; i++ {
		k.lcgStep(t0)
		b.OpI(isa.OpAndi, t0, t0, int64(tableBytes-8)&^7)
		b.Op3(isa.OpAdd, t0, t0, rTable)
		b.Load(isa.OpLd, t1, t0, 0)
		b.Op3(isa.OpXor, rAcc, rAcc, t1)
	}
}

// patternData fills the branch-pattern array with random bytes.
func (k *kern) patternData(bytes int) {
	buf := make([]byte, bytes)
	k.r.Read(buf)
	k.b.Data(patternBase, buf, false)
}

// branchy emits n data-dependent unpredictable branches driven by a
// sequentially scanned random byte array — the deepsjeng/leela/gcc control
// profile. The scan itself is cache-friendly; the branches are not
// predictable.
func (k *kern) branchy(n int, patternBytes int) {
	b := k.b
	for i := 0; i < n; i++ {
		b.Load(isa.OpLbu, t0, rPattern, 0)
		b.OpI(isa.OpAndi, t1, t0, 1)
		br := b.Branch(isa.OpBeq, t1, isa.RegZero, 0)
		b.OpI(isa.OpAddi, rAcc, rAcc, 3)
		b.Op3(isa.OpXor, rAcc, rAcc, t0)
		end := b.Jump(0)
		b.PatchImm(br, b.PC())
		b.OpI(isa.OpAddi, rAcc, rAcc, -1)
		b.PatchImm(end, b.PC())
		b.OpI(isa.OpAddi, rPattern, rPattern, 1)
	}
	// Wrap the scan cursor.
	b.Li(t1, uint64(patternBase))
	b.Op3(isa.OpSub, t2, rPattern, t1)
	b.OpI(isa.OpAndi, t2, t2, int64(patternBytes-1))
	b.Op3(isa.OpAdd, rPattern, t1, t2)
}

// compute emits a dependent arithmetic chain with some independent work —
// the exchange2/x264/imagick profile (ILP/latency bound, few memory ops).
func (k *kern) compute(chain int, withMul bool) {
	b := k.b
	for i := 0; i < chain; i++ {
		if withMul && i%3 == 0 {
			b.Op3(isa.OpMul, rAcc, rAcc, rLCG)
			b.OpI(isa.OpAddi, rAcc, rAcc, 0x5bd1)
		} else {
			b.OpI(isa.OpXori, rAcc, rAcc, 0x2545)
			b.OpI(isa.OpSlli, t0, rAcc, 13)
			b.Op3(isa.OpXor, rAcc, rAcc, t0)
		}
		// Independent work interleaved to expose ILP.
		b.OpI(isa.OpAddi, rScratch, rScratch, 1)
		b.Op3(isa.OpAnd, t2, rScratch, rLCG)
	}
}

// callsData/calls emit a call-heavy pattern: a loop body invoking small
// leaf and one-deep functions — the perlbench/povray/omnetpp profile.
// Functions are emitted once (on first use) after the main loop.
type callSet struct {
	fns []uint64
}

// emitCallFuncs generates nFns small functions and returns their addresses.
// Must be called where emission is allowed (after the benchmark loop).
func (k *kern) emitCallFuncs(nFns int) *callSet {
	b := k.b
	cs := &callSet{}
	// Leaf functions.
	leaves := make([]uint64, 0, nFns)
	for i := 0; i < nFns; i++ {
		addr := b.PC()
		n := 2 + k.r.Intn(4)
		for j := 0; j < n; j++ {
			b.OpI(isa.OpAddi, isa.RegA0, isa.RegA0, int64(j+1))
			b.OpI(isa.OpXori, isa.RegA1, isa.RegA0, 0x77)
		}
		b.Ret()
		leaves = append(leaves, addr)
	}
	// One-deep functions that call a leaf (saving ra in a callee reg by
	// convention: these are only called from the benchmark loop).
	for i := 0; i < nFns; i++ {
		addr := b.PC()
		b.OpI(isa.OpAddi, t5, isa.RegRA, 0) // save ra
		b.OpI(isa.OpAddi, isa.RegA0, isa.RegA0, 7)
		b.Call(leaves[i])
		b.Op3(isa.OpAdd, isa.RegA1, isa.RegA1, isa.RegA0)
		b.OpI(isa.OpAddi, isa.RegRA, t5, 0) // restore ra
		b.Ret()
		cs.fns = append(cs.fns, addr)
	}
	cs.fns = append(cs.fns, leaves...)
	return cs
}

// calls emits n calls cycling through the function set. The call targets
// are direct, exercising the RAS heavily.
func (k *kern) calls(cs *callSet, n int) {
	for i := 0; i < n; i++ {
		k.b.Call(cs.fns[i%len(cs.fns)])
	}
}

// dotProduct emits an inner-product step over two streams — the
// namd/parest/nab numeric profile: two loads, a multiply, an accumulate.
func (k *kern) dotProduct(unroll int, bytes int) {
	b := k.b
	for i := 0; i < unroll; i++ {
		b.Load(isa.OpLd, t0, rStream, int64(i*16))
		b.Load(isa.OpLd, t1, rTable, int64(i*16))
		b.Op3(isa.OpMul, t2, t0, t1)
		b.Op3(isa.OpAdd, rAcc, rAcc, t2)
	}
	b.OpI(isa.OpAddi, rStream, rStream, int64(unroll*16))
	b.Li(t1, uint64(streamBase))
	b.Op3(isa.OpSub, t2, rStream, t1)
	b.OpI(isa.OpAndi, t2, t2, int64(bytes-1))
	b.Op3(isa.OpAdd, rStream, t1, t2)
}

// stencil emits a 3-point stencil pass: overlapping neighbour loads (cache
// friendly), weighted arithmetic, and a store — the cactuBSSN/wrf/roms/cam4
// profile.
func (k *kern) stencil(unroll int, bytes int) {
	b := k.b
	for i := 0; i < unroll; i++ {
		off := int64(i * 8)
		b.Load(isa.OpLd, t0, rStencil, off)
		b.Load(isa.OpLd, t1, rStencil, off+8)
		b.Load(isa.OpLd, t2, rStencil, off+16)
		b.OpI(isa.OpSlli, t3, t1, 1)
		b.Op3(isa.OpAdd, t0, t0, t2)
		b.Op3(isa.OpAdd, t0, t0, t3)
		b.OpI(isa.OpSrai, t0, t0, 2)
		b.Store(isa.OpSd, t0, rOut, off)
	}
	b.OpI(isa.OpAddi, rStencil, rStencil, int64(unroll*8))
	b.Li(t1, uint64(streamBase))
	b.Op3(isa.OpSub, t2, rStencil, t1)
	b.OpI(isa.OpAndi, t2, t2, int64(bytes-1))
	b.Op3(isa.OpAdd, rStencil, t1, t2)
}

// bitops emits xz/x264-style bit manipulation plus a 2KB table lookup (a
// CRC-like profile: short dependent chains, L1-resident loads).
func (k *kern) bitops(n int) {
	b := k.b
	for i := 0; i < n; i++ {
		b.OpI(isa.OpSrli, t0, rAcc, 8)
		b.OpI(isa.OpAndi, t1, rAcc, 0x7F8)
		b.Op3(isa.OpAdd, t1, t1, rTable)
		b.Load(isa.OpLd, t2, t1, 0)
		b.Op3(isa.OpXor, rAcc, t0, t2)
	}
}

// tableData fills the random-access/bitops table with random bytes.
func (k *kern) tableData(bytes int) {
	// Fill only a prefix with random data (sparse memory reads as zero
	// elsewhere); 64KB of entropy is plenty for the XOR-accumulators.
	n := bytes
	if n > 64<<10 {
		n = 64 << 10
	}
	buf := make([]byte, n)
	k.r.Read(buf)
	k.b.Data(tableBase, buf, false)
}

// sortish emits a compare-and-swap scan step over an array — the
// xalancbmk/blender-ish mix of loads, branches, and stores.
func (k *kern) sortish(n int, bytes int) {
	b := k.b
	for i := 0; i < n; i++ {
		b.Load(isa.OpLd, t0, rStream, 0)
		b.Load(isa.OpLd, t1, rStream, 8)
		br := b.Branch(isa.OpBgeu, t1, t0, 0) // already ordered: skip swap
		b.Store(isa.OpSd, t1, rStream, 0)
		b.Store(isa.OpSd, t0, rStream, 8)
		b.PatchImm(br, b.PC())
		b.OpI(isa.OpAddi, rStream, rStream, 8)
	}
	b.Li(t1, uint64(streamBase))
	b.Op3(isa.OpSub, t2, rStream, t1)
	b.OpI(isa.OpAndi, t2, t2, int64(bytes-1)&^7)
	b.Op3(isa.OpAdd, rStream, t1, t2)
}

// scatterIndirect emits the hash-update pattern that makes Speculative
// Store Bypass windows real: an index load (which may miss) feeds a store's
// address, so the store stays unresolved for the load's full latency while
// younger independent loads speculatively bypass it. This is where Bypass
// Restriction's cost (and SSB's attack surface) comes from.
func (k *kern) scatterIndirect(n int, tableBytes int) {
	b := k.b
	for i := 0; i < n; i++ {
		// The index load comes from a hot 16KB region: the unresolved-store
		// window is usually an L1 hit (a few cycles), occasionally longer —
		// matching the modest Bypass Restriction cost the paper reports.
		k.lcgStep(t0)
		b.OpI(isa.OpAndi, t0, t0, int64(16<<10-1)&^7)
		b.Op3(isa.OpAdd, t0, t0, rTable)
		b.Load(isa.OpLd, t1, t0, 0) // index load: feeds the store's address
		b.OpI(isa.OpAndi, t1, t1, int64(tableBytes-1)&^7)
		b.Op3(isa.OpAdd, t1, t1, rOut)
		b.Store(isa.OpSd, rAcc, t1, 0) // address unresolved until the index returns
		// Younger loads that bypass the unresolved store:
		k.lcgStep(t2)
		b.OpI(isa.OpAndi, t2, t2, int64(tableBytes-1)&^7)
		b.Op3(isa.OpAdd, t2, t2, rOut)
		b.Load(isa.OpLd, t3, t2, 0)
		b.Op3(isa.OpXor, rAcc, rAcc, t3)
	}
}

// branchyGather emits branches whose conditions depend on random gathers —
// the search-tree pattern (deepsjeng/leela/mcf) where a node fetched from a
// large structure decides the direction. The long load-to-branch latency is
// what makes speculation shadows wide: under permissive propagation every
// load in the shadow defers its wake-up, and under load restriction the
// resolution itself waits for retirement.
func (k *kern) branchyGather(n int, tableBytes int) {
	b := k.b
	for i := 0; i < n; i++ {
		k.lcgStep(t0)
		b.OpI(isa.OpAndi, t0, t0, int64(tableBytes-1)&^7)
		b.Op3(isa.OpAdd, t0, t0, rTable)
		b.Load(isa.OpLd, t1, t0, 0) // slow condition load
		b.OpI(isa.OpAndi, t2, t1, 1)
		br := b.Branch(isa.OpBne, t2, isa.RegZero, 0)
		b.Op3(isa.OpAdd, rAcc, rAcc, t1)
		b.OpI(isa.OpXori, rAcc, rAcc, 0x3D)
		end := b.Jump(0)
		b.PatchImm(br, b.PC())
		b.OpI(isa.OpSlli, t3, t1, 1)
		b.Op3(isa.OpXor, rAcc, rAcc, t3)
		b.PatchImm(end, b.PC())
	}
}

// gather2hop emits dependent two-level gathers — load an index, then load
// through it — the pointer-style addressing that pervades SPEC. Each second
// hop's issue depends on the first hop's wake-up, so policies that defer
// load wake-ups (load restriction above all) pay the full commit-path delay
// per hop.
func (k *kern) gather2hop(n int, tableBytes int) {
	b := k.b
	for i := 0; i < n; i++ {
		k.lcgStep(t0)
		b.OpI(isa.OpAndi, t0, t0, int64(tableBytes-1)&^7)
		b.Op3(isa.OpAdd, t0, t0, rTable)
		b.Load(isa.OpLd, t1, t0, 0) // hop 1: index
		b.OpI(isa.OpAndi, t1, t1, int64(tableBytes-1)&^7)
		b.Op3(isa.OpAdd, t1, t1, rTable)
		b.Load(isa.OpLd, t2, t1, 0) // hop 2: through the loaded index
		b.Op3(isa.OpXor, rAcc, rAcc, t2)
	}
}
