package ooo

import (
	"nda/internal/cache"
	"nda/internal/isa"
)

// dispatchStage renames instructions from the fetch queue into the ROB,
// issue queue, and load/store queues. Dispatch stalls on resource
// exhaustion and on undecodable fetches: a micro-op whose opcode is unknown
// sits at the head of the queue until a squash discards it, which is why
// phantom branches are not a steering threat (§4.1 of the paper).
func (c *Core) dispatchStage() {
	for budget := c.p.DispatchWidth; budget > 0 && c.fqLen > 0; budget-- {
		s := c.fqAt(0)
		if s.readyAt > c.cycle {
			return
		}
		if !s.valid {
			return // phantom: stalls until the wrong path squashes
		}
		inst := s.inst
		if c.robLen == len(c.rob) || c.iqLen >= c.p.IQSize ||
			(inst.IsLoad() && c.lq.n >= c.p.LQSize) ||
			(inst.IsStore() && c.sq.n >= c.p.SQSize) ||
			c.freeN == 0 {
			return
		}

		e := c.robAlloc()
		e.Seq = s.seq
		e.PC = s.pc
		e.Inst = inst
		e.FetchedAt = s.readyAt - uint64(c.p.FrontEndDepth)
		e.DispatchedAt = c.cycle
		e.Predicted = s.predicted
		e.PredTaken = s.predTaken
		e.PredTarget = s.predTarget
		e.GshCkpt = s.gshCkpt
		e.HasGshCkpt = s.hasGshCkpt
		if s.hasRASCkpt {
			// Copy (not alias) the snapshot: the ring slot's backing array
			// is reused as soon as the slot is, while the entry's
			// checkpoint must survive until retirement or squash.
			s.rasBefore.CopyInto(&e.RASBefore)
		}
		e.HasRASCkpt = s.hasRASCkpt

		// Rename sources before the destination so "add x1, x1, x1" reads
		// the old mapping.
		srcs, n := inst.SrcRegs()
		if n >= 1 && srcs[0] != isa.RegZero {
			e.Src1P = c.rat[srcs[0]]
		}
		if n >= 2 && srcs[1] != isa.RegZero {
			e.Src2P = c.rat[srcs[1]]
		}
		if rd, ok := inst.WritesReg(); ok {
			c.freeN--
			p := c.freeList[c.freeN]
			e.PrevP = c.rat[rd]
			c.rat[rd] = p
			e.DestP = p
			c.regReady[p] = false
		}

		// Every in-flight entry is older than e, so e is under a guard iff
		// any unresolved branch is in flight.
		e.Node.Class = isa.ClassOf(inst)
		e.Node.UnderGuard = c.brq.n > 0
		if e.Node.Class == isa.ClassBranch {
			c.brq.push(e.Slot)
		}

		// Enter the issue queue: wait on each source not yet broadcast, or
		// join the ready list (e is the youngest entry, so at its tail).
		c.iqLen++
		a, b := e.wakeSrcs()
		c.waitOn(e, a)
		c.waitOn(e, b)
		if e.waiting == 0 {
			c.rdyq.push(e.Slot)
		}
		if inst.IsLoad() {
			c.lq.push(e.Slot)
		}
		if inst.IsStore() {
			c.sq.push(e.Slot)
		}
		if inst.Op == isa.OpFence {
			c.fencesInFlight++
		}
		c.fqPop()
		c.progress = true
	}
}

// fetchStage fetches and pre-decodes up to FetchWidth instructions along
// the predicted path, charging the I-cache per line. Conditional branches
// are predicted by gshare; indirect jumps by the BTB (or the RAS for
// returns); on a BTB miss — or in a SpecOff window, for every control
// transfer — fetch stalls until the branch resolves, as the paper's ~16
// cycle BTB-miss sequence describes (Fig. 5).
func (c *Core) fetchStage() {
	if c.fetchStall > c.cycle || c.fetchWait || c.fetchDead || c.halted {
		return
	}
	lineMask := ^uint64(c.hier.LineBytes() - 1)
	pc := c.fetchPC

	for budget := c.p.FetchWidth; budget > 0 && c.fqLen < c.p.FetchQSize; budget-- {
		if line := pc & lineMask; line != c.lastFetchLine {
			res := c.hier.Inst(pc)
			c.lastFetchLine = line
			c.progress = true
			if res.Level != cache.LevelL1 {
				c.fetchStall = c.cycle + uint64(res.Latency)
				c.fetchPC = pc
				return
			}
		}

		inst, ok := c.prog.At(pc)
		s := c.fqPush()
		s.seq = c.nextSeq
		s.pc = pc
		s.inst = inst
		s.valid = ok && inst.Op.Valid()
		s.readyAt = c.cycle + uint64(c.p.FrontEndDepth)
		c.nextSeq++
		c.progress = true

		if !s.valid {
			// Fetch ran off the rails (wrong-path into data or past the
			// text segment). Leave the undecodable slot enqueued — it
			// blocks dispatch — and stop fetching until a redirect.
			c.fetchDead = true
			c.fetchPC = pc
			return
		}

		next := pc + isa.InstBytes
		wait := false
		switch {
		case inst.IsCondBranch():
			if c.noSpec {
				wait = true
			} else {
				taken, ckpt := c.gsh.Predict(pc)
				s.predicted = true
				s.predTaken = taken
				s.gshCkpt = ckpt
				s.hasGshCkpt = true
				if taken {
					s.predTarget = uint64(inst.Imm)
				} else {
					s.predTarget = next
				}
				next = s.predTarget
			}

		case inst.Op == isa.OpJal:
			if inst.IsCall() {
				c.ras.SnapshotInto(&s.rasBefore)
				s.hasRASCkpt = true
				c.ras.Push(next)
			}
			s.predicted = true
			s.predTaken = true
			s.predTarget = uint64(inst.Imm)
			next = s.predTarget

		case inst.Op == isa.OpJalr:
			c.ras.SnapshotInto(&s.rasBefore)
			s.hasRASCkpt = true
			switch {
			case c.noSpec:
				wait = true
			case inst.IsReturn():
				if tgt, ok := c.ras.Pop(); ok {
					s.predicted = true
					s.predTaken = true
					s.predTarget = tgt
					next = tgt
				} else {
					wait = true
				}
			default:
				if inst.IsCall() {
					c.ras.Push(next)
				}
				if tgt, ok := c.btb.Lookup(pc); ok {
					s.predicted = true
					s.predTaken = true
					s.predTarget = tgt
					next = tgt
				} else {
					wait = true
				}
			}

		case inst.Op == isa.OpHalt:
			// Stop fetching past a halt; if it was wrong-path, the squash
			// redirects fetch anyway.
			c.fetchDead = true
			c.fetchPC = pc + isa.InstBytes
			return

		case inst.Op == isa.OpSpecOff:
			// SpecOff serializes the front end: nothing is fetched past it
			// until it retires (Listing 4 of the paper needs the very next
			// instruction to already run under the no-speculation regime).
			// retire() resumes fetch; a squash discards the stall.
			c.fetchDead = true
			c.fetchPC = pc + isa.InstBytes
			return
		}

		if wait {
			c.fetchWait = true
			c.fetchWaitSq = s.seq
			c.fetchPC = next
			return
		}
		pc = next
	}
	c.fetchPC = pc
}
