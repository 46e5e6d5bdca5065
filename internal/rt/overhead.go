package rt

import (
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sched"
)

// The cost of the runtime itself. The paper's Section 5 measures this
// price directly: on a uniprocessor where FCFS is already optimal
// (photo), the locality policies' heap maintenance costs about 3% of
// runtime and 1% extra E-cache misses. Reproducing that requires the
// scheduler to spend cycles *and* touch memory: scheduler
// data-structure work issues real references against per-CPU heap
// regions and the shared thread table, polluting the caches like the
// real runtime does. The prices are calibrated constants.
const (
	// ctxSwitchCycles is the base context-switch latency (register
	// save/restore, thread control block) charged per dispatch.
	ctxSwitchCycles = 100
	// heapOpCycles is charged per binary-heap push/pop/fix/remove.
	heapOpCycles = 14
	// prioUpdateCycles is charged per priority update (a handful of
	// floating-point instructions, per Table 3).
	prioUpdateCycles = 4
	// queueOpCycles is charged per global-queue operation.
	queueOpCycles = 6
	// stealCycles is charged per work-steal scan.
	stealCycles = 40
	// createInstrs, syncInstrs and allocInstrs price thread creation,
	// synchronization fast paths and address-space allocation.
	createInstrs = 120
	syncInstrs   = 20
	allocInstrs  = 60
	// defaultCodeBytes is the size of the shared default code region a
	// thread's dispatch touches.
	defaultCodeBytes = 2048
)

// overheadState charges scheduler work to CPUs: cycles proportional to
// the scheduler's data-structure operations since the last charge, plus
// cache traffic against the runtime's own memory (per-CPU heap arrays
// and the shared thread table).
type overheadState struct {
	lastOps    sched.Ops
	heapRegion []mem.Range // per CPU
	table      mem.Range   // shared thread table / global queue
	rot        []uint64    // per-CPU rotation through the heap region
	batch      mem.Batch   // scratch, reused across charges (25 cap max)
}

func (s *overheadState) init(p platform.Platform) {
	s.table = p.Alloc(16*1024, 64)
	for i := 0; i < p.NCPU(); i++ {
		s.heapRegion = append(s.heapRegion, p.Alloc(8*1024, 64))
	}
	s.rot = make([]uint64, p.NCPU())
}

// charge prices the scheduler operations performed since the previous
// charge and attributes them to CPU p — the processor on whose context
// switch the work happened.
func (s *overheadState) charge(e *Engine, p int) {
	ops := e.sched.Ops()
	d := sched.Ops{
		HeapPushes:  ops.HeapPushes - s.lastOps.HeapPushes,
		HeapPops:    ops.HeapPops - s.lastOps.HeapPops,
		HeapFixes:   ops.HeapFixes - s.lastOps.HeapFixes,
		HeapRemoves: ops.HeapRemoves - s.lastOps.HeapRemoves,
		QueueOps:    ops.QueueOps - s.lastOps.QueueOps,
		Steals:      ops.Steals - s.lastOps.Steals,
		PrioUpdates: ops.PrioUpdates - s.lastOps.PrioUpdates,
	}
	s.lastOps = ops

	cycles := d.Total()*heapOpCycles +
		d.QueueOps*queueOpCycles +
		d.Steals*stealCycles +
		d.PrioUpdates*prioUpdateCycles
	if cycles > 0 {
		e.plat.AdvanceCycles(p, cycles)
	}

	// Cache traffic: each heap operation walks a log-ish number of heap
	// array lines; priority updates touch thread-table entries; queue
	// operations touch the queue head line. Touches are capped so a
	// steal storm cannot dominate a switch.
	lines := d.Total()*2 + d.PrioUpdates + d.QueueOps
	if lines == 0 {
		return
	}
	if lines > 24 {
		lines = 24
	}
	region := s.heapRegion[p]
	regionLines := region.Len / 64
	batch := s.batch[:0]
	for i := uint64(0); i < lines; i++ {
		off := (s.rot[p] + i) % regionLines
		batch = append(batch, mem.Access{Base: region.Base + mem.Addr(off*64), Count: 1, Size: 8, Write: i%3 == 0})
	}
	s.rot[p] = (s.rot[p] + lines) % regionLines
	if d.QueueOps > 0 {
		batch = append(batch, mem.Access{Base: s.table.Base, Count: 1, Size: 8, Write: true})
	}
	s.batch = batch
	e.plat.Apply(p, mem.SchedThread, batch)
}
