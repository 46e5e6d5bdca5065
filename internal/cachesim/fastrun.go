package cachesim

import (
	"math/bits"

	"repro/internal/mem"
)

// This file is the hierarchy-level sweep fast lane: one call that
// carries a whole strided access through the direct-mapped data
// path. The per-reference path (Data → lookupDM/insertDM) pays a call,
// a slot load, a dispatch branch and several statistics updates per
// cache per reference; a sequential sweep revisits the same L1D line
// several times in a row and the same L2 line for several consecutive
// L1D lines, so almost all of that work is recomputation. SweepDM
// keeps the whole loop — run decomposition, both probes, fills and
// statistics — in one function with the counters in locals, and calls
// back into the machine layer only at the events the machine must
// see: page translation, L2 misses (coherence + penalty class), and
// stores that touch directory state. The differential tests in
// machine/fastapply_test.go and the golden experiment fingerprints pin
// this path event-for-event against the per-reference loop.

// SweepEnv is the set of machine-layer services a swept access needs,
// kept behind an interface so cachesim stays below the machine layer.
// Calls are rare relative to references: one TranslatePage per virtual
// page entered, one LineMiss per L2 miss, and one
// SharedStore/DirtyStore per store span on a resident line.
type SweepEnv interface {
	// TranslatePage translates va, charging any modelled TLB costs.
	// The returned delta (pa - va) is valid for va's whole page.
	TranslatePage(va mem.Addr) mem.Addr
	// LineMiss observes an L2 miss at line (the fill has already been
	// performed, displacing victim), reporting whether the line was
	// dirty in a remote cache — the slow-miss penalty class. va is the
	// missing reference's virtual address (for miss hooks).
	LineMiss(va, line mem.Addr, write bool, victim Victim) (remoteDirty bool)
	// SharedStore observes a store hitting a resident line whose copy
	// carried the coherence "shared" mark (the sweep has already
	// cleared the local mark; the machine invalidates the other
	// copies).
	SharedStore(line mem.Addr)
	// DirtyStore observes a store span hitting a resident line: the
	// directory must record the local cache as the dirty owner.
	DirtyStore(line mem.Addr)
}

// SweepOutcome aggregates a swept access's charges by penalty class;
// the machine converts them into cycles, shadow counters and PIC
// events (all additive, so one batched conversion is event-for-event
// identical to per-reference charging).
type SweepOutcome struct {
	// L1Refs is the number of references satisfied at the L1D hit
	// latency (L1D load hits plus the replayed repeats of load runs).
	L1Refs uint64
	// L2HitRefs is the number of E-cache references that hit (charged
	// the L2 hit latency).
	L2HitRefs uint64
	// CleanMisses and RemoteMisses split the E-cache misses by whether
	// the fill found the line dirty in a remote cache.
	CleanMisses, RemoteMisses uint64
}

// FastData reports whether SweepDM can carry the hierarchy's data
// path: both data-side caches are one-way and not forced generic. That
// holds for the private direct-mapped hierarchy and for shared-llc
// (whose sweeps keep the shared L2's sharer sets at their L2
// outcomes); the associative shared topologies fall back to
// per-reference application.
func (h *Hierarchy) FastData() bool {
	return h.L1D.direct && h.L2.direct && !h.L1D.forceGeneric && !h.L2.forceGeneric
}

// SweepDM performs a whole positive-stride access (a.Stride > 0, any
// magnitude), or a single reference (a.Count == 1, any stride), through
// the direct-mapped data path. It is the fused equivalent of the
// machine's run batching: references are grouped into same-L1D-line
// runs whose outcome is frozen by their first reference (loads
// allocate in L1D, so repeats are L1D hits; stores leave the
// non-allocating write-through L1D unchanged and repeat as L2 hits on
// the line the first store made dirty), and consecutive runs inside
// one L2 line carry the line's residency and ownership forward, so
// only the first run that reaches the L2 pays the probe. Strides at or
// beyond the L1D line degenerate to k=1 runs (every reference probes;
// loads whose probes hit take the strided load streak), and a
// reference straddling an L1D line boundary
// becomes two k=1 probes of its endpoint lines — exactly the two
// references the per-reference path issues for it. pageShift is the
// machine's page geometry; coherent gates the directory callbacks so
// a uniprocessor sweep never virtual-calls.
//
// On a shared hierarchy the L2 is the one cache every CPU fills, and
// its sharer sets are kept at the three L2 outcomes with the slot index
// the probe already holds: a load hit joins the set (readHit), a store
// hit invalidates the other sharers' L1 copies (storeHit), and a fill
// invalidates the victim's span from all its sharers' L1s (filled).
// Each runs once per L2-line span, which is exact because the
// per-reference upkeep it stands for is idempotent within a span.
//
// Statistics, classifier shadow transitions, ownership, dirtiness,
// victim and listener events are event-for-event identical to issuing
// every reference through Data; both data-side caches must be
// direct-mapped (FastData).
func (h *Hierarchy) SweepDM(env SweepEnv, tid mem.ThreadID, a mem.Access, pageShift uint, coherent bool) SweepOutcome {
	d, e := h.L1D, h.L2
	sh, cpu := h.shared, h.cpu
	ls := uint64(d.cfg.LineSize)
	stride := uint64(a.Stride)
	count := int(a.Count)
	if count == 1 {
		// One reference has no stride: any value leaves its single run
		// unchanged, and the line size opens the load streak to it.
		stride = ls
	}
	size := uint64(a.Size)
	if size == 0 {
		// A zero-size reference touches just its base byte's line; the
		// run arithmetic below treats it as one byte.
		size = 1
	}
	// Traces overwhelmingly walk with power-of-two strides; turn the
	// per-run division into a shift for them.
	strideShift := -1
	if stride&(stride-1) == 0 {
		strideShift = bits.TrailingZeros64(stride)
	}
	write := a.Write
	// Dense lane: a contiguous power-of-two sweep (size == stride ≤
	// line) tiles every full line with exactly ls/stride references in
	// a fixed offset pattern, so whole lines can be processed in one
	// fused iteration (see the dense block inside the loop). The lane
	// needs the slim L1D fill (no listener) and skips classifier
	// bookkeeping, so it only engages when both are off.
	dense := size == stride && strideShift >= 0 && stride <= ls &&
		d.classify == nil && e.classify == nil && d.listener == nil
	var denseRB uint64
	densePerLine := 0
	if dense {
		// denseRB is the base offset within the stride grid: nonzero
		// means the last reference of every full line straddles into
		// the next (its start offset denseRB+ls-stride leaves fewer
		// than size bytes in the line).
		denseRB = uint64(a.Base) & (stride - 1)
		densePerLine = int(ls >> uint(strideShift))
	}
	// Strided load streak: a load with a power-of-two stride of at
	// least the L1D line and no straddle probes one distinct line per
	// reference, all at the base's line offset. While those probes hit,
	// the only effects are counters and owner updates (see the streak
	// block inside the loop). Like the dense lane it skips classifier
	// bookkeeping, so it needs the L1D's classifier off.
	streak := !write && !dense && strideShift >= 0 && stride >= ls &&
		uint64(a.Base)&(ls-1)+uint64(a.Size) <= ls && d.classify == nil
	pageSize := uint64(1) << pageShift
	var (
		out                   SweepOutcome
		dRefs, dHits, dMisses uint64
		eRefs, eHits, eMisses uint64
		// Per-page translation memo: page mappings are immutable, so
		// the virtual-to-physical delta holds for the whole page.
		curVPage  = ^uint64(0)
		pageDelta mem.Addr
		// Current L2-line span: carryOK marks curLine2 as the span the
		// previous run belonged to, l2Resident that some run of the
		// span actually probed or filled the line (a span opened by
		// L1D hits never touches the L2).
		curLine2   mem.Addr
		carryOK    bool
		l2Resident bool
		// L1D line carry: the last run's line and its post-run L1D
		// residency, replayed when the next run lands on the same line
		// (the common shape of unaligned sweeps, whose straddle
		// segments and following runs alternate over the same lines).
		// The carry always describes the most recent run's line, and a
		// run cannot invalidate its own line's outcome: a load run
		// leaves its line resident (hits stay, misses fill last), and a
		// store run leaves the non-allocating write-through L1D outcome
		// frozen — its L2 fill's inclusion invalidation only clears
		// slots holding *other* tags (the store-missed line was not
		// resident), and by inclusion a store-hit line's L2 probe can
		// never miss. So replaying the carried outcome is
		// state-identical to re-probing.
		curLine1   mem.Addr
		l1Carry    bool
		l1CarryHit bool
	)
	for i := 0; i < count; {
		va := a.Base + mem.Addr(uint64(i)*stride)
		off := uint64(va) & (ls - 1)
		// Dense lane: at a line-group boundary (off == denseRB marks
		// the first reference of a full line) with at least one whole
		// line of references left, process complete lines in a fused
		// loop — one probe per line instead of one body per run.
		//
		// Group shape per line L, in the body loop's own program order:
		// the aligned case (denseRB == 0) is one run of n = ls/stride
		// references probing L; the unaligned case is [run of n-1
		// references on L, straddle seg0 on L, straddle seg1 probing
		// L+1], where the first two replay L's carried outcome (the
		// generic loop's L1D carry, same justification) and only seg1
		// probes. The unaligned groups therefore need the carry primed
		// for L — the generic body that processed the previous
		// straddle did exactly that, and the entry check verifies it.
		// Statistics, fills, victim and env events are those of the
		// equivalent generic bodies, which the differential tests pin.
		if dense && off == denseRB && count-i >= densePerLine {
			primed := denseRB == 0
			if !primed && l1Carry && uint64(va)>>pageShift == curVPage {
				primed = (va+pageDelta)>>d.lineShift<<d.lineShift == curLine1
			}
			if primed {
				groups := (count - i) / densePerLine
				un := uint64(densePerLine)
				// References charged to the one probe body: the whole
				// run when aligned, just the straddle's tail otherwise.
				puk := un
				probeOff := mem.Addr(0)
				if denseRB != 0 {
					puk = 1
					probeOff = mem.Addr(ls - 1)
				}
				// Per-group reference total in the all-hit load case:
				// the probed run when aligned, the replayed run plus
				// the straddle tail otherwise.
				gk := un
				if denseRB != 0 {
					gk = un + 1
				}
				for g := 0; g < groups; {
					// Load hit streak: while consecutive probes hit the
					// L1D, the only effects are counters and owner
					// updates, so a tight loop walks the direct-mapped
					// slots with an incrementing index. Bounded to the
					// probe's page so the translation memo stays valid;
					// span and carry state are reconciled once at the
					// end (L1 hits never touch the L2, so only the
					// final span matters — line order is monotonic).
					if !write {
						pva := va + probeOff
						if vp := uint64(pva) >> pageShift; vp != curVPage {
							pageDelta = env.TranslatePage(pva) - pva
							curVPage = vp
						}
						pa := pva + pageDelta
						line1 := pa >> d.lineShift << d.lineShift
						idx := d.lineNum(line1) & d.setMask
						k1 := d.probe(line1)
						m := 0
						if d.slots[idx].holds(k1) {
							// First probe hits: bound the streak to this
							// page (the limit division is only paid when a
							// streak actually starts) and walk.
							limit := g + int((pageSize-1-(uint64(pva)&(pageSize-1)))>>d.lineShift) + 1
							if limit > groups {
								limit = groups
							}
							for g+m < limit {
								s1 := &d.slots[idx]
								if !s1.holds(k1) {
									break
								}
								s1.owner = tid
								k1 += 1 << keyShift
								idx = (idx + 1) & d.setMask
								m++
							}
						}
						if m > 0 {
							n := uint64(m) * gk
							dRefs += n
							dHits += n
							out.L1Refs += n
							lastLine2 := (pa + mem.Addr(uint64(m-1)*ls)) >> e.lineShift << e.lineShift
							if !carryOK || lastLine2 != curLine2 {
								curLine2, carryOK, l2Resident = lastLine2, true, false
							}
							curLine1, l1Carry, l1CarryHit = line1+mem.Addr(uint64(m-1)*ls), true, true
							va += mem.Addr(uint64(m) * ls)
							i += m * densePerLine
							g += m
							continue
						}
					}
					if denseRB != 0 {
						// Replay the carried line's run and straddle
						// seg0 (n references in all). A load carry is
						// always a hit (misses fill); a store carry
						// replays the frozen outcome, and its L2 span
						// was probed when the line was, so the span
						// carry below still holds.
						dRefs += un
						if !write {
							dHits += un
							out.L1Refs += un
						} else {
							if l1CarryHit {
								dHits += un
							} else {
								dMisses += un
							}
							eRefs += un
							eHits += un
							out.L2HitRefs += un
						}
					}
					pva := va + probeOff
					if vp := uint64(pva) >> pageShift; vp != curVPage {
						pageDelta = env.TranslatePage(pva) - pva
						curVPage = vp
					}
					pa := pva + pageDelta
					line1 := pa >> d.lineShift << d.lineShift
					line2 := pa >> e.lineShift << e.lineShift
					if !carryOK || line2 != curLine2 {
						curLine2, carryOK, l2Resident = line2, true, false
					}
					dRefs += puk
					s1 := &d.slots[d.setOf(line1)]
					k1 := d.probe(line1)
					curLine1, l1Carry = line1, true
					if !write {
						l1CarryHit = true
						if s1.holds(k1) {
							dHits += puk
							s1.owner = tid
							out.L1Refs += puk
						} else {
							dMisses++
							dHits += puk - 1
							out.L1Refs += puk - 1
							eRefs++
							if l2Resident {
								eHits++
								out.L2HitRefs++
							} else {
								i2 := e.setOf(line2)
								if s2 := &e.slots[i2]; s2.holds(e.probe(line2)) {
									eHits++
									out.L2HitRefs++
									s2.owner = tid
									if sh != nil {
										sh.readHit(cpu, i2)
									}
								} else {
									eMisses++
									victim := h.fillL2Slot(i2, line2, tid, false)
									if env.LineMiss(pva, line2, false, victim) {
										out.RemoteMisses++
									} else {
										out.CleanMisses++
									}
								}
								l2Resident = true
							}
							if s1.key != 0 {
								d.stats.Evictions++
								if s1.key&keyDirty != 0 {
									d.stats.Writebacks++
								}
							} else {
								d.valid++
							}
							s1.key, s1.owner = d.fillKey(k1), tid
						}
					} else {
						l1hit := s1.holds(k1)
						l1CarryHit = l1hit
						if l1hit {
							dHits += puk
							s1.owner = tid
						} else {
							dMisses += puk
						}
						eRefs += puk
						if l2Resident {
							eHits += puk
							out.L2HitRefs += puk
						} else {
							i2 := e.setOf(line2)
							if s2 := &e.slots[i2]; s2.holds(e.probe(line2)) {
								eHits += puk
								out.L2HitRefs += puk
								if sh != nil {
									sh.storeHit(cpu, i2, line2)
								} else if s2.key&keyShared != 0 {
									s2.key &^= keyShared
									if coherent {
										env.SharedStore(line2)
									}
								}
								s2.key |= keyDirty
								s2.owner = tid
								if coherent {
									env.DirtyStore(line2)
								}
							} else {
								eMisses++
								eHits += puk - 1
								out.L2HitRefs += puk - 1
								victim := h.fillL2Slot(i2, line2, tid, true)
								if env.LineMiss(pva, line2, true, victim) {
									out.RemoteMisses++
								} else {
									out.CleanMisses++
								}
							}
							l2Resident = true
						}
					}
					va += mem.Addr(ls)
					i += densePerLine
					g++
				}
				continue
			}
		}
		// Strided load streak: walk the hits on va's page (the
		// translation memo's reach), each a one-reference run on its
		// own line, in a tight loop. Span and carry state are
		// reconciled once at the end, to what the generic bodies would
		// leave: L1D hits never touch the L2, so only the final span
		// matters, and within a page the lines ascend, so the span
		// that was current before the streak cannot recur once left.
		// The first miss falls through to the generic body below.
		if streak {
			if vp := uint64(va) >> pageShift; vp != curVPage {
				pageDelta = env.TranslatePage(va) - va
				curVPage = vp
			}
			ln := d.lineNum(va + pageDelta)
			step := stride >> d.lineShift
			n := min(count-i, int((pageSize-1-uint64(va)&(pageSize-1))>>strideShift)+1)
			h := 0
			for ; h < n; h++ {
				s1 := &d.slots[ln&d.setMask]
				if !s1.holds((ln + 1) << keyShift) {
					break
				}
				s1.owner = tid
				ln += step
			}
			if h > 0 {
				uh := uint64(h)
				dRefs += uh
				dHits += uh
				out.L1Refs += uh
				last := mem.Addr(ln-step) << d.lineShift
				if line2 := last >> e.lineShift << e.lineShift; !carryOK || line2 != curLine2 {
					curLine2, carryOK, l2Resident = line2, true, false
				}
				curLine1, l1Carry, l1CarryHit = last, true, true
				i += h
				continue
			}
		}
		// Run length: references i..i+k-1 stay on va's line without
		// straddling. A straddling reference (unaligned or large) is
		// one reference probing two lines: it runs the body below twice
		// with k=1, once for each endpoint's line — the same two probes
		// the per-reference path issues, so statistics, fills and
		// events are identical, and the L2 span carry stays valid (the
		// segments are just more k=1 runs in monotonic line order).
		var k int
		nseg := 1
		if off+uint64(a.Size) > ls {
			k = 1
			nseg = 2
		} else if strideShift >= 0 {
			k = int((ls-size-off)>>strideShift) + 1
		} else {
			k = int((ls-size-off)/stride) + 1
		}
		if k > count-i {
			k = count - i
		}
		uk := uint64(k)
		i += k
		for seg := 0; seg < nseg; seg++ {
			if seg == 1 {
				// Second half of a straddle: probe the endpoint's line
				// (which may sit on the next virtual page — the page memo
				// re-translates).
				va += mem.Addr(a.Size - 1)
			}
			vpage := uint64(va) >> pageShift
			if vpage != curVPage {
				pageDelta = env.TranslatePage(va) - va
				curVPage = vpage
			}
			pa := va + pageDelta
			line2 := pa >> e.lineShift << e.lineShift
			if !carryOK || line2 != curLine2 {
				curLine2, carryOK, l2Resident = line2, true, false
			}
			line1 := pa >> d.lineShift << d.lineShift
			dRefs += uk

			if !write {
				if l1Carry && line1 == curLine1 {
					// Carried: this sweep's previous run left line1
					// resident and owned by tid, so the probe's outcome
					// is known without loading the slot.
					dHits += uk
					if d.classify != nil {
						d.classify.touch(line1)
					}
					out.L1Refs += uk
					continue
				}
				curLine1, l1Carry, l1CarryHit = line1, true, true
				s1 := &d.slots[d.setOf(line1)]
				k1 := d.probe(line1)
				if s1.holds(k1) {
					// Load run satisfied by the L1D: k hits, no L2 traffic.
					dHits += uk
					s1.owner = tid
					if d.classify != nil {
						d.classify.touch(line1)
					}
					out.L1Refs += uk
					continue
				}
				// Load run that missed the L1D: one L2 access, then the
				// line fills into L1D and the k-1 repeats hit there.
				dMisses++
				dHits += uk - 1
				out.L1Refs += uk - 1
				if d.classify != nil {
					d.classify.classify(line1)
					d.classify.touch(line1)
				}
				eRefs++
				if l2Resident {
					// Span carry: the line is resident with tid's ownership
					// already attributed by this span's earlier runs.
					eHits++
					out.L2HitRefs++
					if e.classify != nil {
						e.classify.touch(line2)
					}
				} else {
					i2 := e.setOf(line2)
					if s2 := &e.slots[i2]; s2.holds(e.probe(line2)) {
						eHits++
						out.L2HitRefs++
						s2.owner = tid
						if e.classify != nil {
							e.classify.touch(line2)
						}
						if sh != nil {
							sh.readHit(cpu, i2)
						}
					} else {
						eMisses++
						if e.classify != nil {
							e.classify.classify(line2)
							e.classify.touch(line2)
						}
						// Inclusion invalidates the victim's span from
						// the L1s BEFORE our line fills into L1D — the
						// victim shares the L2 set with our line, so its
						// L1D sublines occupy the very slots the fill
						// below is about to claim.
						victim := h.fillL2Slot(i2, line2, tid, false)
						if env.LineMiss(va, line2, false, victim) {
							out.RemoteMisses++
						} else {
							out.CleanMisses++
						}
					}
					l2Resident = true
				}
				// Fill the L1D last, matching the per-reference order (the
				// inclusion invalidation above may have cleared this very
				// slot; the probe's miss outcome still stands, but the
				// victim must be read from the slot's state now). With no
				// listener attached (the machine only listens on the L2)
				// the fill inlines to the slot update and its statistics
				// — exactly what fill would do, minus its call and the
				// victim value nobody consumes.
				if d.listener == nil {
					if s1.key != 0 {
						d.stats.Evictions++
						if s1.key&keyDirty != 0 {
							d.stats.Writebacks++
						}
					} else {
						d.valid++
					}
					s1.key, s1.owner = d.fillKey(k1), tid
				} else {
					d.fill(s1, line1, tid, false, false)
				}
				continue
			}

			// Store run. The write-through L1D is probed with write=false
			// (the dirty bit lives in the L2) and never allocates on
			// stores, so the whole run repeats the first reference's
			// hit-or-miss outcome; every reference proceeds to the L2.
			// A carried line replays the frozen outcome without
			// re-loading the slot (a hit's owner is already tid).
			var l1hit bool
			if l1Carry && line1 == curLine1 {
				l1hit = l1CarryHit
				if l1hit {
					dHits += uk
					if d.classify != nil {
						d.classify.touch(line1)
					}
				} else {
					dMisses += uk
					if d.classify != nil {
						for j := 0; j < k; j++ {
							d.classify.classify(line1)
							d.classify.touch(line1)
						}
					}
				}
			} else {
				s1 := &d.slots[d.setOf(line1)]
				l1hit = s1.holds(d.probe(line1))
				curLine1, l1Carry, l1CarryHit = line1, true, l1hit
				if l1hit {
					dHits += uk
					s1.owner = tid
					if d.classify != nil {
						d.classify.touch(line1)
					}
				} else {
					dMisses += uk
					if d.classify != nil {
						// Each replayed miss classifies, exactly as k Lookup
						// calls would (after the first, the line is in the
						// shadow, so repeats classify as conflict).
						for j := 0; j < k; j++ {
							d.classify.classify(line1)
							d.classify.touch(line1)
						}
					}
				}
			}
			eRefs += uk
			if l2Resident {
				// Span carry: dirtiness and ownership were attributed when
				// the span's first store touched the line.
				eHits += uk
				out.L2HitRefs += uk
				if e.classify != nil {
					e.classify.touch(line2)
				}
				continue
			}
			i2 := e.setOf(line2)
			if s2 := &e.slots[i2]; s2.holds(e.probe(line2)) {
				eHits += uk
				out.L2HitRefs += uk
				if sh != nil {
					// Shared L2: the sharer set (not the shared mark,
					// which a line held only by another CPU lacks)
					// names the L1 copies to invalidate.
					sh.storeHit(cpu, i2, line2)
				} else if s2.key&keyShared != 0 {
					// Store to a line cached shared: clear the local mark
					// and have the machine invalidate the other copies (the
					// per-reference path does this before its probe; the
					// two orders touch disjoint state and commute).
					s2.key &^= keyShared
					if coherent {
						env.SharedStore(line2)
					}
				}
				s2.key |= keyDirty
				s2.owner = tid
				if e.classify != nil {
					e.classify.touch(line2)
				}
				if coherent {
					// One directory update covers the span: the
					// per-reference path's per-run setDirty is idempotent.
					env.DirtyStore(line2)
				}
			} else {
				// Store miss: the first reference write-allocates the line
				// dirty (the machine's fill owns it in the directory, so no
				// DirtyStore is needed); the k-1 repeats hit it.
				eMisses++
				eHits += uk - 1
				out.L2HitRefs += uk - 1
				if e.classify != nil {
					e.classify.classify(line2)
					e.classify.touch(line2)
				}
				victim := h.fillL2Slot(i2, line2, tid, true)
				if env.LineMiss(va, line2, true, victim) {
					out.RemoteMisses++
				} else {
					out.CleanMisses++
				}
			}
			l2Resident = true
		}
	}
	d.stats.Refs += dRefs
	d.stats.Hits += dHits
	d.stats.Misses += dMisses
	e.stats.Refs += eRefs
	e.stats.Hits += eHits
	e.stats.Misses += eMisses
	return out
}

// fillL2Slot fills line into the L2's direct-mapped slot i after the
// sweep's probe missed it, and maintains inclusion: the displaced
// victim's span leaves this CPU's L1s on a private hierarchy, and the
// L1s of every recorded sharer on a shared one (where the filler then
// becomes the line's sole sharer).
func (h *Hierarchy) fillL2Slot(i int, line mem.Addr, tid mem.ThreadID, write bool) Victim {
	e := h.L2
	victim := e.fill(&e.slots[i], line, tid, write, false)
	if h.shared != nil {
		h.shared.filled(h.cpu, i, victim)
	} else if victim.Valid {
		span := uint64(e.cfg.LineSize)
		h.L1I.InvalidateSpan(victim.Line, span)
		h.L1D.InvalidateSpan(victim.Line, span)
	}
	return victim
}
