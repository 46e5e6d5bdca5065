package rt

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// refTimers is container/heap over timer entries: the reference the
// typed timerQueue must match entry for entry.
type refTimers []timerEntry

func (q refTimers) Len() int { return len(q) }
func (q refTimers) Less(i, j int) bool {
	return timerQueue(q).less(i, j)
}
func (q refTimers) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refTimers) Push(x any)   { *q = append(*q, x.(timerEntry)) }
func (q *refTimers) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// TestTimerHeapMatchesContainerHeap pins the typed timer heap to
// container/heap's sift order: after every push and pop of a seeded
// stream (many equal deadlines, so the seq tie-break decides) the two
// arrays are identical, not just their minima, because CaptureState
// records the array in order and the timers section digest covers it.
func TestTimerHeapMatchesContainerHeap(t *testing.T) {
	rng := xrand.New(7)
	var q timerQueue
	var ref refTimers
	seq := uint64(0)
	for step := 0; step < 20000; step++ {
		if len(q) == 0 || rng.Uint64n(5) < 3 {
			seq++
			tm := timerEntry{wakeAt: rng.Uint64n(64), seq: seq, tid: mem.ThreadID(rng.Uint64n(100))}
			q.push(tm)
			heap.Push(&ref, tm)
		} else if got, want := q.pop(), heap.Pop(&ref).(timerEntry); got != want {
			t.Fatalf("step %d: pop = %+v, container/heap %+v", step, got, want)
		}
		if !slices.Equal(q, timerQueue(ref)) {
			t.Fatalf("step %d: layout %v, container/heap %v", step, q, ref)
		}
	}
}
