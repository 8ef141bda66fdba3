package rdd

import (
	"math/bits"
	"reflect"
	"sync"

	"dpspark/internal/matrix"
)

// Record slabs: the slices a shuffle-map task builds its records in, and
// the bucket slabs a shuffle keeps them in, each have a known end. A map
// task's narrow outputs, emits, combiners and merge copies are dead once
// its records sit in its bucket slab (or are encoded); a bucket slab is
// dead once its shuffle retires and its last reader is done. At that end
// they go back to a free list — a sync.Pool per record type and
// power-of-two capacity class, shared by every Context like the stage
// scratch and shuffle arrays — for the next task or shuffle to take. What
// stays unused for two collections the collector frees, so the lists need
// no cap and nothing to drop at Close. See DESIGN.md §9, "Record slab
// lifetimes".
//
// A taken slice is not zeroed: every taker writes each record before it
// reads it (bucketPairs places all n, merges and narrow outputs fill up
// to len). A released one is cleared only up to slabClearBytes, because
// a record on a free list keeps its tile alive until the slice is taken
// again or the collector drops it. A short slice belongs to a task of a
// coarse grid: few records, each pointing at a big tile (128 KiB at
// b = 128), so clearing it is cheap and frees a lot. A long one belongs
// to a fine grid: many records pointing at small tiles, costly to clear
// (about 3 % of a fine-tile solve's CPU when every slice was) and cheap
// to keep.

// Slices under slabMinBytes are not recycled at all: a small make costs
// less than a trip through a pool, and the collector barely sees it. The
// symbolic paper-scale runs, whose tasks hold a record or two, stay on
// make this way.
const (
	slabMinBytes   = 256
	slabClearBytes = 2 << 10
)

// small reports whether n records of T fall under slabMinBytes. Under
// poisonRecycled nothing is small, so small test runs recycle too.
func small[T any](n int) bool {
	return !poisonRecycled && uintptr(n)*reflect.TypeFor[T]().Size() < slabMinBytes
}

// poisonRecycled, set only by tests, overwrites every slice as it is
// released: keys become {-1, -1} (or -1), pointers nil. A reader left
// holding a released slice then reads garbage instead of stale records.
// It also recycles slices under slabMinBytes.
var poisonRecycled bool

// shelves maps reflect.TypeFor[[]T] to T's *shelf.
var shelves sync.Map

// recycler releases a boxed slice to its shelf.
type recycler interface{ put(box partition) }

// shelf is T's free lists: class[k] holds boxed []T of capacity 1<<k. A
// slice is kept in its box, so a trip through a pool allocates nothing.
type shelf[T any] struct{ class [bits.UintSize]sync.Pool }

// classOf is the capacity class that holds n ≥ 1 records.
func classOf(n int) int { return bits.Len(uint(n - 1)) }

// shelfOf returns T's shelf, making it on first use.
func shelfOf[T any]() *shelf[T] {
	key := reflect.TypeFor[[]T]()
	sh, ok := shelves.Load(key)
	if !ok {
		sh, _ = shelves.LoadOrStore(key, new(shelf[T]))
	}
	return sh.(*shelf[T])
}

// get returns a released slice of n's class, boxed, or nil.
func (sh *shelf[T]) get(n int) partition { return sh.class[classOf(n)].Get() }

// put releases box, a []T whatever its length. Only a class's capacity
// is kept: a slice made under slabMinBytes is left to the collector.
func (sh *shelf[T]) put(box partition) {
	s := box.([]T)
	n := cap(s)
	if poisonRecycled {
		poison(s[:n])
	}
	if n&(n-1) != 0 {
		return
	}
	if uintptr(n)*reflect.TypeFor[T]().Size() <= slabClearBytes {
		clear(s[:n])
	}
	sh.class[classOf(n)].Put(box)
}

// takeSlab is take for a slab that outlives its task: a shuffle's bucket
// slab, released by recycleIfUnpinned.
func takeSlab[T any](n int) []T {
	if small[T](n) {
		return make([]T, n)
	}
	if box := shelfOf[T]().get(n); box != nil {
		return box.([]T)[:n]
	}
	return make([]T, n, 1<<classOf(n))
}

// poison overwrites a released slice (poisonRecycled).
func poison[T any](s []T) {
	clear(s)
	if slots, ok := any(s).([]int32); ok {
		for i := range slots {
			slots[i] = -1
		}
		return
	}
	for i := range s {
		if p, ok := any(&s[i]).(interface{ poisonKey() }); ok {
			p.poisonKey()
		}
	}
}

func (p *Pair[K, V]) poisonKey() {
	switch k := any(&p.Key).(type) {
	case *matrix.Coord:
		*k = matrix.Coord{I: -1, J: -1}
	case *int:
		*k = -1
	}
}

// taskArena is a stage worker's recycling state, taken from arenas on
// the first take or chunk-read pin of one of its task attempts and handed
// from attempt to attempt until the worker is done (stageRun.runTasks):
// the slices a shuffle-map task was handed, all released at once when its
// records are in its bucket slab; and the shuffles the current attempt
// pins, unpinned when it ends.
type taskArena struct {
	held []heldSlice
	pins []*shuffleState
}

// heldSlice is a slice an arena handed out, in its box, and its shelf.
type heldSlice struct {
	sh  recycler
	box partition
}

// arenas recycles the stage workers' arenas.
var arenas = sync.Pool{New: func() any { return new(taskArena) }}

// take returns n records' worth of slice, len n and unzeroed: in a
// shuffle-map task from a free list, held by the task's arena until it
// ends; anywhere else (result tasks, whose output leaves the engine, and
// the driver) newly made.
func take[T any](tc *TaskContext, n int) []T {
	if n == 0 {
		return nil
	}
	if tc == nil || !tc.recycling || small[T](n) {
		return make([]T, n)
	}
	sh := shelfOf[T]()
	box := sh.get(n)
	if box == nil {
		box = make([]T, 1<<classOf(n))
	}
	a := tc.arenaOf()
	a.held = append(a.held, heldSlice{sh, box})
	return box.([]T)[:n]
}

// arenaOf returns the attempt's arena, taking one on first use.
func (tc *TaskContext) arenaOf() *taskArena {
	if tc.arena == nil {
		tc.arena = arenas.Get().(*taskArena)
	}
	return tc.arena
}

// Scratch returns an empty slice with room for n records, for a task's
// function to build the records it returns in. In a shuffle-map task it
// comes from the task's arena and goes back, for another task to reuse,
// once the task's records are in the shuffle: the function must not keep
// it (or anything sliced from it) past its return. Elsewhere it is a plain
// make([]T, 0, n).
func Scratch[T any](tc *TaskContext, n int) []T {
	return take[T](tc, n)[:0]
}

// grow is slices.Grow for a slice a task builds: room for n more, the
// larger slice taken like take's.
func grow[T any](tc *TaskContext, s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	g := take[T](tc, len(s)+n)[:len(s)]
	copy(g, s)
	return g
}

// releaseSlices ends a shuffle-map task's recycling: every slice its
// arena handed out goes back to its shelf. A panicked attempt never gets
// here.
func (tc *TaskContext) releaseSlices() {
	tc.recycling = false
	a := tc.arena
	if a == nil {
		return
	}
	for i, h := range a.held {
		h.sh.put(h.box)
		a.held[i] = heldSlice{}
	}
	a.held = a.held[:0]
}

// pin keeps st's bucket slabs from recycling until tc's attempt ends: the
// reader holds chunks that alias them past the read lock. Called with
// st.mu read-held and st not retired.
func (tc *TaskContext) pin(st *shuffleState) {
	st.pins.Add(1)
	a := tc.arenaOf()
	a.pins = append(a.pins, st)
}

// endAttempt ends the attempt's pins; the last pin on a shuffle retired
// meanwhile recycles it. A panicked attempt's arena, with any slices it
// still holds, is dropped and left to the collector.
func (tc *TaskContext) endAttempt(panicked bool) {
	a := tc.arena
	if a == nil {
		return
	}
	for i, st := range a.pins {
		a.pins[i] = nil
		if st.pins.Add(-1) == 0 {
			recycleIfUnpinned(st)
		}
	}
	a.pins = a.pins[:0]
	if panicked {
		tc.arena = nil
	}
}

// putArena gives a finished stage worker's arena back.
func putArena(a *taskArena) {
	if a != nil {
		arenas.Put(a)
	}
}

// recycleIfUnpinned recycles a retired shuffle's arrays and bucket slabs
// once no reader pins it. Retirement and the last unpin both call it;
// exactly one of them finds it retired, unpinned and not yet recycled.
func recycleIfUnpinned(st *shuffleState) {
	st.mu.Lock()
	if !st.retired || st.recycled || st.pins.Load() > 0 {
		st.mu.Unlock()
		return
	}
	st.recycled = true
	a := st.shuffleArrays
	st.shuffleArrays = shuffleArrays{}
	st.mu.Unlock()
	// Every slab has exactly one bucket at offset 0, staged in the block
	// store or not. Slabs whose refs a recovery merge dropped are not
	// here: the collector has them.
	for _, refs := range a.byReduce {
		for _, ref := range refs {
			if ref.lo != 0 || ref.slab == nil {
				continue
			}
			if sh, ok := shelves.Load(reflect.TypeOf(ref.slab)); ok {
				sh.(recycler).put(ref.slab)
			}
		}
	}
	putShuffleArrays(a)
}
