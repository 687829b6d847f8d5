package rbs

import (
	"testing"
	"unsafe"
)

// TestStateLayout pins the per-thread state's cache-line layout: the
// fields the wheel drain, refresh, boundInsert/boundRemove and readyKey
// read sit in the first 64 bytes, the size is a multiple of 64, and the
// slab hands out states that start on a line boundary — so a drain that
// reads an entry's key and link touches one line per state. readyLess
// reads no state field: ready-heap entries carry their keys inline.
func TestStateLayout(t *testing.T) {
	var st state
	size := unsafe.Sizeof(st)
	if size%64 != 0 {
		t.Fatalf("state is %d bytes, want a multiple of 64", size)
	}
	hot := []struct {
		name string
		off  uintptr
		size uintptr
	}{
		{"boundKey", unsafe.Offsetof(st.boundKey), unsafe.Sizeof(st.boundKey)},
		{"boundNext", unsafe.Offsetof(st.boundNext), unsafe.Sizeof(st.boundNext)},
		{"periodStart", unsafe.Offsetof(st.periodStart), unsafe.Sizeof(st.periodStart)},
		{"res", unsafe.Offsetof(st.res), unsafe.Sizeof(st.res)},
		{"budget", unsafe.Offsetof(st.budget), unsafe.Sizeof(st.budget)},
		{"perBudget", unsafe.Offsetof(st.perBudget), unsafe.Sizeof(st.perBudget)},
		{"boundPos", unsafe.Offsetof(st.boundPos), unsafe.Sizeof(st.boundPos)},
		{"boundLevel", unsafe.Offsetof(st.boundLevel), unsafe.Sizeof(st.boundLevel)},
		{"registered", unsafe.Offsetof(st.registered), unsafe.Sizeof(st.registered)},
		{"queued", unsafe.Offsetof(st.queued), unsafe.Sizeof(st.queued)},
		{"napping", unsafe.Offsetof(st.napping), unsafe.Sizeof(st.napping)},
	}
	for _, f := range hot {
		if f.off+f.size > 64 {
			t.Errorf("%s spans bytes [%d,%d), want it within the first cache line", f.name, f.off, f.off+f.size)
		}
	}
	p := &Policy{}
	for i := 0; i < 3*stateSlabSize; i++ {
		if off := uintptr(unsafe.Pointer(p.allocState(nil))) % 64; off != 0 {
			t.Fatalf("slab state %d starts at line offset %d", i, off)
		}
	}
	t.Logf("state: %d bytes", size)
}
