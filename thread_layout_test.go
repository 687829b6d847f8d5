package realrate

import (
	"testing"
	"unsafe"
)

// TestThreadHandleSize guards the public handle's footprint. Handles are
// deliberately never pooled — a caller may read an exited handle forever
// — so every spawn of a session storm pays for one. Packing the frozen
// exit statistics (enum bytes for class and degradation level, 32-bit
// CPU and proportions) and folding the program adapter into the handle
// brought it from 232 bytes to 144; dropping the SLO tracker's cached
// per-job and per-class series pointers brought it to 128.
func TestThreadHandleSize(t *testing.T) {
	const limit = 128
	if size := unsafe.Sizeof(Thread{}); size > limit {
		t.Fatalf("Thread handle is %d bytes, limit %d: keep exit statistics packed and the adapter a conversion of the handle", size, limit)
	}
}
