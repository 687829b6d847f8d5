package kernel

import (
	"testing"
	"unsafe"
)

// TestKernelThreadSize guards the kernel thread's footprint, which every
// carved slab slot pays. A slab chunk holds 256 threads and their
// sleep-heap entries in one allocation: 200-byte threads and 24-byte
// entries fill seven 8 KiB pages exactly, so one more word per thread
// costs a page per slab. The sleep heap therefore keeps only a 32-bit
// position on the thread, and the deadline and the registration number
// that breaks deadline ties in its entry, where a sift reads them.
func TestKernelThreadSize(t *testing.T) {
	const limit, slabLimit = 200, 7 << 13
	if size := unsafe.Sizeof(Thread{}); size > limit {
		t.Fatalf("kernel.Thread is %d bytes, limit %d: keep sleep-heap state off the thread", size, limit)
	}
	if size := unsafe.Sizeof(threadSlab{}); size > slabLimit {
		t.Fatalf("a thread slab chunk is %d bytes, limit %d (seven pages)", size, slabLimit)
	}
}
