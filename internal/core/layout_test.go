package core

import (
	"testing"
	"unsafe"
)

// TestJobLayout pins the job's cache-line layout: its size is a multiple
// of 64 and the slab hands out jobs that start on a line boundary, so a
// sampled job spans whole lines. A 248-byte job straddles a fifth line and
// slows the 100k-job staleness sweep (BenchmarkStalenessSweep in
// internal/ctlplane).
func TestJobLayout(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size%64 != 0 {
		t.Fatalf("Job is %d bytes, want a multiple of 64", size)
	}
	c := &Controller{}
	for i := 0; i < 3*jobSlabSize; i++ {
		if off := uintptr(unsafe.Pointer(c.allocJob())) % 64; off != 0 {
			t.Fatalf("slab job %d starts at line offset %d", i, off)
		}
	}
}
