package obs

import "testing"

// TestCoalescingSinkAddAllocFree pins the coalescer's cost model on the
// compiled code: Add on a key that already has an entry allocates only
// when it flushes, and below the 2^20 threshold it never flushes, so Add
// is allocation-free.
func TestCoalescingSinkAddAllocFree(t *testing.T) {
	c := benchSink()
	c.Add("k", 1) // pre-create the entry: steady state, not first touch
	// Count whole bursts: AllocsPerRun floors its per-run average, so a
	// per-call measurement would hide an allocation made every few calls.
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			c.Add("k", 1)
		}
	}); n != 0 {
		t.Errorf("1000 Adds allocate %.0f times, want 0", n)
	}
}
