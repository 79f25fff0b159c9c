package obs

import "testing"

// TestCoalescingSinkAddAllocFree pins the coalescer's cost model on the
// compiled code: Add on a key that already has an entry allocates only
// when it flushes. At the default threshold no flush happens, so Add is
// allocation-free. At threshold 16 every 16th Add flushes one record, and
// the other 15 must add nothing to the flush's own cost. (A benchmark's
// allocs/op averages the flush over 16 calls and reads 1 at threshold 16.)
func TestCoalescingSinkAddAllocFree(t *testing.T) {
	c := benchSink(1 << 20)
	c.Add("k", 1) // pre-create the entry: steady state, not first touch
	// Count whole bursts: AllocsPerRun floors its per-run average, so a
	// per-call measurement would hide an allocation made every few calls.
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			c.Add("k", 1)
		}
	}); n != 0 {
		t.Errorf("threshold=1048576: 1000 Adds allocate %.0f times, want 0", n)
	}

	c = benchSink(16)
	c.Add("k", 1000) // flushes; the running total is now past the small-int range
	flush := testing.AllocsPerRun(100, func() { c.Add("k", 16) })
	burst := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			c.Add("k", 1)
		}
	})
	if c.Flushes() != 1+101+101 {
		t.Fatalf("threshold=16: %d flushes, want one per 16 units of delta", c.Flushes())
	}
	if burst != flush {
		t.Errorf("threshold=16: 16 Adds allocate %.0f times, one flushing Add %.0f; "+
			"the 15 non-flushing Adds must allocate nothing", burst, flush)
	}
}
