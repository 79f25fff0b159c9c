package obs

import (
	"fmt"
	"io"
	"testing"
)

// The sink benchmarks substantiate the Θ(I) claim operationally: the hot
// path only mutates the in-memory Δ, so durable-write cost appears only
// at the 2^20 threshold and at Close. Add is the steady state — 0
// allocs/op — against BenchmarkPerEventRecordWrite, the O(N) per-event
// durable write the coalescer replaces.

func benchSink() *CoalescingSink {
	return NewCoalescingSink(NewMetricsWriter(io.Discard))
}

func BenchmarkCoalescingSinkAdd(b *testing.B) {
	c := benchSink()
	c.Add("k", 1) // pre-create the entry: steady state, not first touch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add("k", 1)
	}
}

// Self-cancelling traffic: the VSA best case — durable work is zero no
// matter how many events pass through.
func BenchmarkCoalescingSinkAddCancelling(b *testing.B) {
	c := benchSink()
	c.Add("k", 1)
	c.Add("k", -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add("k", 1)
		c.Add("k", -1)
	}
}

// Fan-out across many live series: per-event cost must stay flat as the
// map holds more keys (hash lookup, no durable work).
func BenchmarkCoalescingSinkAddManyKeys(b *testing.B) {
	const keys = 1024
	c := benchSink()
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("series.%04d", i)
		c.Add(names[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(names[i%keys], 1)
	}
}

// Baseline for comparison: the per-event durable write the coalescer
// replaces. This is the O(N) path — every event encodes and writes.
func BenchmarkPerEventRecordWrite(b *testing.B) {
	mw := NewMetricsWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw.Write(Record{F("kind", "event"), F("key", "k"), F("delta", int64(1))})
	}
}
