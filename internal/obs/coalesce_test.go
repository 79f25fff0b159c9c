package obs

import (
	"bytes"
	"fmt"
	"testing"
)

// coalescer builds a sink over an in-memory JSONL writer.
func coalescer() (*CoalescingSink, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewCoalescingSink(NewMetricsWriter(&buf)), &buf
}

// TestCoalescingNil: the whole surface must be a no-op through nil.
func TestCoalescingNil(t *testing.T) {
	var c *CoalescingSink
	c.Add("k", 1)
	if err := c.Close(); err != nil {
		t.Error(err)
	}
	var s *Sink
	if s.C() != nil {
		t.Error("nil sink must hand out a nil coalescer")
	}
}

// TestCoalescingThetaI is the Θ(I) property: N events over I distinct keys
// must produce exactly I durable records at Close, independent of N.
func TestCoalescingThetaI(t *testing.T) {
	const n, keys = 100000, 8
	c, buf := coalescer()
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("k%d", i%keys), 1)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before Close, want 0", buf.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeLines(t, buf.Bytes())
	if len(recs) != keys {
		t.Fatalf("%d events over %d keys flushed %d records, want exactly %d",
			n, keys, len(recs), keys)
	}
	for _, r := range recs {
		if r["kind"] != "counter.flush" {
			t.Errorf("unexpected record kind %v", r["kind"])
		}
		if r["delta"].(float64) != n/keys || r["total"].(float64) != n/keys {
			t.Errorf("record %v: want delta=total=%d", r, n/keys)
		}
	}
}

// TestCoalescingSelfCancelling: traffic that nets to zero must cost zero
// durable work — the VSA motivation (reserve → cancel cancels in RAM).
func TestCoalescingSelfCancelling(t *testing.T) {
	c, buf := coalescer()
	for i := 0; i < 50000; i++ {
		c.Add("hot", +1)
		c.Add("hot", -1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != 0 {
		t.Errorf("self-cancelling traffic wrote %d durable bytes, want 0", got)
	}
}

// TestCoalescingThresholdFlush: |Δ| reaching 2^20 flushes that key
// immediately, with the cumulative total carried on every record.
func TestCoalescingThresholdFlush(t *testing.T) {
	const half = coalesceThreshold / 2
	c, buf := coalescer()
	for i := 0; i < 5; i++ {
		c.Add("k", half)
	}
	if got := len(decodeLines(t, buf.Bytes())); got != 2 {
		t.Errorf("5 adds of 2^19: %d records before Close, want 2", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeLines(t, buf.Bytes())
	wantTotals := []float64{2 * half, 4 * half, 5 * half}
	if len(recs) != len(wantTotals) {
		t.Fatalf("%d records, want %d", len(recs), len(wantTotals))
	}
	for i, r := range recs {
		if r["total"].(float64) != wantTotals[i] {
			t.Errorf("record %d total = %v, want %v", i, r["total"], wantTotals[i])
		}
	}
	// Negative deltas trigger on magnitude too.
	c2, buf2 := coalescer()
	c2.Add("neg", -coalesceThreshold)
	recs = decodeLines(t, buf2.Bytes())
	if len(recs) != 1 || recs[0]["total"].(float64) != -coalesceThreshold {
		t.Errorf("negative threshold flush: records %v, want one with total -2^20", recs)
	}
}

// TestCoalescingDeterminism: the durable stream is byte-identical across
// identical operation sequences, with the Close flush sorted by key
// whatever the arrival order.
func TestCoalescingDeterminism(t *testing.T) {
	run := func() string {
		c, buf := coalescer()
		for i := 0; i < 1000; i++ {
			c.Add(fmt.Sprintf("k%d", (i*13)%5), int64(i%3))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Error("identical op sequences produced different durable streams")
	}
	recs := decodeLines(t, []byte(a))
	if len(recs) != 5 {
		t.Fatalf("%d records, want one per key (5)", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("k%d", i); r["key"] != want {
			t.Errorf("record %d key = %v, want %s (sorted)", i, r["key"], want)
		}
	}
}
