package obs

import "sort"

// CoalescingSink is the VSA accumulator discipline applied to counter
// telemetry: durable work scales with the number of distinct series (Θ(I)),
// not the number of events (O(N)). The experiment engine gives each job
// one, flushing into the job's private record buffer.
//
// Each key holds a durable baseline S (everything already flushed to the
// underlying MetricsWriter) and an in-memory coalesced delta Δ. The hot
// path, Add, only mutates Δ — self-cancelling traffic (+n followed by -n)
// never reaches the durable stream at all. A key is flushed when |Δ|
// reaches coalesceThreshold, and every key with Δ ≠ 0 is flushed, in
// sorted key order, at Close. The flush is the VSA step
//
//	S ← S ⊕ Δ;  Δ ← 0
//
// and emits one record {kind:"counter.flush", key, delta, total} where
// total is the new baseline, so a consumer keeps the last total per key.
//
// All methods are no-ops on a nil receiver, matching the rest of the
// package: disabled means free.
type CoalescingSink struct {
	dst *MetricsWriter
	m   map[string]*centry
}

type centry struct {
	base  int64 // S: durable baseline (already flushed)
	delta int64 // Δ: coalesced, unflushed
}

// coalesceThreshold flushes a key mid-stream once |Δ| reaches it, so a
// single record's delta stays bounded on long runs.
const coalesceThreshold = 1 << 20

// NewCoalescingSink builds a sink flushing into dst (which it does not
// own: Close flushes the sink but leaves dst open).
func NewCoalescingSink(dst *MetricsWriter) *CoalescingSink {
	return &CoalescingSink{dst: dst, m: make(map[string]*centry)}
}

// Add accumulates delta into the key's in-memory Δ. This is the O(1) hot
// path: no I/O, no encoding — durable work happens only on a threshold
// crossing or at Close.
//
//visa:hotpath
func (c *CoalescingSink) Add(key string, delta int64) {
	if c == nil {
		return
	}
	e := c.m[key]
	if e == nil {
		//visa:allow(hotalloc): one entry per distinct series — Θ(I) total, amortized zero per event
		e = &centry{}
		c.m[key] = e
	}
	e.delta += delta
	if e.delta >= coalesceThreshold || e.delta <= -coalesceThreshold {
		c.flush(key, e)
	}
}

// flush performs the VSA flush for one key: S ← S⊕Δ, Δ ← 0, emitting the
// coalesced delta and the new cumulative baseline.
func (c *CoalescingSink) flush(key string, e *centry) {
	e.base += e.delta
	// The record build boxes its fields; the flush path runs once per key
	// per Close plus once per threshold crossing, never per event.
	//visa:allow(hotalloc): flush path — runs Θ(distinct series)·flushes times, never per event
	c.dst.Write(Record{
		F("kind", "counter.flush"), //visa:allow(hotalloc): flush-path boxing, bounded by flush count
		F("key", key),              //visa:allow(hotalloc): flush-path boxing, bounded by flush count
		F("delta", e.delta),        //visa:allow(hotalloc): flush-path boxing, bounded by flush count
		F("total", e.base),         //visa:allow(hotalloc): flush-path boxing, bounded by flush count
	})
	e.delta = 0
}

// Close flushes every key with Δ ≠ 0 in sorted key order (deterministic
// output regardless of arrival order) and reports the destination
// writer's sticky error. It does not close dst (the sink does not own it).
func (c *CoalescingSink) Close() error {
	if c == nil {
		return nil
	}
	keys := make([]string, 0, len(c.m))
	for k, e := range c.m {
		if e.delta != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.flush(k, c.m[k])
	}
	return c.dst.Err()
}
