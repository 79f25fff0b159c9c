package exec_test

import (
	"testing"

	"visa/internal/clab"
	"visa/internal/exec"
)

// mmMachine returns a functional machine for the mm benchmark after one
// full run, so every data page the program touches is already mapped.
func mmMachine(t *testing.T) (*exec.Machine, func(batch []exec.DynInst)) {
	t.Helper()
	prog, err := clab.ByName("mm").Program()
	if err != nil {
		t.Fatal(err)
	}
	m := exec.New(prog)
	pass := func(batch []exec.DynInst) {
		m.Reset()
		for {
			n, err := m.Fill(batch)
			if err != nil {
				t.Fatal(err)
			}
			if n < len(batch) {
				return
			}
		}
	}
	pass(make([]exec.DynInst, 64))
	return m, pass
}

// TestFillAllocFree: in steady state, Fill streams a 64-record batch into
// the caller's array with zero heap allocations. It is the functional half
// of every timing-model loop, so an escape here costs one allocation per
// batch across every simulated instruction.
func TestFillAllocFree(t *testing.T) {
	m, _ := mmMachine(t)
	batch := make([]exec.DynInst, 64)
	m.Reset()
	// Ten batches per run: AllocsPerRun floors its per-run average, so an
	// allocation every few batches must still add up to at least one.
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10; i++ {
			if n, err := m.Fill(batch); n != len(batch) || err != nil {
				t.Fatalf("Fill = %d, %v; want a full batch mid-program", n, err)
			}
		}
	}); n != 0 {
		t.Errorf("Fill allocates %.0f times per ten 64-record batches, want 0", n)
	}
}

// TestFillPassAllocs: a whole Reset+Fill run of mm allocates only for the
// program's output. mm writes three OUT words; appending them to the fresh
// Out slice costs two allocations (capacity 2, then 4). Anything more is
// the execution loop or memory reset allocating per run.
func TestFillPassAllocs(t *testing.T) {
	m, pass := mmMachine(t)
	batch := make([]exec.DynInst, 64)
	n := testing.AllocsPerRun(5, func() { pass(batch) })
	if len(m.Out) != 3 || len(m.OutF) != 0 {
		t.Fatalf("mm wrote %d OUT and %d OUTF values, want 3 and 0", len(m.Out), len(m.OutF))
	}
	if n > 2 {
		t.Errorf("Reset+Fill pass allocates %.1f times, want <= 2 (program output only)", n)
	}
}
