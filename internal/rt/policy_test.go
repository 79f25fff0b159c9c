package rt

import (
	"errors"
	"testing"
)

func TestPETPolicyParseAndString(t *testing.T) {
	for _, p := range []PETPolicy{PETLastN, PETHistogram} {
		got, err := ParsePETPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePETPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePETPolicy("nope"); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("ParsePETPolicy(nope) err = %v, want ErrInvalidSpec", err)
	}
}

func TestValidateRejectsUnknownPolicy(t *testing.T) {
	err := Config{Policy: PETPolicy(99)}.Validate()
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Validate err = %v, want ErrInvalidSpec", err)
	}
}

// TestBudgetSentinel: ErrCycleBudget failures classify as budget overruns
// at the service boundary via errors.Is.
func TestBudgetSentinel(t *testing.T) {
	if !errors.Is(ErrCycleBudget, ErrBudgetExceeded) {
		t.Error("ErrCycleBudget must wrap ErrBudgetExceeded")
	}
}
