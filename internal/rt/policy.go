package rt

// PETPolicy enumerates the run-time PET estimation policies (§4.3): one
// axis with named points, not a pile of flags.
type PETPolicy int

const (
	// PETLastN predicts each sub-task's PET as the maximum AET over the
	// last LastNWindow executions — the paper's default policy.
	PETLastN PETPolicy = iota
	// PETHistogram predicts PETs from per-sub-task AET histograms,
	// targeting the Config.HistogramMiss misprediction rate.
	PETHistogram

	numPETPolicies
)

// petPolicyNames spells the policies as ParsePETPolicy accepts them.
var petPolicyNames = [numPETPolicies]string{"last-n", "histogram"}

func (p PETPolicy) String() string {
	if p.Valid() {
		return petPolicyNames[p]
	}
	return "invalid"
}

// Valid reports whether p names a known policy.
func (p PETPolicy) Valid() bool { return p >= 0 && p < numPETPolicies }

// ParsePETPolicy maps a spelling ("last-n", "histogram") to a PETPolicy.
func ParsePETPolicy(s string) (PETPolicy, error) {
	for p, name := range petPolicyNames {
		if s == name {
			return PETPolicy(p), nil
		}
	}
	return 0, invalidf("unknown PET policy %q (want last-n or histogram)", s)
}
