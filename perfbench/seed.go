package main

// DefaultSeed is the seed the golden report hashes were recorded at.
// HeldOutSeed was never used while the workloads and bounds were tuned;
// a performance claim must also hold there.
const (
	DefaultSeed uint64 = 1
	HeldOutSeed uint64 = 20031
)

// rng is a splitmix64 stream: every generated input (the serve-mix plan
// mix, the wcet-sweep frequency advantages) derives from the --seed
// argument through it, so the same seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = mix(r.s ^ uint64(c))
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// mix is splitmix64's finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a value in (0, 1].
func (r *rng) unit() float64 { return float64(r.next()>>11+1) / (1 << 53) }

// shuffle permutes n items in place through swap (Fisher-Yates).
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
