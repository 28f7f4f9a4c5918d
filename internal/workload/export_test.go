package workload

// GenerateSlow, SameTraceBits and BaseOptions expose the bisection
// oracle, its bit-for-bit comparison and the GenSpec-to-Options mapping to
// the external corpus test.
var (
	GenerateSlow  = generateSlow
	SameTraceBits = sameTraceBits
)

func (g GenSpec) BaseOptions() Options { return g.baseOptions() }
