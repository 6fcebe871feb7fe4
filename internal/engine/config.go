// Package engine wires the substrates into a running adaptive multi-route
// stream system: generators feed an Eddy-style router, composites probe
// STeM states, assessors watch every search request, and the tuner migrates
// index configurations — all on the simulation substrate's virtual clock
// and memory meter. One Engine executes one contender over one workload and
// produces the throughput series the paper's figures plot.
//
// The engine owns neither durability nor an overload response: a run is a
// pure function of (RunConfig, System), so an interrupted simulation is
// re-run from its seed, and an overwhelmed contender backlogs and dies at
// MemCap exactly as the paper reports. Both live in the executor that can
// actually fail, internal/pipeline (DESIGN.md §8, §11).
package engine

import (
	"fmt"
	"strconv"
	"strings"

	"amri/internal/query"
	"amri/internal/sim"
	"amri/internal/stream"
	"amri/internal/tuple"
)

// IndexKind selects a state storage backend.
type IndexKind int

const (
	// IndexBit is the AMRI bit-address index.
	IndexBit IndexKind = iota
	// IndexHash is the multi-hash-index baseline (access modules).
	IndexHash
	// IndexScan is the no-index baseline.
	IndexScan
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case IndexBit:
		return "bit"
	case IndexHash:
		return "hash"
	case IndexScan:
		return "scan"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// AssessKind selects an assessment method.
type AssessKind int

const (
	// AssessNone disables assessment (and with it all tuning).
	AssessNone AssessKind = iota
	// AssessSRIA is the exact self-reliant table.
	AssessSRIA
	// AssessCSRIA is SRIA with lossy-counting reduction.
	AssessCSRIA
	// AssessDIA is the lattice twin of SRIA.
	AssessDIA
	// AssessCDIARandom is CDIA with random combination.
	AssessCDIARandom
	// AssessCDIAHighest is CDIA with highest-count combination.
	AssessCDIAHighest
)

// String implements fmt.Stringer.
func (k AssessKind) String() string {
	switch k {
	case AssessNone:
		return "none"
	case AssessSRIA:
		return "SRIA"
	case AssessCSRIA:
		return "CSRIA"
	case AssessDIA:
		return "DIA"
	case AssessCDIARandom:
		return "CDIA-random"
	case AssessCDIAHighest:
		return "CDIA-highest"
	default:
		return fmt.Sprintf("AssessKind(%d)", int(k))
	}
}

// System describes one contender: which index backend its states use, which
// assessment method watches them, and whether tuning continues after the
// warmup (the paper's non-adapting contenders tune once on the quasi
// training data and then freeze).
type System struct {
	Name           string
	Index          IndexKind
	HashIndexCount int // number of access modules when Index == IndexHash
	Assess         AssessKind
	Adaptive       bool // keep retuning after warmup
}

// AMRI returns the paper's system: bit-address index with continuous
// tuning driven by the given assessment method.
func AMRI(a AssessKind) System {
	return System{Name: "AMRI/" + a.String(), Index: IndexBit, Assess: a, Adaptive: true}
}

// StaticBitmap is the non-adapting bitmap baseline of Figure 7: same index,
// same warmup-time configuration, no tuning afterwards.
func StaticBitmap() System {
	return System{Name: "static-bitmap", Index: IndexBit, Assess: AssessCDIAHighest, Adaptive: false}
}

// HashSystem is the adaptive multi-hash-index baseline with k access
// modules, tuned by highest-count CDIA like the paper's Figure 6 runs.
func HashSystem(k int) System {
	return System{Name: fmt.Sprintf("hash-%d", k), Index: IndexHash, HashIndexCount: k,
		Assess: AssessCDIAHighest, Adaptive: true}
}

// StaticHashSystem is the non-adapting hash baseline ("static non-adapting
// hash indices produced poor results").
func StaticHashSystem(k int) System {
	s := HashSystem(k)
	s.Name = fmt.Sprintf("static-hash-%d", k)
	s.Adaptive = false
	return s
}

// ScanSystem is the no-index floor.
func ScanSystem() System {
	return System{Name: "scan", Index: IndexScan, Assess: AssessNone}
}

// RunConfig is the shared workload and machine configuration of one
// experiment; every contender in a comparison runs under the same RunConfig
// and seed.
type RunConfig struct {
	// Query is the SPJ query; nil means the paper's 4-way join.
	Query *query.Query
	// Profile is the synthetic workload.
	Profile stream.Profile
	// Source optionally replaces the synthetic generator with any workload
	// source (e.g. a stream.Trace replay). Profile.LambdaD is still used
	// as the cost model's λ_d estimate, and the drift/burst machinery is
	// driven by Profile.EpochTicks.
	Source stream.Source
	// Seed fixes generator, router and assessor randomness.
	Seed uint64
	// MaxTicks is the run horizon in virtual seconds.
	MaxTicks int64
	// WarmupTicks is the quasi-training prefix: statistics are gathered
	// but no contender retunes until it ends, at which point every
	// contender performs one index selection (the paper's protocol).
	WarmupTicks int64
	// AssessInterval is how often adaptive contenders retune after warmup.
	AssessInterval int64
	// Theta and Epsilon are the assessment threshold and error rate.
	Theta, Epsilon float64
	// BitBudget is the total IC bits per state for bit-index contenders.
	BitBudget int
	// DenseLimit is the dense/sparse directory crossover in bits.
	DenseLimit int
	// CPUBudget is the machine capacity per tick in cost units; work
	// beyond it backlogs into the queue.
	CPUBudget sim.Units
	// MemCap is the simulated memory cap in bytes; exceeding it ends the
	// run with metrics.EndOOM (0 disables). There is no softer response:
	// contenders die at the cap, as in the paper.
	MemCap int
	// Costs prices the primitive operations.
	Costs sim.CostTable
	// Explore is the router's baseline suboptimal-route probability.
	Explore float64
	// ExploreBurst and BurstTicks model re-exploration: for the first
	// BurstTicks of every drift epoch the router explores at ExploreBurst
	// (its selectivity estimates are stale), then settles back to Explore.
	// The burst is the source of the transient low-frequency access
	// patterns the paper's Section I-B discusses.
	ExploreBurst float64
	BurstTicks   int64
	// MinGain is the tuner's migration hysteresis.
	MinGain float64
	// IncrementalMigration spreads index migrations over ticks instead of
	// relocating the whole state at once: each tick at most
	// MigrateStepTuples tuples move, and searches probe both directories
	// until the old one drains. Trades a transient probe overhead for the
	// removal of the stop-the-world maintenance spike.
	IncrementalMigration bool
	// MigrateStepTuples is the per-tick relocation budget when
	// IncrementalMigration is on (default 500).
	MigrateStepTuples int
	// CumulativeAssessment keeps statistics across tuning passes instead
	// of resetting each window. Under drift, stale mass dilutes the new
	// epoch's patterns and slows adaptation — ablation A5 quantifies it.
	CumulativeAssessment bool
	// AdaptiveBudget sizes each state's total IC bits to its live tuple
	// count (≈ log2(len)+2, capped by BitBudget) at every tuning pass
	// instead of always spending the full fixed budget. Oversized
	// directories waste memory and wildcard fan-out on small states;
	// undersized ones crowd buckets on large states.
	AdaptiveBudget bool
	// ContentRouting switches the router to content-based routing
	// (per-value-region selectivity estimates, Bizarro et al.): routing
	// decisions then depend on each composite's actual attribute values,
	// which pays off under value skew — ablation A6 quantifies it.
	ContentRouting bool
	// SampleEvery is the metrics sampling period in ticks.
	SampleEvery int64
	// OnResult, when set, receives every emitted join result with the tick
	// it was produced at — the hook the aggregation layer (internal/agg)
	// and custom consumers attach to. The composite is shared; consumers
	// must not mutate it.
	OnResult func(c *tuple.Composite, tick int64)
}

// DefaultRunConfig returns the Figure 6/7 workload configuration. The
// magnitudes are calibrated so that a well-tuned AMRI run uses roughly half
// the per-tick CPU budget, leaving the baselines' extra maintenance and
// scan work to overflow into backlog the way the paper reports.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Profile:        stream.DriftProfile(),
		Seed:           1,
		MaxTicks:       1800, // 30 virtual minutes
		WarmupTicks:    180,  // scaled-down 15-minute quasi training
		AssessInterval: 30,
		Theta:          0.04,
		Epsilon:        0.005,
		BitBudget:      12,
		DenseLimit:     16,
		CPUBudget:      70000,
		MemCap:         32 << 20,
		Costs:          sim.DefaultCosts(),
		Explore:        0.04,
		ExploreBurst:   0.12,
		BurstTicks:     25,
		MinGain:        0.02,
		SampleEvery:    10,
	}
}

// Validate rejects unusable configurations.
func (c *RunConfig) Validate() error {
	if c.MaxTicks <= 0 {
		return fmt.Errorf("engine: MaxTicks must be positive")
	}
	if c.WarmupTicks < 0 || c.WarmupTicks >= c.MaxTicks {
		return fmt.Errorf("engine: warmup %d outside run horizon %d", c.WarmupTicks, c.MaxTicks)
	}
	if c.AssessInterval <= 0 {
		return fmt.Errorf("engine: AssessInterval must be positive")
	}
	if c.Theta <= 0 || c.Theta >= 1 || c.Epsilon <= 0 || c.Epsilon >= c.Theta {
		return fmt.Errorf("engine: need 0 < epsilon < theta < 1")
	}
	if c.BitBudget <= 0 || c.BitBudget > 64 {
		return fmt.Errorf("engine: BitBudget %d out of range", c.BitBudget)
	}
	if c.CPUBudget <= 0 {
		return fmt.Errorf("engine: CPUBudget must be positive")
	}
	if c.SampleEvery <= 0 {
		return fmt.Errorf("engine: SampleEvery must be positive")
	}
	return c.Profile.Validate()
}

// ParseSystem resolves a contender name: "amri" (CDIA-highest),
// "amri-sria", "amri-csria", "amri-dia", "amri-cdia-r", "static", "scan",
// or "hash-K" for K access modules.
func ParseSystem(s string) (System, error) {
	switch s {
	case "amri":
		return AMRI(AssessCDIAHighest), nil
	case "amri-cdia-r":
		return AMRI(AssessCDIARandom), nil
	case "amri-sria":
		return AMRI(AssessSRIA), nil
	case "amri-dia":
		return AMRI(AssessDIA), nil
	case "amri-csria":
		return AMRI(AssessCSRIA), nil
	case "static":
		return StaticBitmap(), nil
	case "scan":
		return ScanSystem(), nil
	}
	if rest, ok := strings.CutPrefix(s, "hash-"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k > 0 {
			return HashSystem(k), nil
		}
	}
	return System{}, fmt.Errorf("engine: unknown system %q", s)
}
