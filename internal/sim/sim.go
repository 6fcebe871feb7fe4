// Package sim is the simulation substrate standing in for the paper's CAPE
// deployment on real machines: a virtual clock measured in abstract CPU
// cost units, a per-tick CPU budget that forces unfinished work to backlog,
// and a memory meter with a hard cap that terminates a run the way the
// paper's out-of-memory kills do.
//
// The substitution preserves the paper's shape-level results because every
// figure compares systems by relative throughput and relative death time,
// which depend only on the ratios of the per-operation costs — taken here
// from the paper's own cost model (Table I) — not on absolute wall-clock
// speed.
package sim

import "fmt"

// Units is simulated CPU work. One virtual second of machine capacity is
// CostTable.BudgetPerTick units.
type Units float64

// CostTable prices the primitive operations, mirroring Table I's C_h and
// C_c plus the bookkeeping the engine performs around them.
type CostTable struct {
	// Hash is C_h: computing one hash function over one attribute.
	Hash Units
	// Compare is C_c: one value comparison against a stored tuple.
	Compare Units
	// Bucket is the overhead of probing one bucket (pointer chase).
	Bucket Units
	// DirScan is the overhead of examining one directory entry during a
	// masked sparse iteration.
	DirScan Units
	// Insert is the fixed, configuration-independent part of storing or
	// expiring one tuple (C_insert/C_delete; identical across contenders).
	Insert Units
	// KeyMaint is the cost of creating or removing one auxiliary index key
	// entry (allocation + hash-table surgery): the per-access-module
	// maintenance burden of the multi-hash-index design.
	KeyMaint Units
	// Observe is one assessment observation (hash-table bump).
	Observe Units
	// Route is one routing decision for one composite.
	Route Units
	// Emit is delivering one join result.
	Emit Units
}

// DefaultCosts uses C_h = 1 as the unit, comparisons slightly cheaper, and
// small bookkeeping overheads — the regime of the paper's model where scan
// terms dominate when indices fit poorly.
func DefaultCosts() CostTable {
	return CostTable{
		Hash:     1.0,
		Compare:  0.25,
		Bucket:   0.1,
		DirScan:  0.02,
		Insert:   0.5,
		KeyMaint: 8.0,
		Observe:  0.05,
		Route:    0.05,
		Emit:     0.05,
	}
}

// Category buckets charged work for the cost breakdown: where did the CPU
// actually go? The paper's failure narratives are category statements —
// hash baselines die of maintenance, scan-bound systems of search.
type Category int

const (
	// CatMaintain is insert/expire/key upkeep and index migration.
	CatMaintain Category = iota
	// CatSearch is probe-side hashing, bucket probes and comparisons.
	CatSearch
	// CatAssess is assessment bookkeeping.
	CatAssess
	// CatRoute is routing decisions and result emission.
	CatRoute
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatMaintain:
		return "maintain"
	case CatSearch:
		return "search"
	case CatAssess:
		return "assess"
	case CatRoute:
		return "route"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Clock accumulates virtual time in cost units and converts to seconds via
// the machine capacity.
type Clock struct {
	// UnitsPerSecond is the machine's capacity: how many cost units one
	// virtual second of CPU absorbs.
	UnitsPerSecond Units
	spent          Units
	byCat          [numCategories]Units
}

// NewClock returns a clock for the given capacity.
func NewClock(unitsPerSecond Units) *Clock {
	return &Clock{UnitsPerSecond: unitsPerSecond}
}

// Charge records uncategorized work (counted under CatRoute's bookkeeping
// bucket).
func (c *Clock) Charge(u Units) { c.ChargeCat(CatRoute, u) }

// ChargeCat records work under a category.
func (c *Clock) ChargeCat(cat Category, u Units) {
	c.spent += u
	c.byCat[cat] += u
}

// Breakdown returns the per-category shares of all charged work (fractions
// of Spent; zero map when nothing was charged).
func (c *Clock) Breakdown() map[string]float64 {
	out := make(map[string]float64, int(numCategories))
	if c.spent == 0 {
		return out
	}
	for cat := Category(0); cat < numCategories; cat++ {
		out[cat.String()] = float64(c.byCat[cat] / c.spent)
	}
	return out
}

// Spent returns total work charged.
func (c *Clock) Spent() Units { return c.spent }

// Seconds converts total work to virtual seconds.
func (c *Clock) Seconds() float64 { return float64(c.spent / c.UnitsPerSecond) }

// MemoryMeter tracks the simulated resident set of a run as named
// components whose sizes are re-polled on demand (states, assessors,
// queues). Exceeding the cap is the run-ending OOM condition.
type MemoryMeter struct {
	CapBytes   int
	components []component
}

type component struct {
	name string
	size func() int
}

// NewMemoryMeter returns a meter with the given cap; cap <= 0 disables the
// OOM check.
func NewMemoryMeter(capBytes int) *MemoryMeter {
	return &MemoryMeter{CapBytes: capBytes}
}

// Register adds a component whose current size the meter polls.
func (m *MemoryMeter) Register(name string, size func() int) {
	m.components = append(m.components, component{name: name, size: size})
}

// Used returns the current total resident size.
func (m *MemoryMeter) Used() int {
	total := 0
	for _, c := range m.components {
		total += c.size()
	}
	return total
}

// OverCap reports whether the resident set exceeds the cap.
func (m *MemoryMeter) OverCap() bool {
	return m.CapBytes > 0 && m.Used() > m.CapBytes
}

// Breakdown renders the per-component sizes for diagnostics.
func (m *MemoryMeter) Breakdown() string {
	s := ""
	for i, c := range m.components {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", c.name, c.size())
	}
	return s
}
