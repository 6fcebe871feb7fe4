package tuner

import (
	"errors"
	"math"
	oldrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"amri/internal/bitindex"
	"amri/internal/cost"
	"amri/internal/query"
)

func tunerParams() cost.Params {
	// Large states and cheap hashing: scan costs dominate, matching the
	// regime of the paper's discussion examples.
	return cost.Params{LambdaD: 100, LambdaR: 100, Ch: 0.001, Cc: 1, Window: 60}
}

// table2CDIAStats is the Table II workload as CDIA (random combination)
// sees it: <A,B,*> folded into <A,*,*>, everything else intact.
func table2CDIAStats() []cost.APStat {
	return []cost.APStat{
		{P: query.PatternOf(0), Freq: 0.08},       // <A,*,*> 4% + <A,B,*> 4%
		{P: query.PatternOf(1), Freq: 0.10},       // <*,B,*>
		{P: query.PatternOf(2), Freq: 0.10},       // <*,*,C>
		{P: query.PatternOf(0, 2), Freq: 0.16},    // <A,*,C>
		{P: query.PatternOf(1, 2), Freq: 0.10},    // <*,B,C>
		{P: query.PatternOf(0, 1, 2), Freq: 0.46}, // <A,B,C>
	}
}

// table2CSRIAStats is the same workload after CSRIA deleted the two 4%
// patterns below the threshold.
func table2CSRIAStats() []cost.APStat {
	return []cost.APStat{
		{P: query.PatternOf(1), Freq: 0.10},
		{P: query.PatternOf(2), Freq: 0.10},
		{P: query.PatternOf(0, 2), Freq: 0.16},
		{P: query.PatternOf(1, 2), Freq: 0.10},
		{P: query.PatternOf(0, 1, 2), Freq: 0.46},
	}
}

// TestTable2OptimalConfigurations pins the optimizer to the paper's
// Section IV-C2/IV-D2 discussion: with the CDIA statistics the true optimal
// 4-bit IC is {A:1,B:1,C:2}; with CSRIA's reduced statistics it is
// {B:1,C:3}.
func TestTable2OptimalConfigurations(t *testing.T) {
	opt := Options{RequireFullBudget: true}
	p := tunerParams()

	cdia, cdiaCD, err := Exhaustive(3, 4, p, table2CDIAStats(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !cdia.Equal(bitindex.NewConfig(1, 1, 2)) {
		t.Fatalf("CDIA stats optimum = %v, want IC[1,1,2]", cdia)
	}
	if got := cost.CD(p, cdia, table2CDIAStats()); got != cdiaCD {
		t.Fatalf("Exhaustive score %g != CD of its config %g", cdiaCD, got)
	}

	csria, _, err := Exhaustive(3, 4, p, table2CSRIAStats(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !csria.Equal(bitindex.NewConfig(0, 1, 3)) {
		t.Fatalf("CSRIA stats optimum = %v, want IC[0,1,3]", csria)
	}
}

func TestGreedyMatchesExhaustiveOnTable2(t *testing.T) {
	p := tunerParams()
	opt := Options{RequireFullBudget: true}
	g, gcd := Greedy(3, 4, p, table2CDIAStats(), opt)
	e, ecd, _ := Exhaustive(3, 4, p, table2CDIAStats(), opt)
	if gcd > ecd*1.05 {
		t.Fatalf("greedy CD %g more than 5%% worse than exhaustive %g (g=%v e=%v)", gcd, ecd, g, e)
	}
}

func TestGreedyStopsWhenBitsDontHelp(t *testing.T) {
	// Only pattern constrains attribute 0; expensive hashing makes bits on
	// attribute 1 strictly harmful, and deep bits on attribute 0 stop
	// paying once the scan term is tiny.
	p := cost.Params{LambdaD: 100, LambdaR: 1, Ch: 10, Cc: 0.01, Window: 10}
	stats := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	cfg, _ := Greedy(2, 20, p, stats, Options{})
	if cfg.Bits[1] != 0 {
		t.Fatalf("greedy wasted bits on an unconstrained attribute: %v", cfg)
	}
	if cfg.TotalBits() == 20 {
		t.Fatalf("greedy should stop early when marginal gain vanishes: %v", cfg)
	}
}

// TestGreedyForcedPickScore pins the RequireFullBudget forced-pick branch:
// when no single bit improves C_D, greedy still spends the budget on the
// least-bad attribute, and the returned score reports the true (worse than
// current) cost of that configuration instead of hiding it.
func TestGreedyForcedPickScore(t *testing.T) {
	// Expensive hashing: any indexed attribute costs more in maintenance
	// than its scan savings, so every bit is a forced pick.
	p := cost.Params{LambdaD: 100, LambdaR: 1, Ch: 10, Cc: 0.01, Window: 10}
	stats := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	cfg, score := Greedy(2, 2, p, stats, Options{RequireFullBudget: true})
	if cfg.TotalBits() != 2 {
		t.Fatalf("full budget not spent under RequireFullBudget: %v", cfg)
	}
	if got := cost.CD(p, cfg, stats); got != score {
		t.Fatalf("returned score %g != CD of returned config %g", score, got)
	}
	empty := bitindex.Config{Bits: make([]uint8, 2)}
	if base := cost.CD(p, empty, stats); score <= base {
		t.Fatalf("forced pick should cost more than indexing nothing here (score %g, base %g) — regime lost, test needs a harsher cost table", score, base)
	}
}

func TestExhaustiveRespectsCaps(t *testing.T) {
	p := tunerParams()
	stats := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	cfg, _, err := Exhaustive(2, 6, p, stats, Options{MaxBitsPerAttr: []uint8{2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Bits[0] > 2 {
		t.Fatalf("cap violated: %v", cfg)
	}
}

func TestGreedyRespectsCaps(t *testing.T) {
	p := tunerParams()
	stats := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	cfg, _ := Greedy(2, 10, p, stats, Options{MaxBitsPerAttr: []uint8{3, 0}})
	if cfg.Bits[0] > 3 || cfg.Bits[1] != 0 {
		t.Fatalf("cap violated: %v", cfg)
	}
}

func TestExhaustiveRefusesHugeSpace(t *testing.T) {
	_, _, err := Exhaustive(16, 32, tunerParams(), nil, Options{})
	if !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("16 attrs x 32 bits should be refused with ErrSpaceTooLarge, got %v", err)
	}
}

// TestExhaustiveSpaceEstimateHonoursCaps: 16 attributes capped at 1 bit each
// is 2^16 allocations — tractable — but the uncapped estimate (33^16) used
// to refuse it.
func TestExhaustiveSpaceEstimateHonoursCaps(t *testing.T) {
	caps := make([]uint8, 16)
	for i := range caps {
		caps[i] = 1
	}
	stats := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	cfg, _, err := Exhaustive(16, 32, tunerParams(), stats, Options{MaxBitsPerAttr: caps})
	if err != nil {
		t.Fatalf("capped 16x1 space should be enumerable, got %v", err)
	}
	if cfg.Bits[0] != 1 {
		t.Fatalf("optimum should spend the one useful bit: %v", cfg)
	}
}

func TestExhaustiveRejectsInvalidBudget(t *testing.T) {
	if _, _, err := Exhaustive(3, bitindex.MaxTotalBits+1, tunerParams(), nil, Options{}); err == nil || errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("oversized budget must be a hard error, got %v", err)
	}
	if _, _, err := Exhaustive(3, -1, tunerParams(), nil, Options{}); err == nil {
		t.Fatal("negative budget must be a hard error")
	}
}

func TestExhaustiveFullBudget(t *testing.T) {
	p := tunerParams()
	stats := []cost.APStat{{P: query.PatternOf(0, 1), Freq: 1}}
	cfg, _, err := Exhaustive(2, 8, p, stats, Options{RequireFullBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TotalBits() != 8 {
		t.Fatalf("full budget not spent: %v", cfg)
	}
}

func TestControllerProposesOnlyWorthwhileMigrations(t *testing.T) {
	p := tunerParams()
	ctl := &Controller{Params: p, Budget: 4, MinGain: 0.05, UseExhaustive: true,
		Opt: Options{RequireFullBudget: true}}

	// Starting from the CSRIA-shaped config, CDIA stats justify moving.
	cur := bitindex.NewConfig(0, 1, 3)
	pr, err := ctl.Propose(cur, table2CDIAStats(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Migrate() {
		t.Fatal("controller should migrate to the true optimum")
	}
	if !pr.To.Equal(bitindex.NewConfig(1, 1, 2)) {
		t.Fatalf("proposed %v", pr.To)
	}

	// Already optimal: no migration.
	if pr2, _ := ctl.Propose(pr.To, table2CDIAStats(), 0); pr2.Migrate() {
		t.Fatal("controller should not churn at the optimum")
	}

	// No stats: keep.
	if pr3, _ := ctl.Propose(cur, nil, 0); pr3.Migrate() {
		t.Fatal("controller must keep current config without stats")
	}
}

func TestControllerHysteresis(t *testing.T) {
	p := tunerParams()
	// Huge MinGain: even a better config should be rejected.
	ctl := &Controller{Params: p, Budget: 4, MinGain: 0.99, UseExhaustive: true,
		Opt: Options{RequireFullBudget: true}}
	pr, err := ctl.Propose(bitindex.NewConfig(0, 1, 3), table2CDIAStats(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Migrate() {
		t.Fatal("hysteresis should suppress marginal migrations")
	}
	if pr.Decision != DecideKeep {
		t.Fatalf("decision = %v, want keep", pr.Decision)
	}
}

// TestProposePropagatesInvalidBudget is the error-swallowing regression: a
// budget past the bucket id used to fall back silently to Greedy (which
// would happily allocate it); now it surfaces.
func TestProposePropagatesInvalidBudget(t *testing.T) {
	ctl := &Controller{Params: tunerParams(), Budget: bitindex.MaxTotalBits + 8, UseExhaustive: true}
	if _, err := ctl.Propose(bitindex.NewConfig(1, 1, 2), table2CDIAStats(), 0); err == nil {
		t.Fatal("invalid budget must propagate out of Propose")
	}
}

// TestProposeFallsBackOnHugeSpace: the one Exhaustive failure greedy may
// absorb is ErrSpaceTooLarge.
func TestProposeFallsBackOnHugeSpace(t *testing.T) {
	stats := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	ctl := &Controller{Params: tunerParams(), Budget: 24, UseExhaustive: true}
	cur := bitindex.Config{Bits: make([]uint8, 16)}
	pr, err := ctl.Propose(cur, stats, 0)
	if err != nil {
		t.Fatalf("oversized space should degrade to greedy, got %v", err)
	}
	if !pr.Migrate() || pr.To.BitsFor(query.PatternOf(0)) == 0 {
		t.Fatalf("greedy fallback should still index the hot attribute: %+v", pr)
	}
}

// TestControllerCooldownHolds: immediately after a migration, a new
// worthwhile candidate is held for Cooldown passes.
func TestControllerCooldownHolds(t *testing.T) {
	p := tunerParams()
	statsA := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	statsB := []cost.APStat{{P: query.PatternOf(1), Freq: 1}}
	ctl := &Controller{Params: p, Budget: 4, UseExhaustive: true, Cooldown: 2}

	pr, err := ctl.Propose(bitindex.NewConfig(0, 0, 0), statsA, 0)
	if err != nil || !pr.Migrate() {
		t.Fatalf("first adoption should migrate: %+v err=%v", pr, err)
	}
	pr2, _ := ctl.Propose(pr.To, statsB, 0)
	if pr2.Decision != DecideCooldown {
		t.Fatalf("pass right after a migration should hold on cooldown, got %v", pr2.Decision)
	}
	sum := ctl.Summary()
	if sum.Migrations != 1 || sum.CooldownHolds != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestControllerThrashProtection is the oscillating-stats regression: the
// legacy policy flip-flops every window, the v2 controller adopts once and
// then holds (cooldown structurally blocks back-to-back moves, the
// flip-flop guard blocks the A->B->A return, and drift-shrunken horizons
// make chasing the oscillation uneconomical).
func TestControllerThrashProtection(t *testing.T) {
	// Probe-sparse regime: searches are rare relative to the stored state,
	// so relocating 8000 tuples to chase a mix that flips every window
	// costs more than the shrunken horizon can recoup. The first adoption
	// (from no index, before any drift is observed) still goes through.
	p := cost.Params{LambdaD: 100, LambdaR: 0.1, Ch: 0.001, Cc: 1, Window: 60}
	statsA := []cost.APStat{{P: query.PatternOf(0), Freq: 0.9}, {P: query.PatternOf(1), Freq: 0.1}}
	statsB := []cost.APStat{{P: query.PatternOf(1), Freq: 0.9}, {P: query.PatternOf(0), Freq: 0.1}}
	oscillate := func(ctl *Controller, passes int) int {
		migrations := 0
		cur := bitindex.NewConfig(0, 0)
		for i := 0; i < passes; i++ {
			stats := statsA
			if i%2 == 1 {
				stats = statsB
			}
			pr, err := ctl.Propose(cur, stats, 8000)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Migrate() {
				migrations++
				cur = pr.To
			}
		}
		return migrations
	}

	legacy := &Controller{Params: p, Budget: 4, MinGain: 0.02, UseExhaustive: true}
	v2 := &Controller{Params: p, Budget: 4, MinGain: 0.02, UseExhaustive: true,
		Horizon: 40, DriftSense: 4, Cooldown: 1, DrainRate: 64}

	const passes = 12
	lm := oscillate(legacy, passes)
	vm := oscillate(v2, passes)
	if lm < 2 {
		t.Fatalf("legacy controller should thrash on an oscillating mix, migrated %d times", lm)
	}
	if vm > 1 {
		t.Fatalf("v2 controller should adopt at most once under oscillation, migrated %d times", vm)
	}
	sum := v2.Summary()
	if sum.Holds() == 0 {
		t.Fatalf("v2 thrash protection never engaged: %+v", sum)
	}
}

// TestControllerUneconomicalMigration: a modest gain on a huge state is
// refused because relocation cost dwarfs what the horizon can amortize.
func TestControllerUneconomicalMigration(t *testing.T) {
	p := tunerParams()
	ctl := &Controller{Params: p, Budget: 4, MinGain: 0.01, UseExhaustive: true,
		Opt: Options{RequireFullBudget: true}, Horizon: 1e-3}
	pr, err := ctl.Propose(bitindex.NewConfig(0, 1, 3), table2CDIAStats(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Decision != DecideUneconomical {
		t.Fatalf("decision = %v, want uneconomical (migCost %.0f, gain %.2f, horizon %g)",
			pr.Decision, pr.MigCost, pr.Gain, pr.Horizon)
	}
	if pr.MigCost <= 0 {
		t.Fatal("migration cost should have been priced")
	}
}

// TestRecordDrainCalibratesAndAudits: realized drain work lands on the
// migration's ledger entry and recalibrates the per-tuple prior.
func TestRecordDrainCalibrates(t *testing.T) {
	p := tunerParams()
	ctl := &Controller{Params: p, Budget: 4, UseExhaustive: true,
		Horizon: 1e9, Cooldown: 1, DrainRate: 64}
	statsA := []cost.APStat{{P: query.PatternOf(0), Freq: 1}}
	pr, err := ctl.Propose(bitindex.NewConfig(0, 0, 0), statsA, 100)
	if err != nil || !pr.Migrate() {
		t.Fatalf("expected migration: %+v err=%v", pr, err)
	}
	ctl.RecordDrain(60, 120, false)
	ctl.RecordDrain(40, 80, true)
	sum := ctl.Summary()
	if sum.Completed != 1 || sum.RealizedTuples != 100 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.PerTupleCost <= 0 {
		t.Fatal("completed drain should calibrate the per-tuple cost")
	}
	led := ctl.Ledger()
	last := led[len(led)-1]
	if !last.Completed || last.RealizedTuples != 100 || last.RealizedHashes != 200 || last.RealizedCost <= 0 {
		t.Fatalf("ledger entry missing realized drain: %+v", last)
	}
	if sum.PredictedMigCost <= 0 || sum.RealizedMigCost <= 0 {
		t.Fatalf("predicted-vs-realized pair incomplete: %+v", sum)
	}
}

// TestRecordAbort: an aborted drain is accounted without poisoning the
// calibration.
func TestRecordAbort(t *testing.T) {
	ctl := &Controller{Params: tunerParams(), Budget: 4, UseExhaustive: true, Horizon: 1e9}
	pr, err := ctl.Propose(bitindex.NewConfig(0, 0), []cost.APStat{{P: query.PatternOf(0), Freq: 1}}, 10)
	if err != nil || !pr.Migrate() {
		t.Fatalf("expected migration: %+v err=%v", pr, err)
	}
	ctl.RecordDrain(5, 10, false)
	ctl.RecordAbort()
	sum := ctl.Summary()
	if sum.Aborted != 1 || sum.Completed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.PerTupleCost != 0 {
		t.Fatal("aborted drain must not calibrate the per-tuple cost")
	}
}

// greedyInstance expands a seed into one random tuning problem: random cost
// parameters, caps, budget, RequireFullBudget and pattern frequencies.
func greedyInstance(seed uint64) (numAttrs, budget int, p cost.Params, stats []cost.APStat, opt Options) {
	rng := rand.New(rand.NewPCG(seed, seed))
	p = cost.Params{LambdaD: 50 + float64(rng.IntN(200)), LambdaR: 10 + float64(rng.IntN(100)),
		Ch: 0.01 + rng.Float64(), Cc: 0.1 + rng.Float64(), Window: 10 + float64(rng.IntN(100))}
	numAttrs = 2 + rng.IntN(3)
	budget = 2 + rng.IntN(8)
	opt = Options{RequireFullBudget: rng.IntN(2) == 0}
	if rng.IntN(2) == 0 {
		// Random per-attribute caps; keep the instance satisfiable
		// under RequireFullBudget by capping at the budget floor.
		caps := make([]uint8, numAttrs)
		total := 0
		for i := range caps {
			caps[i] = uint8(1 + rng.IntN(budget))
			total += int(caps[i])
		}
		if total >= budget {
			opt.MaxBitsPerAttr = caps
		}
	}
	query.AllPatterns(numAttrs, func(ap query.Pattern) bool {
		if ap != 0 && rng.Float64() < 0.6 {
			stats = append(stats, cost.APStat{P: ap, Freq: rng.Float64()})
		}
		return true
	})
	return numAttrs, budget, p, stats, opt
}

// greedyVsExhaustive solves one instance both ways and checks the two
// clauses that hold universally: each returned score is the C_D of the
// returned configuration, and greedy never beats exhaustive. ratio is
// greedy's C_D over exhaustive's (0 for an empty or unsatisfiable instance).
func greedyVsExhaustive(seed uint64) (ratio float64, ok bool) {
	numAttrs, budget, p, stats, opt := greedyInstance(seed)
	if len(stats) == 0 {
		return 0, true
	}
	g, gcd := Greedy(numAttrs, budget, p, stats, opt)
	e, ecd, err := Exhaustive(numAttrs, budget, p, stats, opt)
	if err != nil {
		return 0, true
	}
	if cost.CD(p, g, stats) != gcd || cost.CD(p, e, stats) != ecd {
		return 0, false // returned scores must match the returned configs
	}
	return gcd / ecd, gcd+1e-9 >= ecd
}

// Property: on random instances — random caps, budgets and
// RequireFullBudget — greedy never beats exhaustive and both report the
// C_D of what they return. The generator is seeded: under a time-seeded
// quick.Check this test failed about one run in twenty on a third clause,
// greedy ≤ 1.25 × exhaustive, which is false on roughly one generated
// instance in 1500 — greedy's first-bit tie-break can open an attribute and
// pay its fixed C_h twice where exhaustive concentrates the bits. The table
// pins five such instances with their measured ratios, so a Greedy change
// that closes (or widens) the gap shows up here; the A2 ablation reports
// the typical case.
func TestGreedyWithinBoundOfExhaustive(t *testing.T) {
	f := func(seed uint64) bool {
		_, ok := greedyVsExhaustive(seed)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: oldrand.New(oldrand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		seed  uint64
		ratio float64
	}{
		{"caps [2,7], one pattern: IC[2,5] against IC[0,7]", 0x808c6956f8f6384b, 1.8308},
		{"uncapped, two attributes", 0x45e476c48ad3efab, 1.6616},
		{"three attributes, RequireFullBudget", 0x2ad8d5c67c05bf21, 1.6166},
		{"three attributes, caps [6,2,9]", 0x4f1759586cc63ca3, 1.6020},
		{"barely past the old bound", 0x538c50f10eed0e46, 1.2740},
	} {
		ratio, ok := greedyVsExhaustive(tc.seed)
		if !ok {
			t.Errorf("%s (seed %#x): a universal clause failed", tc.name, tc.seed)
		}
		if math.Abs(ratio-tc.ratio) > 5e-5 {
			t.Errorf("%s (seed %#x): greedy/exhaustive = %.4f, recorded %.4f", tc.name, tc.seed, ratio, tc.ratio)
		}
	}
}

// Property: exhaustive with RequireFullBudget spends exactly the budget
// whenever the caps allow it.
func TestExhaustiveBudgetProperty(t *testing.T) {
	f := func(b uint8) bool {
		budget := int(b%10) + 1
		p := tunerParams()
		stats := []cost.APStat{{P: query.PatternOf(0, 1, 2), Freq: 1}}
		cfg, _, err := Exhaustive(3, budget, p, stats, Options{RequireFullBudget: true})
		return err == nil && cfg.TotalBits() == budget
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
