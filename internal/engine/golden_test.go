package engine

import (
	"slices"
	"testing"
)

// TestEngineGolden pins the virtual-clock tick loop across commits.
// TestDeterminism compares two runs inside one process and the amribench
// goldens never enter Engine.Run, so without this a refactor of the loop
// could move every simulated number and stay green. The literals were
// generated at commit 1a85a1b; a change that moves one has changed the
// simulator's behaviour and must say so.
func TestEngineGolden(t *testing.T) {
	incremental := quickConfig()
	incremental.IncrementalMigration = true
	for _, tc := range []struct {
		name         string
		run          RunConfig
		sys          System
		results      uint64
		probes       uint64
		retunes      int
		costUnits    float64
		peakMemBytes int
		endTick      int64
		finalConfigs []string
	}{
		{"amri", quickConfig(), AMRI(AssessCDIAHighest),
			2873, 107415, 10, 1.0442062500033948e+06, 772352, 120,
			[]string{"S0:IC[6,0,6]", "S1:IC[6,0,6]", "S2:IC[6,6,0]", "S3:IC[6,0,6]"}},
		{"static", quickConfig(), StaticBitmap(),
			2873, 107406, 3, 1.4974487500029756e+06, 576768, 120,
			[]string{"S0:IC[6,6,0]", "S1:IC[0,0,6]", "S2:IC[0,0,6]", "S3:IC[4,4,4]"}},
		{"hash-3", quickConfig(), HashSystem(3),
			2873, 107311, 20, 1.4570601000068886e+06, 1397184, 120,
			[]string{
				"S0:HashIndexStore{600 tuples, indices: <A,B,C> <A,B,*> <*,*,C>}",
				"S1:HashIndexStore{600 tuples, indices: <A,B,C> <A,*,C> <*,B,*>}",
				"S2:HashIndexStore{600 tuples, indices: <A,B,C> <*,B,*>}",
				"S3:HashIndexStore{600 tuples, indices: <A,B,C> <A,*,*>}",
			}},
		{"scan", quickConfig(), ScanSystem(),
			868, 51437, 0, 6.000065699991835e+06, 2958464, 120, nil},
		{"amri-incremental", incremental, AMRI(AssessCDIAHighest),
			2873, 107465, 10, 1.0510092000035245e+06, 968448, 120,
			[]string{"S0:IC[6,0,6]", "S1:IC[6,0,6]", "S2:IC[6,6,0]", "S3:IC[6,0,6]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRun(t, tc.run, tc.sys)
			if r.TotalResults != tc.results || r.Probes != tc.probes || r.Retunes != tc.retunes {
				t.Errorf("results/probes/retunes = %d/%d/%d, golden %d/%d/%d",
					r.TotalResults, r.Probes, r.Retunes, tc.results, tc.probes, tc.retunes)
			}
			if r.CostUnits != tc.costUnits {
				t.Errorf("CostUnits = %v, golden %v", r.CostUnits, tc.costUnits)
			}
			if r.PeakMemBytes != tc.peakMemBytes || r.EndTick != tc.endTick {
				t.Errorf("PeakMemBytes/EndTick = %d/%d, golden %d/%d",
					r.PeakMemBytes, r.EndTick, tc.peakMemBytes, tc.endTick)
			}
			if !slices.Equal(r.FinalConfigs, tc.finalConfigs) {
				t.Errorf("FinalConfigs = %q, golden %q", r.FinalConfigs, tc.finalConfigs)
			}
		})
	}
}
