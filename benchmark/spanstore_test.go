package main

import (
	"reflect"
	"testing"

	"amri/internal/pipeline"
)

// The timing decorator must be transparent: a durable run through it and a
// run on the bare FileStore give the same digest and leave stores that
// audit identically.
func TestSpanStoreIsTransparent(t *testing.T) {
	w, err := lookupWorkload("durable")
	if err != nil {
		t.Fatal(err)
	}
	run := func(wrap bool) (string, *pipeline.StoreAudit, *spanStore) {
		fs, err := openStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		cfg := w.pipelineConfig(11, testTicks, 2, cfgShards)
		var dg digest
		cfg.OnResult = dg.add
		cfg.Durable = fs
		var ss *spanStore
		if wrap {
			ss = newSpanStore(fs)
			cfg.Durable = ss
		}
		if _, err := pipeline.Run(cfg); err != nil {
			t.Fatal(err)
		}
		audit, err := pipeline.AuditStore(cfg.Durable, cfg.Query.NumStreams())
		if err != nil {
			t.Fatal(err)
		}
		return dg.String(), audit, ss
	}
	bareDigest, bareAudit, _ := run(false)
	wrapDigest, wrapAudit, ss := run(true)
	if bareDigest != wrapDigest {
		t.Errorf("digest through the decorator %s, on the bare store %s", wrapDigest, bareDigest)
	}
	if !reflect.DeepEqual(bareAudit, wrapAudit) {
		t.Errorf("audit through the decorator %+v, on the bare store %+v", wrapAudit, bareAudit)
	}
	// It must also have seen every call: one WAL record per arrival plus one
	// per tick, and a Sync at every tick boundary at least.
	tuples := int64(testTicks * w.tuplesPerTick())
	if got := ss.appends.Load(); got != tuples+testTicks {
		t.Errorf("decorator counted %d appends, want %d", got, tuples+testTicks)
	}
	if n, p50, p95 := ss.syncQuantiles(); n < testTicks || p50 <= 0 || p95 < p50 {
		t.Errorf("sync quantiles n=%d p50=%v p95=%v", n, p50, p95)
	}
	if ss.saves.Load() == 0 || ss.busy() <= 0 {
		t.Errorf("decorator saw %d checkpoint saves, busy %v", ss.saves.Load(), ss.busy())
	}
}
