package main

import (
	"fmt"
	"sync/atomic"

	"amri/internal/tuple"
)

// digest folds a join result set into an order-independent fingerprint:
// the wrapping sum of one hash per result plus the result count. Both are
// commutative, so it needs no lock — pipeline.Config.OnResult calls add
// concurrently from every probe worker.
type digest struct {
	sum atomic.Uint64
	n   atomic.Uint64
}

// add hashes (stream, seq, ts) of every part. Parts is indexed by stream,
// so the walk order is canonical whatever route built the result.
func (d *digest) add(c *tuple.Composite) {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range c.Parts {
		if p == nil {
			continue
		}
		x := uint64(p.Stream+1)*0xbf58476d1ce4e5b9 ^ p.Seq*0x94d049bb133111eb ^ uint64(p.TS)<<17
		x ^= x >> 31
		x *= 0xd6e8feb86659fd93
		x ^= x >> 29
		h = (h ^ x) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	d.sum.Add(h)
	d.n.Add(1)
}

func (d *digest) count() uint64 { return d.n.Load() }

func (d *digest) String() string {
	return fmt.Sprintf("%016x-%d", d.sum.Load(), d.n.Load())
}
