package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
)

// exchangeCounter is a core.Observer that is also a transport.Observer,
// so the engine wraps every endpoint with the observing wrapper.
type exchangeCounter struct{ exchanges atomic.Int64 }

func (*exchangeCounter) OnSuperstep(core.SuperstepSpan) {}
func (*exchangeCounter) ObserveStepTrials(int64)        {}
func (*exchangeCounter) ObserveQueryBatch(int64)        {}
func (*exchangeCounter) ObserveFramePayload(int)        {}
func (c *exchangeCounter) ObserveExchange(time.Duration, int, int64) {
	c.exchanges.Add(1)
}

// TestWrappedEndpointsKeepLocalPath: observing or bounding exchanges must
// leave an in-process run on the zero-copy SendLocal migration path. A
// run that fell back to serialized migrations would send walker bytes,
// so BytesSent must match the unwrapped run exactly, and so must every
// path.
func TestWrappedEndpointsKeepLocalPath(t *testing.T) {
	g := gen.UniformDegree(400, 6, 41)
	cfg := func() core.Config {
		return core.Config{
			Graph:       g,
			Algorithm:   alg.DeepWalk(20, false),
			NumWalkers:  400,
			NumNodes:    2,
			Seed:        43,
			RecordPaths: true,
		}
	}
	base, err := core.Run(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if base.Counters.Messages == 0 {
		t.Fatal("baseline run exchanged no messages; the check would be vacuous")
	}

	obs := &exchangeCounter{}
	for _, tc := range []struct {
		name string
		edit func(*core.Config)
	}{
		{"net timeout", func(c *core.Config) { c.NetTimeout = time.Minute }},
		{"transport observer", func(c *core.Config) { c.Observer = obs }},
		{"both", func(c *core.Config) { c.NetTimeout = time.Minute; c.Observer = obs }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg()
			tc.edit(&c)
			res, err := core.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.BytesSent != base.Counters.BytesSent {
				t.Fatalf("BytesSent %d, unwrapped run %d: migrations left the SendLocal path",
					res.Counters.BytesSent, base.Counters.BytesSent)
			}
			if len(res.Paths) != len(base.Paths) {
				t.Fatalf("path count %d != %d", len(res.Paths), len(base.Paths))
			}
			for w := range base.Paths {
				a, b := base.Paths[w], res.Paths[w]
				if len(a) != len(b) {
					t.Fatalf("walker %d: length %d != %d", w, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("walker %d diverged at step %d", w, i)
					}
				}
			}
		})
	}
	if obs.exchanges.Load() == 0 {
		t.Fatal("the transport observer saw no exchange: it was never attached")
	}
}
