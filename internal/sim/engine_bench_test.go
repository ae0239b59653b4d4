package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineScheduleStep exercises the schedule/step hot loop: a
// steady-state queue of pending events where every executed event schedules
// a replacement at a pseudo-random future time. This is the engine's
// dominant workload shape under the machine model (every component re-arms
// itself as it progresses).
func BenchmarkEngineScheduleStep(b *testing.B) {
	const depth = 1024 // steady-state pending events
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	var fire Func
	fire = func() {
		e.After(Time(rng.Intn(64)+1), fire)
	}
	for i := 0; i < depth; i++ {
		e.At(Time(rng.Intn(64)), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained unexpectedly")
		}
	}
}

// BenchmarkEngineMixedHorizon mixes near events (the common case: bus and
// engine occupancies a few cycles out) with a tail of far-future events
// (timeouts) that wait in the far heap until they migrate into the ring.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	const depth = 4096
	rng := rand.New(rand.NewSource(2))
	e := NewEngine()
	var fire Func
	fire = func() {
		if rng.Intn(8) == 0 {
			e.After(Time(rng.Intn(100_000)+10_000), fire) // timeout-like
		} else {
			e.After(Time(rng.Intn(16)+1), fire) // occupancy-like
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(rng.Intn(64)), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained unexpectedly")
		}
	}
}

// BenchmarkEngineFarMigration re-arms every event 300-2 000 cycles out,
// past the ring's span (barrier costs, lock back-offs and fault delays), so
// each event waits in the far heap and migrates into the ring before it
// runs.
func BenchmarkEngineFarMigration(b *testing.B) {
	const depth = 1024
	rng := rand.New(rand.NewSource(3))
	e := NewEngine()
	var fire Func
	fire = func() {
		e.After(Time(rng.Intn(1_701)+300), fire)
	}
	for i := 0; i < depth; i++ {
		e.At(Time(rng.Intn(2_000)), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained unexpectedly")
		}
	}
}

// BenchmarkClusterWindow measures the sharded scheduling path end to end:
// per-event rank minting (one small allocation per event, absent from the
// serial path), window barriers, and cross-shard drain, on a 2-shard
// ping-pong at the lookahead horizon — the worst case for barrier overhead
// (one message per window).
func BenchmarkClusterWindow(b *testing.B) {
	const look = 14
	b.ReportAllocs()
	c := NewCluster(2, look)
	remaining := b.N
	var hop func(self, other *Engine) func()
	hop = func(self, other *Engine) func() {
		return func() {
			if remaining--; remaining <= 0 {
				return
			}
			arr := self.Now() + look
			self.DeferTo(other, Func(func() {
				other.At(arr, Func(hop(other, self)))
			}))
		}
	}
	c.Shard(0).At(0, Func(hop(c.Shard(0), c.Shard(1))))
	b.ResetTimer()
	if _, err := c.Run(0, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineSameCycleBurst measures bursts of same-cycle events (the
// FIFO tie-break path): snoop fan-outs and zero-latency handoffs schedule
// many events at the current time.
func BenchmarkEngineSameCycleBurst(b *testing.B) {
	e := NewEngine()
	nop := Func(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		t := e.Now() + 1
		for j := 0; j < 64; j++ {
			e.At(t, nop)
		}
		for j := 0; j < 64; j++ {
			if !e.Step() {
				b.Fatal("queue drained unexpectedly")
			}
		}
	}
}

// BenchmarkEngineRun measures RunChecked, the loop a machine runs in, on a
// queue shaped like the base 16x4 machine's: 64 chains of events that each
// re-arm 1-16 cycles out, one re-arm in 64 past the ring's span (a barrier
// cost or a request timeout), and one event in 8 fanning out a burst of
// four more at its own cycle (snoops, zero-latency handoffs). As in the
// model, every event is a typed action on a long-lived object: a chain
// re-arms itself, and a burst event is a step of the shared mix. The
// watchdog hook runs as often as the machine's. An xorshift generator draws
// the delays, so the loop costs little besides the engine. One op is one
// event.
func BenchmarkEngineRun(b *testing.B) {
	m := &runMix{e: NewEngine(), x: 4, left: b.N}
	chains := make([]runChain, 64)
	for i := range chains {
		chains[i].m = m
		m.e.At(Time(m.draw()%16), &chains[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.e.RunChecked(2_000_000, func(uint64) error { return nil }); err != nil {
		b.Fatal(err)
	}
}

// runMix is BenchmarkEngineRun's shared state: the engine, the xorshift
// state and the events left to run.
type runMix struct {
	e    *Engine
	x    uint64
	left int
}

func (m *runMix) draw() uint64 {
	m.x ^= m.x << 13
	m.x ^= m.x >> 7
	m.x ^= m.x << 17
	return m.x
}

// runBurst is one event of a same-cycle burst.
type runBurst runMix

func (s *runBurst) Fire() { s.left-- }

// runChain is one of BenchmarkEngineRun's 64 chains of events.
type runChain struct{ m *runMix }

func (c *runChain) Fire() {
	m := c.m
	if m.left--; m.left <= 0 {
		return
	}
	r := m.draw()
	switch {
	case r%64 == 0:
		m.e.After(Time(wheelSpan+r>>8%2_000), c)
	case r%8 == 1:
		for j := 0; j < 4; j++ {
			m.e.At(m.e.Now(), (*runBurst)(m))
		}
		fallthrough
	default:
		m.e.After(Time(r>>8%16+1), c)
	}
}
