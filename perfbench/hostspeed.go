package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// The benchmark host is a virtual machine on a shared physical host, and its
// speed drifts with the other tenants' load: on the 2-vCPU machine the
// README describes, the same splash-base pass took 5.8 s in one run and 9.9 s
// in a run ten minutes later. The process's CPU time drifts with it, so the
// slowdown is not lost CPU but slower CPU (shared caches, memory bandwidth,
// sibling hyperthreads). No run length averages that away.
//
// The benchmark therefore times a fixed reference kernel, the calibration
// round below, between simulations, and reports every end-to-end time as
// what it would have been on a host where one round takes refRound:
//
//	reported = measured * refRound / mean(rounds timed among the measurements)
//
// where the rounds are those of the same pass for a pass's times, and those
// timed among the constructions for setup_s. A single round is noisy (half
// a round varies by 10-20% from one to the next on the machine the README
// describes), so a round is long, the scale is the mean of a pass's rounds,
// and each metric the median over passes; the scale removes the drift over
// minutes that dominates otherwise.
//
// The kernel is the benchmark's own code, so a change to the simulator
// cannot move it; it does the kinds of host work the simulator does (an
// event heap, map updates, small allocations, pointer chasing through a
// table larger than L2, and goroutine handoffs), so that the host's
// slowdowns slow it much as they slow a simulation.

// refRound is about the median time of one calibration round on the
// machine the README describes, with a quiet host. Only the scale of the
// reported times depends on it.
const refRound = 100 * time.Millisecond

const (
	calEvents  = 400_000 // events per round
	calPending = 1024    // events pending in the heap
	calTable   = 1 << 20 // pointer-chase table entries (4 MiB)
)

type calEvent struct{ t, seq, a, b uint64 }

// calChase is the pointer-chase table: one random cycle through all its
// entries, built once and only read afterwards.
var calChase = sync.OnceValue(func() []uint32 {
	perm := rand.New(rand.NewSource(1)).Perm(calTable)
	table := make([]uint32, calTable)
	for i, p := range perm {
		table[p] = uint32(perm[(i+1)%len(perm)])
	}
	return table
})

var calSink uint64

// calibrate collects the garbage left by the simulations before it, so that
// no collection runs during the round, then runs one calibration round and
// returns the round's wall time. The round runs under the pprof label
// perfbench=calibrate, which leafSamples leaves out of a traced run's layer
// shares.
func calibrate() time.Duration {
	runtime.GC()
	var d time.Duration
	pprof.Do(context.Background(), pprof.Labels(calLabel, "calibrate"), func(context.Context) {
		table := calChase()
		start := time.Now()
		calSink += calRound(table)
		d = time.Since(start)
	})
	return d
}

// calLabel is the pprof label key that marks calibration samples.
const calLabel = "perfbench"

// calRound is a small discrete-event loop: each event pops the earliest
// pending event, schedules a new one, updates a map entry and follows the
// chase table; every 4th event allocates, and every 64th hands a value to a
// second goroutine and waits for the reply.
func calRound(table []uint32) uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	defer func() {
		close(ping)
		<-done
	}()

	heap := make([]calEvent, 0, calPending+1)
	state := make(map[uint64]uint64, 4096)
	var live [256]*calEvent
	x, now, idx, sum := uint64(1), uint64(0), uint32(0), uint64(0)
	for i := uint64(0); i < calEvents; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap = calPush(heap, calEvent{t: now + x>>56, seq: i, a: x})
		if len(heap) > calPending {
			var e calEvent
			e, heap = calPop(heap)
			now = e.t
			sum += e.a
		}
		state[x>>52] += i
		idx = table[idx]
		if i%4 == 0 {
			live[i/4%uint64(len(live))] = &calEvent{t: now, seq: i, b: uint64(idx)}
		}
		if i%64 == 0 {
			ping <- sum
			sum = <-pong
		}
	}
	return sum + uint64(len(state)) + uint64(idx) + live[0].b
}

func calLess(a, b *calEvent) bool { return a.t < b.t || a.t == b.t && a.seq < b.seq }

func calPush(h []calEvent, e calEvent) []calEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !calLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func calPop(h []calEvent) (calEvent, []calEvent) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && calLess(&h[l], &h[s]) {
			s = l
		}
		if r := l + 1; r < n && calLess(&h[r], &h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, h
}
