package verify

import (
	"context"
	"fmt"
	"sort"

	pool "ccnuma/internal/runner"
	"ccnuma/internal/sim"
)

// Phase B: serialized BFS edges never overlap two operations in time, so
// they cannot reach the transient interleavings where most protocol bugs
// live (an invalidation crossing a write-back, a fetch racing an upgrade).
// runRaces revisits every state found by phase A and, for every ordered
// pair of operations on two different processors, injects the second
// operation at a set of start offsets sampled from the event times of the
// first operation's solo execution — each offset lands the second op in a
// different window of the first op's transaction.

// opRecord tracks one racing operation's observable window and value.
type opRecord struct {
	line  uint64
	write bool
	start sim.Time
	end   sim.Time
	val   uint64
	done  bool
}

// runRaces drives phase B, appending to res. Races within one (state, s1)
// group fan out across c.Jobs workers (each race replays on its own rebuilt
// machine); results fold in the serial loop's order, so race counts,
// truncation, and violation order are identical for any Jobs value.
func runRaces(c *Config, states [][]Step, res *Result) {
	ops := c.allSteps()
	type raceJob struct {
		s2 Step
		d  sim.Time
	}
	for si, path := range states {
		for _, s1 := range ops {
			var offsets []sim.Time
			haveOffsets := false
			var group []raceJob
			for _, s2 := range ops {
				if s2.Proc == s1.Proc {
					continue
				}
				if !haveOffsets {
					offsets = soloOffsets(c, path, s1)
					haveOffsets = true
				}
				for _, d := range offsets {
					group = append(group, raceJob{s2: s2, d: d})
				}
			}
			if len(group) == 0 {
				continue
			}
			// Only races inside the remaining budget can execute; the fold
			// below re-applies the serial loop's budget check, which fires
			// exactly at the first job past the slice.
			remaining := c.MaxRaces - res.Races
			if remaining < 0 {
				remaining = 0
			}
			run := group
			if len(run) > remaining {
				run = group[:remaining]
			}
			s1 := s1
			path := path
			vios, _ := pool.Map(context.Background(), c.Jobs, len(run),
				func(j int) (*Violation, error) {
					_, vio := protect(func() (string, *Violation) {
						return "", raceRun(c, path, s1, run[j].s2, run[j].d)
					})
					return vio, nil
				})
			for j := range group {
				if res.Races >= c.MaxRaces {
					res.RacesTruncated = true
					return
				}
				if len(res.Violations) >= c.MaxViolations {
					return
				}
				res.Races++
				if vio := vios[j]; vio != nil {
					rs2 := group[j].s2
					rs2.Delay = group[j].d
					vio.Path = append(append([]Step{}, path...), s1, rs2)
					res.Violations = append(res.Violations, *vio)
				}
			}
		}
		if si%16 == 0 {
			c.logf("phase B: %d/%d states, %d races", si, len(states), res.Races)
		}
	}
}

// soloOffsets replays path, runs s1 alone while recording the simulated
// times at which events executed, and turns them into candidate injection
// offsets (each event time and the cycle after it). A violation here was
// already recorded by phase A, so it only degrades to the zero offset.
func soloOffsets(c *Config, path []Step, s1 Step) []sim.Time {
	var times []sim.Time
	_, vio := protect(func() (string, *Violation) {
		r, err := newRunner(c)
		if err != nil {
			return "", &Violation{Kind: "setup", Detail: err.Error()}
		}
		for _, s := range path {
			if v := r.applyStep(s, nil); v != nil {
				return "", v
			}
		}
		return "", r.applyStep(s1, &times)
	})
	if vio != nil || len(times) == 0 {
		return []sim.Time{0}
	}
	cand := make([]sim.Time, 0, 2*len(times))
	for _, t := range times {
		cand = append(cand, t, t+1)
	}
	return sampleOffsets(cand, c.MaxRaceOffsets)
}

// sampleOffsets dedups/sorts candidates and, when a cap is set, keeps an
// evenly spaced subset including the first and last offsets.
func sampleOffsets(cand []sim.Time, max int) []sim.Time {
	seen := map[sim.Time]bool{}
	var out []sim.Time
	for _, t := range cand {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if max < 0 || len(out) <= max || max < 2 {
		return out
	}
	sampled := make([]sim.Time, 0, max)
	last := sim.Time(-1)
	for i := 0; i < max; i++ {
		t := out[i*(len(out)-1)/(max-1)]
		if t != last {
			sampled = append(sampled, t)
			last = t
		}
	}
	return sampled
}

// raceRun replays path, then runs s1 (at quiescence time t0) racing s2
// (injected at t0+d on a different processor), checking the per-event
// invariants throughout and the concurrent value semantics at the end:
// a read must return either the last value written before it started or
// the value of a write whose window overlaps it, and the final memory
// state must reflect one of the admissible write serializations.
func raceRun(vc *Config, path []Step, s1, s2 Step, d sim.Time) *Violation {
	r, err := newRunner(vc)
	if err != nil {
		return &Violation{Kind: "setup", Detail: err.Error()}
	}
	for _, s := range path {
		if v := r.applyStep(s, nil); v != nil {
			return v
		}
	}
	prefix := map[uint64]uint64{}
	for k, v := range r.lastVal {
		prefix[k] = v
	}
	eng := r.M.Eng
	t0 := eng.Now()
	track := func(s Step, start sim.Time) *opRecord {
		line, write := r.lineFor(s)
		return &opRecord{line: line, write: write, start: start}
	}
	issue := func(s Step, rec *opRecord) {
		p := r.M.Procs[s.Proc]
		r.Access(s.Proc, rec.line, rec.write, func() {
			rec.done, rec.end = true, eng.Now()
			if rec.write {
				rec.val = p.LastWriteValue()
			} else {
				rec.val = p.LastReadValue()
			}
		})
	}
	recs := []*opRecord{track(s1, t0), track(s2, t0+d)}
	issue(s1, recs[0])
	eng.At(t0+d, sim.Func(func() { issue(s2, recs[1]) }))
	if v := r.Drain(nil); v != nil {
		return v
	}
	for _, rec := range recs {
		if !rec.done {
			return &Violation{Kind: "lost-op", Detail: fmt.Sprintf(
				"racing op on line %#x never completed (offset +%d)", rec.line, d)}
		}
	}
	// Value semantics per line of interest.
	for _, line := range r.lines {
		var writes, reads []*opRecord
		for _, rec := range recs {
			if rec.line != line {
				continue
			}
			if rec.write {
				writes = append(writes, rec)
			} else {
				reads = append(reads, rec)
			}
		}
		for _, rd := range reads {
			allowed := allowedReadValues(prefix[line], rd, writes)
			if !allowed[rd.val] {
				return &Violation{Kind: "stale-read", Detail: fmt.Sprintf(
					"racing read of line %#x over [%d,%d] observed %#x, allowed %v",
					line, rd.start, rd.end, rd.val, valueSet(allowed))}
			}
		}
		finals := allowedFinalValues(prefix[line], writes)
		actual, where := r.finalValue(line)
		if !finals[actual] {
			return &Violation{Kind: "lost-write", Detail: fmt.Sprintf(
				"line %#x settled to %#x (%s), allowed final values %v",
				line, actual, where, valueSet(finals))}
		}
		// Anchor the quiescent sweep on the value the race serialized to.
		r.lastVal[line] = actual
	}
	return r.Quiescent()
}

// allowedReadValues computes the set a racing read may legally return:
// the newest value written before the read began (or the pre-race value
// if none), plus any write whose window overlaps the read's.
func allowedReadValues(prefix uint64, rd *opRecord, writes []*opRecord) map[uint64]bool {
	base := prefix
	baseEnd := sim.Time(-1)
	allowed := map[uint64]bool{}
	for _, w := range writes {
		if w.end <= rd.start && w.end > baseEnd {
			base, baseEnd = w.val, w.end
		}
		if w.start <= rd.end && rd.start <= w.end {
			allowed[w.val] = true
		}
	}
	allowed[base] = true
	return allowed
}

// allowedFinalValues computes the values a line may legally hold once the
// race quiesces: the pre-race value if nothing wrote it, the later write
// if the windows are disjoint, either write if they overlap.
func allowedFinalValues(prefix uint64, writes []*opRecord) map[uint64]bool {
	if len(writes) == 0 {
		return map[uint64]bool{prefix: true}
	}
	finals := map[uint64]bool{}
	for _, w := range writes {
		ordered := false
		for _, w2 := range writes {
			if w2 != w && w2.start >= w.end {
				ordered = true // w completed strictly before w2 began
			}
		}
		if !ordered {
			finals[w.val] = true
		}
	}
	return finals
}

// valueSet renders an allowed-value set deterministically for messages.
func valueSet(m map[uint64]bool) []string {
	var out []string
	for v := range m {
		out = append(out, fmt.Sprintf("%#x", v))
	}
	sort.Strings(out)
	return out
}
