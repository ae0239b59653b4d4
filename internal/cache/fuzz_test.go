package cache

import "testing"

// refEntry is one valid line in the reference model.
type refEntry struct {
	state State
	stamp uint64 // recency: last Insert/Touch tick
	val   uint64 // the way's word
	way   Way    // the handle Insert returned when it placed the line
}

// staleHandle is the handle of a line that has since been evicted or
// invalidated.
type staleHandle struct {
	line uint64
	way  Way
}

// FuzzInsertEviction drives a small cache with a fuzzed op sequence and
// cross-checks every observable result against an independent reference
// model of set-indexed LRU replacement: inserts only evict when the
// target set is full, the victim is the least-recently-inserted-or-touched
// valid line of that set, Lookup never perturbs recency, and the resident
// population always matches the model exactly. The model also tracks each
// line's word: a newly placed line reads zero until SetWord, a present
// line keeps its word through Touch, SetState and a re-Insert, Insert
// returns the victim's word, and Lookup of an absent line returns NoWay.
//
// Every operation runs on two caches at once: one reaches each line by a
// lookup, the other through the handle Insert returned when it placed the
// line (Use for Touch, SetState(w, Invalid) for Invalidate), and both must
// agree with the model on states, words, victims and handles. A line stays
// in the way it was placed in until it leaves; after that its handle is
// stale, and Holds must report that the way no longer holds the line,
// unless the line was placed in that same way again.
func FuzzInsertEviction(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), []byte{0, 1, 1, 2, 0, 3, 3, 1, 5, 1})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{1, 0, 1, 1, 1, 2, 1, 3, 4, 0})
	f.Add(uint8(3), uint8(3), uint8(2), []byte{2, 7, 0, 7, 6, 7, 5, 7, 2, 7})
	f.Fuzz(func(t *testing.T, assocB, setsB, lineB uint8, ops []byte) {
		assoc := 1 + int(assocB)%4
		nsets := 1 << (int(setsB) % 4)
		lineSize := 1 << (4 + int(lineB)%3)
		byLine := New(nsets*assoc*lineSize, assoc, lineSize)
		byHandle := New(nsets*assoc*lineSize, assoc, lineSize)
		caches := [2]*Cache{byLine, byHandle}

		model := map[uint64]*refEntry{}
		var stale []staleHandle
		clock := uint64(0)
		setOf := func(line uint64) uint64 {
			return (line / uint64(lineSize)) % uint64(nsets)
		}
		// lruVictim returns the valid line of set s with the oldest
		// recency stamp, and how many valid lines the set holds.
		lruVictim := func(s uint64) (uint64, *refEntry, int) {
			var vl uint64
			var ve *refEntry
			n := 0
			for line, e := range model {
				if setOf(line) != s {
					continue
				}
				n++
				if ve == nil || e.stamp < ve.stamp {
					vl, ve = line, e
				}
			}
			return vl, ve, n
		}
		// leave moves line's handle to the stale list.
		leave := func(line uint64) {
			stale = append(stale, staleHandle{line, model[line].way})
			delete(model, line)
		}

		insertStates := []State{Shared, Exclusive, Modified, Owned}
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		nextVal := uint64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] % 9
			line := uint64(ops[i+1]) * uint64(lineSize)
			switch op {
			case 0, 1, 2, 3: // Insert in one of the four valid states
				st := insertStates[op]
				clock++
				var w Way
				for k, c := range caches {
					cw, victim, vst, vval := c.Insert(line, st)
					if k == 0 {
						w = cw
					} else if cw != w {
						t.Fatalf("insert of %#x placed it in way %v of one cache and %v of its twin", line, w, cw)
					}
					if e, ok := model[line]; ok {
						if vst != Invalid || vval != 0 {
							t.Fatalf("re-insert of %#x evicted %#x(%v) word %#x", line, victim, vst, vval)
						}
						if cw != e.way {
							t.Fatalf("re-insert of %#x moved it from way %v to %v", line, e.way, cw)
						}
						continue
					}
					wantL, wantE, valid := lruVictim(setOf(line))
					if valid < assoc {
						if vst != Invalid {
							t.Fatalf("insert of %#x into non-full set evicted %#x(%v)", line, victim, vst)
						}
						continue
					}
					if vst == Invalid {
						t.Fatalf("insert of %#x into full set evicted nothing", line)
					}
					if victim != wantL || vst != wantE.state || vval != wantE.val {
						t.Fatalf("insert of %#x evicted %#x(%v) word %#x, model expects %#x(%v) word %#x",
							line, victim, vst, vval, wantL, wantE.state, wantE.val)
					}
					if cw != wantE.way {
						t.Fatalf("insert of %#x took way %v, but the LRU line %#x was in way %v", line, cw, victim, wantE.way)
					}
					if setOf(victim) != setOf(line) {
						t.Fatalf("victim %#x not in the same set as %#x", victim, line)
					}
				}
				if e, ok := model[line]; ok {
					e.state, e.stamp = st, clock
					break
				}
				if wantL, _, valid := lruVictim(setOf(line)); valid == assoc {
					leave(wantL)
				}
				nextVal++
				for _, c := range caches {
					if v := c.Word(w); v != 0 {
						t.Fatalf("newly placed %#x reads word %#x, want 0", line, v)
					}
					c.SetWord(w, nextVal)
				}
				model[line] = &refEntry{state: st, stamp: clock, val: nextVal, way: w}
			case 4: // Touch
				want, wantWay := Invalid, NoWay
				e, ok := model[line]
				if ok {
					want, wantWay = e.state, e.way
					clock++
					e.stamp = clock
				}
				if w, got := byLine.Touch(line); w != wantWay || got != want {
					t.Fatalf("Touch(%#x) = %v, %v; model has %v in way %v", line, w, got, want, wantWay)
				}
				if ok {
					if got := byHandle.Use(e.way); got != want {
						t.Fatalf("Use(%v) of %#x = %v, model has %v", e.way, line, got, want)
					}
				} else if w, got := byHandle.Touch(line); w != NoWay || got != Invalid {
					t.Fatalf("Touch(%#x) of an absent line = %v, %v", line, w, got)
				}
			case 5: // Lookup (recency-neutral)
				want, wantWay := Invalid, NoWay
				if e, ok := model[line]; ok {
					want, wantWay = e.state, e.way
				}
				for _, c := range caches {
					if w, got := c.Lookup(line); w != wantWay || got != want {
						t.Fatalf("Lookup(%#x) = %v, %v; model has %v in way %v", line, w, got, want, wantWay)
					}
				}
			case 6: // Invalidate
				want := Invalid
				e, ok := model[line]
				if ok {
					want = e.state
					byHandle.SetState(e.way, Invalid)
					leave(line)
				} else if got := byHandle.Invalidate(line); got != Invalid {
					t.Fatalf("Invalidate(%#x) of an absent line = %v", line, got)
				}
				if got := byLine.Invalidate(line); got != want {
					t.Fatalf("Invalidate(%#x) = %v, model has %v", line, got, want)
				}
			case 7: // SetState on a present line (recency-neutral)
				if e, ok := model[line]; ok {
					e.state = insertStates[(i/2)%len(insertStates)]
					w, _ := byLine.Lookup(line)
					byLine.SetState(w, e.state)
					byHandle.SetState(e.way, e.state)
				}
			case 8: // SetWord on a present line
				if e, ok := model[line]; ok {
					nextVal++
					e.val = nextVal
					w, _ := byLine.Lookup(line)
					byLine.SetWord(w, nextVal)
					byHandle.SetWord(e.way, nextVal)
				}
			}
			for k, c := range caches {
				wantSt, wantWay := Invalid, NoWay
				e, ok := model[line]
				if ok {
					wantSt, wantWay = e.state, e.way
				}
				if w, st := c.Lookup(line); w != wantWay || st != wantSt {
					t.Fatalf("after op %d: cache %d Lookup(%#x) = %v, %v; model has %v in way %v",
						i/2, k, line, w, st, wantSt, wantWay)
				}
				if ok && (!c.Holds(e.way, line) || c.Word(e.way) != e.val) {
					t.Fatalf("after op %d: cache %d way %v holds %#x: %v, word %#x; model has word %#x",
						i/2, k, e.way, line, c.Holds(e.way, line), c.Word(e.way), e.val)
				}
				if c.Count() != len(model) {
					t.Fatalf("after op %d: cache %d Count() = %d, model holds %d", i/2, k, c.Count(), len(model))
				}
			}
			// A stale handle must not report its old line, unless the line
			// has been placed in the same way again, which makes it current.
			live := stale[:0]
			for _, h := range stale {
				if e, ok := model[h.line]; ok && e.way == h.way {
					continue
				}
				for k, c := range caches {
					if c.Holds(h.way, h.line) {
						t.Fatalf("after op %d: cache %d stale handle %v still holds %#x", i/2, k, h.way, h.line)
					}
				}
				live = append(live, h)
			}
			stale = live
		}

		// Final sweep: the resident lines, states, words and ways must
		// match exactly.
		for k, c := range caches {
			seen := 0
			c.Lines(func(w Way, line uint64, st State) bool {
				seen++
				e, ok := model[line]
				if !ok {
					t.Fatalf("cache %d holds %#x(%v), model does not", k, line, st)
				}
				if e.state != st || e.way != w {
					t.Fatalf("cache %d holds %#x in %v in way %v, model says %v in way %v", k, line, st, w, e.state, e.way)
				}
				if v := c.Word(w); v != e.val {
					t.Fatalf("cache %d holds %#x with word %#x, model says %#x", k, line, v, e.val)
				}
				return true
			})
			if seen != len(model) {
				t.Fatalf("cache %d enumerates %d lines, model holds %d", k, seen, len(model))
			}
		}
	})
}
