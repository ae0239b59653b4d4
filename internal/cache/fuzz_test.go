package cache

import "testing"

// refEntry is one valid line in the reference model.
type refEntry struct {
	state State
	stamp uint64 // recency: last Insert/Touch tick
	val   uint64 // shadow value
}

// FuzzInsertEviction drives a small cache with a fuzzed op sequence and
// cross-checks every observable result against an independent reference
// model of set-indexed LRU replacement: inserts only evict when the
// target set is full, the victim is the least-recently-inserted-or-touched
// valid line of that set, Lookup never perturbs recency, and the resident
// population always matches the model exactly. The model also tracks each
// line's value: a newly placed line reads zero until SetValue, a present
// line keeps its value through Touch, SetState and a re-Insert, Insert
// returns the victim's value, and Peek of an absent line reads zero.
func FuzzInsertEviction(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), []byte{0, 1, 1, 2, 0, 3, 3, 1, 5, 1})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{1, 0, 1, 1, 1, 2, 1, 3, 4, 0})
	f.Add(uint8(3), uint8(3), uint8(2), []byte{2, 7, 0, 7, 6, 7, 5, 7, 2, 7})
	f.Fuzz(func(t *testing.T, assocB, setsB, lineB uint8, ops []byte) {
		assoc := 1 + int(assocB)%4
		nsets := 1 << (int(setsB) % 4)
		lineSize := 1 << (4 + int(lineB)%3)
		c := New(nsets*assoc*lineSize, assoc, lineSize)

		model := map[uint64]*refEntry{}
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
				victim, vst, vval := c.Insert(line, st)
				if e, ok := model[line]; ok {
					if vst != Invalid || vval != 0 {
						t.Fatalf("re-insert of %#x evicted %#x(%v) value %#x", line, victim, vst, vval)
					}
					e.state, e.stamp = st, clock
					break
				}
				wantL, wantE, valid := lruVictim(setOf(line))
				if valid < assoc {
					if vst != Invalid {
						t.Fatalf("insert of %#x into non-full set evicted %#x(%v)", line, victim, vst)
					}
				} else {
					if vst == Invalid {
						t.Fatalf("insert of %#x into full set evicted nothing", line)
					}
					if victim != wantL || vst != wantE.state || vval != wantE.val {
						t.Fatalf("insert of %#x evicted %#x(%v) value %#x, model expects %#x(%v) value %#x",
							line, victim, vst, vval, wantL, wantE.state, wantE.val)
					}
					if setOf(victim) != setOf(line) {
						t.Fatalf("victim %#x not in the same set as %#x", victim, line)
					}
					delete(model, victim)
				}
				if _, v := c.Peek(line); v != 0 {
					t.Fatalf("newly placed %#x reads value %#x, want 0", line, v)
				}
				nextVal++
				c.SetValue(line, nextVal)
				model[line] = &refEntry{state: st, stamp: clock, val: nextVal}
			case 4: // Touch
				want := Invalid
				if e, ok := model[line]; ok {
					want = e.state
					clock++
					e.stamp = clock
				}
				if got := c.Touch(line); got != want {
					t.Fatalf("Touch(%#x) = %v, model has %v", line, got, want)
				}
			case 5: // Lookup (recency-neutral)
				want := Invalid
				if e, ok := model[line]; ok {
					want = e.state
				}
				if got := c.Lookup(line); got != want {
					t.Fatalf("Lookup(%#x) = %v, model has %v", line, got, want)
				}
			case 6: // Invalidate
				want := Invalid
				if _, ok := model[line]; ok {
					want = model[line].state
					delete(model, line)
				}
				if got := c.Invalidate(line); got != want {
					t.Fatalf("Invalidate(%#x) = %v, model has %v", line, got, want)
				}
			case 7: // SetState on a present line (recency-neutral)
				if e, ok := model[line]; ok {
					e.state = insertStates[(i/2)%len(insertStates)]
					c.SetState(line, e.state)
				}
			case 8: // SetValue on a present line
				if e, ok := model[line]; ok {
					nextVal++
					e.val = nextVal
					c.SetValue(line, nextVal)
				}
			}
			wantSt, wantVal := Invalid, uint64(0)
			if e, ok := model[line]; ok {
				wantSt, wantVal = e.state, e.val
			}
			if st, v := c.Peek(line); st != wantSt || v != wantVal {
				t.Fatalf("after op %d: Peek(%#x) = %v, %#x; model has %v, %#x", i/2, line, st, v, wantSt, wantVal)
			}
			if c.Count() != len(model) {
				t.Fatalf("after op %d: Count() = %d, model holds %d", i/2, c.Count(), len(model))
			}
		}

		// Final sweep: the resident lines and states must match exactly.
		seen := 0
		c.Lines(func(line uint64, st State) bool {
			seen++
			e, ok := model[line]
			if !ok {
				t.Fatalf("cache holds %#x(%v), model does not", line, st)
			}
			if e.state != st {
				t.Fatalf("cache holds %#x in %v, model says %v", line, st, e.state)
			}
			if _, v := c.Peek(line); v != e.val {
				t.Fatalf("cache holds %#x with value %#x, model says %#x", line, v, e.val)
			}
			return true
		})
		if seen != len(model) {
			t.Fatalf("cache enumerates %d lines, model holds %d", seen, len(model))
		}
	})
}
