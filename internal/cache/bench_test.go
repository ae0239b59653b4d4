package cache

import "testing"

// filledL2 returns the base configuration's L2 (1 MB, 4-way, 128-byte
// lines) with every way filled, the lines it holds in a scattered order,
// the handles of their ways in the same order, and as many lines it does
// not hold, each in a filled set. The order visits every set with a stride
// that defeats the host's prefetcher, as a run's references to many lines
// do.
func filledL2() (c *Cache, held []uint64, ways []Way, absent []uint64) {
	const lineSize = 128
	c = New(1<<20, 4, lineSize)
	n := c.Sets() * c.Assoc()
	for i := 0; i < n; i++ {
		c.Insert(uint64(i)*lineSize, Shared)
	}
	for i := 0; i < n; i++ {
		line := uint64(i*2654435761%n) * lineSize // an odd multiplier permutes 0..n-1
		w, _ := c.Lookup(line)
		held = append(held, line)
		ways = append(ways, w)
		absent = append(absent, line+uint64(n)*lineSize)
	}
	return c, held, ways, absent
}

var sink uint64

// BenchmarkL2 reports the host cost of the three ways a processor reaches
// its L2: a hit by line (a set search, then the value read through the way
// found), a hit through a handle (the L1 hit's path: check that the way
// holds the line, mark it used, read its value) and a lookup of a line the
// cache does not hold (a snoop of a line the processor lacks).
func BenchmarkL2(b *testing.B) {
	c, held, ways, absent := filledL2()
	mask := len(held) - 1
	b.Run("hit-by-line", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, _ := c.Touch(held[i&mask])
			sink += c.Word(w)
		}
	})
	b.Run("hit-by-handle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := ways[i&mask]
			if !c.Holds(w, held[i&mask]) {
				b.Fatal("handle lost its line")
			}
			c.Use(w)
			sink += c.Word(w)
		}
	})
	b.Run("absent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, st := c.Lookup(absent[i&mask]); st != Invalid {
				b.Fatal("absent line found")
			}
		}
	})
}
