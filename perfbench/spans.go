package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanLog keeps the traced run's benchmark-side spans in memory: pass on
// track 0, and on each worker's track its cells, each split into setup, run
// and verify. Spans are recorded around the benchmark's calls into the
// simulator, never inside it. A nil *spanLog records nothing.
type spanLog struct {
	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one Chrome trace_event complete ("X") event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the run began
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (l *spanLog) add(name string, track int, start, dur time.Duration, args map[string]any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, traceEvent{Name: name, Ph: "X", Ts: micros(start), Dur: micros(dur), Pid: 1, Tid: track, Args: args})
	l.mu.Unlock()
}

// addCell records a cell span and its setup, run and verify children.
func (l *spanLog) addCell(c *cell) {
	if l == nil {
		return
	}
	args := map[string]any{"cell": c.name}
	if c.err != nil {
		args["error"] = c.err.Error()
	}
	l.add("cell", c.lane, c.start, c.wall(), args)
	at := c.start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"setup", c.setup}, {"run", c.run}, {"verify", c.verify}} {
		l.add(ph.name, c.lane, at, ph.d, map[string]any{"cell": c.name})
		at += ph.d
	}
}

// write saves the spans as a Chrome trace JSON file (chrome://tracing,
// Perfetto).
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{l.events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
