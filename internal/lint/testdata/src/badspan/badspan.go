// Package badspan is a lint fixture for the span-pair analysis: one stage
// is begun and never ended in this file, one stage is properly paired, one
// stage is ended without a begin (legal), and one call passes a
// non-constant stage (outside the rule).
package badspan

import "ccnuma/internal/obs"

// Unpaired begins the stall stage and never closes it — flagged.
func Unpaired(s *obs.Tracer) {
	s.SpanBegin(1, obs.StageStall, 0, 10)
	s.SpanEnd(1, obs.StageBus, 0, 20)
}

// Paired begins and ends the backoff stage — silent.
func Paired(s *obs.Tracer) {
	s.SpanBegin(2, obs.StageBackoff, 0, 10)
	s.SpanEnd(2, obs.StageBackoff, 0, 20)
}

// EndOnly closes a stage whose entry is another component's exit — silent.
func EndOnly(s *obs.Tracer) {
	s.SpanEnd(3, obs.StageMem, 0, 30)
}

// Dynamic passes a non-constant stage — outside the rule.
func Dynamic(s *obs.Tracer, st obs.Stage) {
	s.SpanBegin(4, st, 0, 40)
}
