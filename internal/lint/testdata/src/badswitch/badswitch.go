// Package badswitch is a cclint test fixture. Every construct in this file
// is deliberately wrong (or deliberately suppressed) and lint_test.go
// asserts the exact set of findings; it is excluded from normal builds by
// living under testdata.
package badswitch

import (
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
)

// NonExhaustive switches over protocol.MsgType without covering every
// message and without a default: flagged by switch-enum.
func NonExhaustive(t protocol.MsgType) int {
	switch t {
	case protocol.MsgReadReq:
		return 1
	case protocol.MsgReadExReq:
		return 2
	}
	return 0
}

// SilentDefault swallows unknown handlers instead of panicking: flagged by
// switch-enum.
func SilentDefault(h protocol.Handler) int {
	switch h {
	case protocol.HBusReadRemote:
		return 1
	default:
		return 0
	}
}

// NoopCallback schedules an engine event whose body performs no call or
// send: flagged by sched-noop.
func NoopCallback(eng *sim.Engine) {
	x := 0
	eng.At(5, sim.Func(func() { x++ }))
	_ = x
}

// NoopGrant hands a resource a grant whose body performs no call or send:
// flagged by sched-noop.
func NoopGrant(r *sim.Resource) {
	x := 0
	r.Acquire(5, sim.Func(func() { x++ }))
	_ = x
}

// Suppressed demonstrates a justified suppression: the finding is silenced
// because the directive names the check and gives a reason.
func Suppressed(t protocol.MsgType) int {
	//cclint:ignore switch-enum fixture demonstrating a justified suppression
	switch t {
	case protocol.MsgReadReq:
		return 1
	}
	return 0
}

// Bare carries a reasonless nolint: flagged by nolint-reason.
func Bare() {} //nolint

// Reasonless is a cclint directive with no reason: flagged by
// ignore-reason (and it suppresses nothing).
//
//cclint:ignore switch-enum
func Reasonless() {}

// Typoed names an unknown check, so it suppresses nothing: flagged by
// ignore-unknown.
//
//cclint:ignore switchenum the check is really called switch-enum
func Typoed() {}
