package sim

// Resource models a unit-capacity, serially-occupied hardware resource such
// as a bus, a memory bank, a network port, or a protocol engine. Users
// Acquire the resource with a desired hold time; the resource grants requests
// in FIFO order and invokes the grant callback at the cycle the resource
// becomes theirs. The sampler reads the accumulated busy time, and the
// sampler and stall snapshots read the next free cycle as a backlog.
// Components hold their resources by value, made with MakeResource.
type Resource struct {
	eng *Engine

	// freeAt is the first cycle at which the resource is idle.
	freeAt Time
	// busy is the total cycles held.
	busy Time
}

// MakeResource returns an idle resource bound to an engine.
func MakeResource(eng *Engine) Resource {
	return Resource{eng: eng}
}

// Acquire requests the resource for hold cycles starting as soon as it is
// free (FIFO). grant runs at the cycle the hold begins, so the engine's Now
// inside it is the start time. Acquire returns the time at which the hold
// will begin.
func (r *Resource) Acquire(hold Time, grant func()) Time {
	return r.AcquireAt(r.eng.Now(), hold, grant)
}

// AcquireAt is like Acquire but the request is considered to arrive at the
// given time rather than now. It is used when a model component decides at
// time t that a resource will be needed at t+d. On a sharded engine a
// request drained at a window boundary may carry an arrival earlier than
// this shard's local clock (which has already run ahead within the window);
// the stated arrival is kept, so occupancy matches the serial run.
func (r *Resource) AcquireAt(arrive, hold Time, grant func()) Time {
	start := r.freeAt
	if start < arrive {
		start = arrive
	}
	r.freeAt = start + hold
	r.busy += hold
	if grant != nil {
		r.eng.At(start, grant)
	}
	return start
}

// FreeAt reports the first cycle at which the resource is currently expected
// to be idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Busy returns total cycles the resource has been held.
func (r *Resource) Busy() Time { return r.busy }
