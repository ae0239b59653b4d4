package sim

// Resource models a unit-capacity, serially-occupied hardware resource such
// as a bus, a memory bank, a network port, or a protocol engine. Users
// Acquire the resource with a desired hold time; the resource grants requests
// in FIFO order and fires the grant action at the cycle the resource
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
// free (FIFO). grant, unless nil, fires at the cycle the hold begins, so the
// engine's Now inside it is the start time. Acquire returns the time at
// which the hold will begin.
func (r *Resource) Acquire(hold Time, grant Action) Time {
	return r.AcquireAt(r.eng.Now(), hold, grant)
}

// AcquireAt is like Acquire but the request is considered to arrive at the
// given time rather than now. It is used when a model component decides at
// time t that a resource will be needed at t+d. On a sharded engine a
// request drained at a window boundary may carry an arrival earlier than
// this shard's local clock (which has already run ahead within the window);
// the stated arrival is kept, so occupancy matches the serial run.
func (r *Resource) AcquireAt(arrive, hold Time, grant Action) Time {
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

// FreeList is a stack of idle objects of one kind, for components that
// recycle what they allocate instead of leaving it to the collector. Get
// pops the object Put last, so the most recently used object is reused
// first. A free list belongs to one engine: nothing here is safe for
// concurrent use.
type FreeList[T any] struct {
	idle []*T
}

// Get pops an idle object, or returns nil when the list is empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return x
}

// firstIdle is the room a free list reserves on its first Put: a short
// run's lists peak at a few idle objects, so reserving room for 16 at once
// spares them the 1, 2, 4, 8, 16 growth of a plain append.
const firstIdle = 16

// Put returns an idle object to the list. The first Put reserves room for
// firstIdle objects.
func (l *FreeList[T]) Put(x *T) {
	if l.idle == nil {
		l.idle = make([]*T, 0, firstIdle)
	}
	l.idle = append(l.idle, x)
}

// Len returns the number of idle objects on the list.
func (l *FreeList[T]) Len() int { return len(l.idle) }
