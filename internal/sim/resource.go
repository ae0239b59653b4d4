package sim

// Resource models a unit-capacity, serially-occupied hardware resource such
// as a bus, a memory bank, a network port, or a protocol engine. Users
// Acquire the resource with a desired hold time; the resource grants requests
// in FIFO order and invokes the grant callback at the cycle the resource
// becomes theirs. Occupancy and queueing statistics are accumulated for the
// utilization and queueing-delay columns of Table 6 / Table 7.
type Resource struct {
	eng  *Engine
	name string

	// freeAt is the first cycle at which the resource is idle.
	freeAt Time

	// Statistics.
	busy       Time   // total cycles held
	grants     uint64 // number of acquisitions
	waitTotal  Time   // total queueing delay across grants
	lastArrive Time   // most recent arrival, for inter-arrival tracking
	interTotal Time   // sum of inter-arrival gaps
	interN     uint64 // number of gaps summed
}

// NewResource creates a resource bound to an engine. The name is used in
// reports only.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's report name.
func (r *Resource) Name() string { return r.name }

// Acquire requests the resource for hold cycles starting as soon as it is
// free (FIFO). grant runs at the cycle the hold begins, so the engine's Now
// inside it is the start time. Acquire returns the time at which the hold
// will begin.
func (r *Resource) Acquire(hold Time, grant func()) Time {
	return r.AcquireAt(r.eng.Now(), hold, grant)
}

// AcquireAt is like Acquire but the request is considered to arrive at the
// given (current or future) time rather than now. It is used when a model
// component decides at time t that a resource will be needed at t+d.
func (r *Resource) AcquireAt(arrive, hold Time, grant func()) Time {
	// On a sharded engine a request drained at a window boundary may carry
	// an arrival earlier than this shard's local clock (which has already
	// run ahead within the window); clamping it would change occupancy
	// statistics relative to the serial run, so the stated arrival is kept.
	// Serial engines keep the clamp as a safety net for callers that
	// computed an arrival in the past.
	if arrive < r.eng.Now() && !r.eng.Sharded() {
		arrive = r.eng.Now()
	}
	r.noteArrival(arrive)
	start := r.freeAt
	if start < arrive {
		start = arrive
	}
	r.freeAt = start + hold
	r.busy += hold
	r.grants++
	r.waitTotal += start - arrive
	if grant != nil {
		r.eng.At(start, grant)
	}
	return start
}

// FreeAt reports the first cycle at which the resource is currently expected
// to be idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

func (r *Resource) noteArrival(t Time) {
	if r.grants > 0 {
		gap := t - r.lastArrive
		if gap >= 0 {
			r.interTotal += gap
			r.interN++
		}
	}
	r.lastArrive = t
}

// Busy returns total cycles the resource has been held.
func (r *Resource) Busy() Time { return r.busy }

// Grants returns the number of acquisitions.
func (r *Resource) Grants() uint64 { return r.grants }

// WaitTotal returns the cumulative queueing delay over all grants.
func (r *Resource) WaitTotal() Time { return r.waitTotal }

// MeanWait returns the average queueing delay per grant in cycles.
func (r *Resource) MeanWait() float64 {
	if r.grants == 0 {
		return 0
	}
	return float64(r.waitTotal) / float64(r.grants)
}

// MeanInterArrival returns the mean gap between successive arrivals in
// cycles, or 0 if fewer than two arrivals occurred.
func (r *Resource) MeanInterArrival() float64 {
	if r.interN == 0 {
		return 0
	}
	return float64(r.interTotal) / float64(r.interN)
}

// Utilization returns busy time as a fraction of the elapsed time.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / float64(elapsed)
}
