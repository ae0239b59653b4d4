package sim

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

// Put returns an idle object to the list.
func (l *FreeList[T]) Put(x *T) { l.idle = append(l.idle, x) }

// Len returns the number of idle objects on the list.
func (l *FreeList[T]) Len() int { return len(l.idle) }
