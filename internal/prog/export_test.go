package prog

// RunAheadLimit is the run-ahead limit programs run with.
const RunAheadLimit = runAheadLimit

// SetRunAhead makes Put park once n operations are buffered, for tests
// that check results do not depend on the limit, and returns a function
// restoring the previous limit.
func SetRunAhead(n int) (restore func()) {
	prev := runAhead
	runAhead = n
	return func() { runAhead = prev }
}
