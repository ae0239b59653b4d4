// Package badgo is a lint fixture: model and tool code must never spawn
// goroutines (simulation determinism depends on every event executing on
// the engine's single goroutine, and on results being committed in job
// order by internal/runner). The no-goroutine check must flag the go
// statement below.
package badgo

var results = make(chan int, 1)

// Flagged: a go statement outside internal/runner and the other sanctioned
// concurrency homes.
func spawn() int {
	go func() { results <- 1 }()
	return <-results
}
