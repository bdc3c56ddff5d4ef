package workload

import "context"

// ProgressFunc receives in-flight run progress: done program
// instructions out of the run's total (warmup included). Callbacks
// arrive on the simulation goroutine at the cancellation-poll
// cadence (every ctxCheckEvery program instructions) plus once at
// completion; they must be fast and must not call back into the
// machine.
type ProgressFunc func(done, total uint64)

// progressKey is the context key for the run-progress callback.
type progressKey struct{}

// WithProgress returns a context that makes Runner.RunTo report its
// instruction progress to fn. The service's SSE job streams are fed
// this way; passing progress through the context keeps RunTo's
// signature — and every existing call site — unchanged.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the callback (nil when absent).
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}
