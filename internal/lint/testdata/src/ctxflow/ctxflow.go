// Fixture for the ctxflow analyzer: a function holding a context must pass
// it down, not replace it with Background/TODO.
package ctxflow

import "context"

func WorkCtx(ctx context.Context, n int) int {
	select {
	case <-ctx.Done():
		return 0
	default:
	}
	return n * 2
}

// Run is the entry layer: no ctx parameter, so starting a fresh context is
// legitimate. Clean.
func Run(n int) int {
	return RunCtx(context.Background(), n)
}

// RunCtx holds a context and must thread it.
func RunCtx(ctx context.Context, n int) int {
	a := WorkCtx(ctx, n)
	b := WorkCtx(context.Background(), n) // want "context.Background"
	return a + b
}

// Later re-rooted the chain with TODO.
func Later(ctx context.Context, n int) int {
	return WorkCtx(context.TODO(), n) // want "context.TODO"
}

// Spawn's closure captures ctx, so it shares the obligation.
func Spawn(ctx context.Context, n int) int {
	f := func() int {
		return WorkCtx(context.Background(), n) // want "context.Background"
	}
	return f()
}

// Detach deliberately hands work to a fresh context; the reviewed waiver
// suppresses the finding, so no diagnostic may surface here.
func Detach(ctx context.Context, n int) int {
	//lrmlint:ignore ctxflow deliberate detach: cleanup must outlive the request
	go WorkCtx(context.Background(), n)
	return n
}
