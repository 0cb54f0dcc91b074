// Fixture for the ctxflow analyzer: a function holding a context must pass
// it down — not replace it with Background/TODO, and not call the plain
// variant of a function whose Ctx variant exists.
package ctxflow

import "context"

func Work(n int) int { return n * 2 }

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
	a := Work(n)                          // want "call drops the surrounding ctx; use WorkCtx"
	b := WorkCtx(context.Background(), n) // want "context.Background"
	return a + b
}

// Later re-rooted the chain with TODO.
func Later(ctx context.Context, n int) int {
	return WorkCtx(context.TODO(), n) // want "context.TODO"
}

type Store struct{}

func (s *Store) Get(k string) string                         { return k }
func (s *Store) GetCtx(ctx context.Context, k string) string { return k }

// Fetch drops ctx on a method whose receiver declares a Ctx variant.
func Fetch(ctx context.Context, s *Store, k string) string {
	return s.Get(k) // want "use Store.GetCtx"
}

// Spawn's closure captures ctx, so it shares the obligation.
func Spawn(ctx context.Context, n int) int {
	f := func() int {
		return Work(n) // want "call drops the surrounding ctx"
	}
	return f()
}

type Codec interface{ Do(n int) int }

// Use calls through an interface with no Ctx variant in its method set:
// clean, since there is no ctx-taking variant to call instead.
func Use(ctx context.Context, c Codec, n int) int {
	return c.Do(n)
}

// Detach deliberately hands work to a fresh context; the reviewed waiver
// suppresses the finding, so no diagnostic may surface here.
func Detach(ctx context.Context, n int) int {
	//lrmlint:ignore ctxflow deliberate detach: cleanup must outlive the request
	go WorkCtx(context.Background(), n)
	return n
}
