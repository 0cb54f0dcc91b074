// Package obsspan exercises the obsspan rule: spans opened by trace.Start
// must be ended on every return path, and trace.Start must not detach from
// a context already in reach.
package obsspan

import (
	"context"
	"errors"
)

var errFail = errors.New("fail")

// Minimal stand-in for lrm/internal/obs/trace. The rule is syntactic — a
// Start call through an identifier named trace triggers it — so the
// fixture stays stdlib-only. Start takes a context and returns (ctx, span).
type span struct{}

func (s *span) End()                   {}
func (s *span) SetBytes(in, out int64) {}

type tracer struct{}

func (tracer) Start(ctx context.Context, name string) (context.Context, *span) {
	return ctx, &span{}
}

var trace tracer

// goodDefer ends its span via defer: every exit is covered.
func goodDefer(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "good.defer")
	defer sp.End()
	if fail {
		return errFail
	}
	return nil
}

// goodExplicit ends the span lexically before each exit.
func goodExplicit(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "good.explicit")
	if fail {
		sp.End()
		return errFail
	}
	sp.End()
	return nil
}

// badEarlyReturn leaks the span on the error path.
func badEarlyReturn(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "bad.early") // want "span sp may leak"
	if fail {
		return errFail
	}
	sp.End()
	return nil
}

// badFallOff leaks the span when control falls off the end of the body.
func badFallOff(ctx context.Context) {
	_, sp := trace.Start(ctx, "bad.falloff") // want "span sp may leak"
	_ = sp
}

// badDropped discards both results outright.
func badDropped(ctx context.Context) {
	trace.Start(ctx, "bad.dropped") // want "result of trace.Start dropped"
}

// badBlank discards the span half of the pair; it can never be ended.
func badBlank(ctx context.Context) {
	_, _ = trace.Start(ctx, "bad.blank") // want "assigned to _"
}

// goodChild ends its child before the parent's defer fires.
func goodChild(ctx context.Context) {
	ctx, sp := trace.Start(ctx, "good.child")
	defer sp.End()
	_, cs := trace.Start(ctx, "good.child.inner")
	cs.SetBytes(1, 2)
	cs.End()
}

// badChild leaks the child span on the early return; the parent's defer
// does not cover it.
func badChild(ctx context.Context, fail bool) error {
	ctx, sp := trace.Start(ctx, "bad.child.parent")
	defer sp.End()
	_, cs := trace.Start(ctx, "bad.child.inner") // want "span cs may leak"
	if fail {
		return errFail
	}
	cs.End()
	return nil
}

// closureScopes: function literals are separate scopes, so a span opened
// inside a closure must be ended inside that closure.
func closureScopes(ctx context.Context) {
	ctx, sp := trace.Start(ctx, "closure.outer")
	defer sp.End()
	run(func() {
		_, inner := trace.Start(ctx, "closure.inner") // want "span inner may leak"
		_ = inner
	})
	run(func() {
		_, inner := trace.Start(ctx, "closure.ok")
		defer inner.End()
	})
}

func run(f func()) { f() }

// badOrphanParam has a context parameter in hand but starts the span from
// context.Background(), detaching it from the caller's trace.
func badOrphanParam(ctx context.Context) {
	_, sp := trace.Start(context.Background(), "bad.orphan.param") // want "orphans the span"
	defer sp.End()
	_ = ctx
}

// badOrphanChained has no context parameter, but an earlier trace.Start in
// the same scope already produced one; the second Background start begins
// a parentless tree instead of nesting under the first.
func badOrphanChained() {
	rctx, root := trace.Start(context.Background(), "orphan.root")
	defer root.End()
	_ = rctx
	_, child := trace.Start(context.Background(), "bad.orphan.child") // want "orphans the span"
	defer child.End()
}

// goodTraceRoot legitimately begins a trace: no context is in reach, so
// Background is the only possible parent.
func goodTraceRoot() {
	_, sp := trace.Start(context.Background(), "good.trace.root")
	defer sp.End()
}
