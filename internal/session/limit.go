package session

import (
	"context"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// LimitRegistry returns a registry proxying reg through a shared
// invocation pool of the given width: at most limit invocations are in
// flight across every concurrent session, whatever each engine's own
// Options.InvokeWorkers asks for. It is the serving-side counterpart of
// the engine's per-evaluation pool — one tenant's parallel batch cannot
// monopolise the providers that every other tenant shares.
//
// The wrapper composes with the response cache exactly like Cache.Wrap:
// sessions use cache.Wrap(LimitRegistry(base, n, reg)) so cache hits are
// answered without consuming a pool slot, and only true misses queue.
// The inflight gauge (axml_invocations_inflight) exposes the pool's
// instantaneous occupancy. limit < 1 returns reg unchanged.
func LimitRegistry(reg *service.Registry, limit int, metrics *telemetry.Registry) *service.Registry {
	if limit < 1 {
		return reg
	}
	slots := make(chan struct{}, limit)
	inflight := metrics.Gauge(telemetry.MetricInvokeInflight)
	return reg.Wrap(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			slots <- struct{}{}
			inflight.Add(1)
			resp, err := next(ctx, params, pushed)
			inflight.Add(-1)
			<-slots
			return resp, err
		}
	})
}
