package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// FaultSpec configures deterministic fault injection. Probabilities are
// evaluated per invocation from a counter-derived stream, so the same
// seed and the same per-service invocation sequence produce the same
// faults — tests and benches can replay a flaky world exactly.
type FaultSpec struct {
	// Seed drives every random decision. Two injectors with equal specs
	// inject identical fault sequences.
	Seed int64
	// ErrorRate is the probability an invocation fails with a transient
	// fault.
	ErrorRate float64
	// TimeoutRate is the probability an invocation stalls: the fault is
	// Timeout-classed and consumes StallLatency of virtual time.
	TimeoutRate float64
	// PermanentRate is the probability an invocation fails with a
	// permanent (non-retryable) fault.
	PermanentRate float64
	// FailFirst makes the first N invocations of each service fail with
	// transient faults regardless of the rates — the classic
	// "fail-N-times-then-succeed" shape retry tests need.
	FailFirst int
	// LatencyJitter spreads successful invocations' latency uniformly
	// over ±LatencyJitter (clamped at zero).
	LatencyJitter time.Duration
	// StallLatency is the virtual cost of a timeout fault; 0 means ten
	// times the service's configured latency.
	StallLatency time.Duration
	// Services restricts injection to the named services; empty means
	// every service. Invocations of other services pass through
	// untouched (jitter included).
	Services []string
}

// FaultStats counts what an injector did.
type FaultStats struct {
	// Invocations counts calls that passed through the injector.
	Invocations int
	// Injected counts faults injected, by class.
	Transient, Timeouts, Permanents int
}

// Injected is the total number of injected faults.
func (s FaultStats) Injected() int { return s.Transient + s.Timeouts + s.Permanents }

// Faults is a deterministic fault injector wrapping a registry. Wrap
// returns a registry with identical service names and capabilities whose
// invocations fail, stall and jitter according to the spec. It is safe
// for concurrent use.
type Faults struct {
	spec    FaultSpec
	targets map[string]bool // nil means all services

	mu       sync.Mutex
	counts   map[string]uint64
	stats    FaultStats
	injected *telemetry.Counter // nil until Instrument; nil swallows updates
}

// NewFaults builds an injector for the spec.
func NewFaults(spec FaultSpec) *Faults {
	f := &Faults{spec: spec, counts: map[string]uint64{}}
	if len(spec.Services) > 0 {
		f.targets = map[string]bool{}
		for _, s := range spec.Services {
			f.targets[s] = true
		}
	}
	return f
}

// Instrument counts every injected fault on the registry's
// axml_faults_injected_total counter, in addition to FaultStats. A nil
// registry is a no-op.
func (f *Faults) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.injected = reg.Counter(telemetry.MetricFaultsInjected)
}

// Stats snapshots the injection counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Reset zeroes the per-service invocation counters and stats, replaying
// the fault sequence from the start.
func (f *Faults) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts = map[string]uint64{}
	f.stats = FaultStats{}
}

// Wrap returns a new registry proxying reg through the injector. The
// wrapped services advertise the same latency and push capability; their
// invocations consult the injector first and delegate to reg on success.
// A pushed query for a service that cannot push is dropped. Several
// registries may share one injector (one fault stream).
func (f *Faults) Wrap(reg *Registry) *Registry {
	return reg.Wrap(func(svc *Service, next Invoker) Invoker {
		name, latency, canPush := svc.Name, svc.Latency, svc.CanPush
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
			if !canPush {
				pushed = nil
			}
			n, targeted := f.next(name)
			rng := faultRand(f.spec.Seed, name, n)
			if targeted {
				if fault := f.decide(name, latency, n, &rng); fault != nil {
					// The injected fault starts here, so it carries the
					// service prefix once, as a handler error does.
					f.count(fault.Class)
					return Response{}, fmt.Errorf("service %s: %w", name, fault)
				}
			}
			resp, err := next(ctx, params, pushed)
			if err != nil {
				return Response{}, err
			}
			if targeted && f.spec.LatencyJitter > 0 {
				d := resp.Latency + time.Duration(rng.float()*2*float64(f.spec.LatencyJitter)) - f.spec.LatencyJitter
				if d < 0 {
					d = 0
				}
				resp.Latency = d
			}
			return resp, nil
		}
	})
}

// decide draws the fault (or nil) for the n-th invocation of a service.
func (f *Faults) decide(name string, latency time.Duration, n uint64, rng *splitmix) *Fault {
	if n < uint64(f.spec.FailFirst) {
		return &Fault{
			Service: name, Class: Transient, Latency: latency,
			Msg: fmt.Sprintf("injected: warm-up failure %d/%d", n+1, f.spec.FailFirst),
		}
	}
	draw := rng.float()
	switch {
	case draw < f.spec.TimeoutRate:
		stall := f.spec.StallLatency
		if stall == 0 {
			stall = 10 * latency
		}
		return &Fault{
			Service: name, Class: Timeout, Latency: stall,
			Msg: "injected: provider stalled",
		}
	case draw < f.spec.TimeoutRate+f.spec.ErrorRate:
		return &Fault{
			Service: name, Class: Transient, Latency: latency,
			Msg: "injected: provider error",
		}
	case draw < f.spec.TimeoutRate+f.spec.ErrorRate+f.spec.PermanentRate:
		return &Fault{
			Service: name, Class: Permanent, Latency: latency,
			Msg: "injected: unrecoverable provider error",
		}
	}
	return nil
}

// next reserves the invocation index for a service and reports whether
// the injector targets it.
func (f *Faults) next(name string) (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.counts[name]
	f.counts[name] = n + 1
	f.stats.Invocations++
	return n, f.targets == nil || f.targets[name]
}

func (f *Faults) count(c ErrorClass) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.injected.Inc()
	switch c {
	case Transient:
		f.stats.Transient++
	case Timeout:
		f.stats.Timeouts++
	case Permanent:
		f.stats.Permanents++
	}
}

// splitmix is a tiny deterministic PRNG (splitmix64) seeded per
// (seed, service, invocation) so fault decisions do not depend on the
// interleaving of concurrent invocations of *different* services.
type splitmix struct{ state uint64 }

// faultRand derives the stream for one invocation.
func faultRand(seed int64, name string, n uint64) splitmix {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return splitmix{state: h ^ (n+1)*0xbf58476d1ce4e5b9}
}

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float draws a uniform value in [0, 1).
func (r *splitmix) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
