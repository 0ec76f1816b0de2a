package sweep

import (
	"context"
	"fmt"

	"addict/internal/cache"
	"addict/internal/core"
	"addict/internal/pool"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/store"
	"addict/internal/trace"
)

// Workbench is the session-level artifact cache: the shared Artifacts
// (trace windows, migration-point profiles) plus memoized per-(workload,
// mechanism) replay results on one fixed machine. It is the cache behind
// both the figure pipeline (internal/exp wraps it) and the facade's
// long-lived Engine sessions — promoted out of internal/exp so a session
// can reuse what the experiment harness computes and vice versa.
//
// A Workbench is safe for concurrent use: every artifact is computed once
// (single-flight) no matter how many callers request it at the same time,
// every artifact's content is independent of the order, interleaving, or
// worker count of the requests, and a computation aborted by context
// cancellation is evicted instead of cached.
type Workbench struct {
	machine sim.Config
	arts    *Artifacts
	// machineSig discriminates this workbench's replay results inside the
	// shared artifact cache: several workbenches on different machines may
	// share one Artifacts, and their (workload, mechanism) results must not
	// collide.
	machineSig string
}

// NewWorkbench wraps an artifact cache with per-mechanism result caching on
// the given machine.
func NewWorkbench(arts *Artifacts, machine sim.Config) *Workbench {
	return &Workbench{
		machine:    machine,
		arts:       arts,
		machineSig: machineSig(machine),
	}
}

// machineSig renders a machine configuration as a stable cache-key
// component: identical configurations produce identical signatures. The
// PrivateL2 pointer is flattened to its value so the signature never
// embeds a heap address.
func machineSig(m sim.Config) string {
	var l2 cache.Config
	if m.PrivateL2 != nil {
		l2 = *m.PrivateL2
	}
	m.PrivateL2 = nil
	return fmt.Sprintf("%+v|%+v", m, l2)
}

// Artifacts exposes the underlying shared artifact cache.
func (w *Workbench) Artifacts() *Artifacts { return w.arts }

// Machine returns the simulated hardware results are cached for.
func (w *Workbench) Machine() sim.Config { return w.machine }

// Bound sets the session cache's resident-weight budget in approximate
// bytes (<= 0 = unbounded): trace windows, migration-point profiles, and
// replay results share one LRU, so the budget covers everything the
// session holds. When the resident weight exceeds it, least-recently-used
// artifacts are evicted and will regenerate — deterministically, to
// identical content — on next use. A live (in-flight) computation is never
// evicted and never computed twice.
func (w *Workbench) Bound(budget int64) { w.arts.Bound(budget) }

// CacheStats reports the session cache's counters: resident bytes
// (artifactWeight estimates), entries, hits, misses, evictions.
func (w *Workbench) CacheStats() pool.CacheStats { return w.arts.CacheStats() }

// StoreStats reports the attached on-disk store's counters; ok is false
// when the session is memory-only.
func (w *Workbench) StoreStats() (s store.Stats, ok bool) { return w.arts.StoreStats() }

// ProfileSet returns the workload's profiling trace window.
func (w *Workbench) ProfileSet(ctx context.Context, name string) (*trace.Set, error) {
	return w.arts.ProfileSet(ctx, name)
}

// EvalSet returns the workload's evaluation trace window.
func (w *Workbench) EvalSet(ctx context.Context, name string) (*trace.Set, error) {
	return w.arts.EvalSet(ctx, name)
}

// Profile returns the workload's Algorithm 1 output against the session
// machine's L1-I geometry.
func (w *Workbench) Profile(ctx context.Context, name string) (*core.Profile, error) {
	return w.arts.Profile(ctx, name, w.machine)
}

// Result replays the workload's evaluation window under a mechanism at the
// default load point, caching the outcome — repeated Schedule calls on one
// session, and the figures sharing a replay (Figures 5, 6, 8b, 9), all hit
// this cache. The replay goes through the sweep execution path
// (Replay): a session's (workload, mechanism) point is the default-load
// sweep unit on the session machine.
func (w *Workbench) Result(ctx context.Context, name string, mech sched.Mechanism) (sim.Result, error) {
	if err := w.arts.validate(); err != nil {
		return sim.Result{}, err
	}
	key := "result\x00" + w.machineSig + "\x00" + name + "\x00" + string(mech)
	entry := w.arts.resultEntry(name, string(mech), w.machineSig)
	v, err := w.arts.cache.Do(ctx, key, entry, func() (any, error) {
		var prof *core.Profile
		if mech == sched.ADDICT {
			p, err := w.Profile(ctx, name)
			if err != nil {
				return sim.Result{}, err
			}
			prof = p
		}
		set, err := w.EvalSet(ctx, name)
		if err != nil {
			return sim.Result{}, err
		}
		u := NewUnit(name, mech, w.machine, 0, 0)
		return Replay(u, set, prof)
	})
	if err != nil {
		return sim.Result{}, err
	}
	return v.(sim.Result), nil
}
