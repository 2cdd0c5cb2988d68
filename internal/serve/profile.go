package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"rdgc/internal/bench"
	"rdgc/internal/trace"
)

// TracePrefix marks a profile name as a recorded-trace path rather than a
// registry program name: "trace:runs/nboyer.trace".
const TracePrefix = "trace:"

// Profile is a sampleable allocation mix: a measured bench.AllocProfile
// plus the cumulative counts weighted sampling needs. Profiles are
// immutable after construction, so every shard of a run shares one set.
type Profile struct {
	bench.AllocProfile
	cum []uint64 // running totals of Classes[i].Count
}

func newProfile(p bench.AllocProfile) (*Profile, error) {
	if p.Objects == 0 {
		return nil, fmt.Errorf("serve: profile %q recorded no allocations", p.Source)
	}
	pr := &Profile{AllocProfile: p, cum: make([]uint64, len(p.Classes))}
	var c uint64
	for i, cls := range p.Classes {
		c += cls.Count
		pr.cum[i] = c
	}
	return pr, nil
}

// pick draws one allocation class, weighted by its count in the measured
// mix, so a stream of picks re-enacts the source program's allocation-size
// and type distribution without re-running the program.
func (p *Profile) pick(r *rng) bench.AllocClass {
	target := r.Uint64n(p.Objects)
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.Classes[lo]
}

// ProfileFromTrace builds an allocation profile from a recorded trace file
// (cmd/gctrace format): one class per (type, payload size) of its
// allocation events. The whole trace is read, trailer included, so the
// profile also CRC-verifies it.
func ProfileFromTrace(path string) (bench.AllocProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return bench.AllocProfile{}, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return bench.AllocProfile{}, fmt.Errorf("serve: %s: %w", path, err)
	}
	counts := make(map[bench.AllocClass]uint64)
	var ev trace.Event
	for {
		err := r.Next(&ev)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return bench.AllocProfile{}, fmt.Errorf("serve: %s: %w", path, err)
		}
		if ev.Kind == trace.KindAlloc {
			counts[bench.AllocClass{Type: ev.Type, PayloadWords: ev.Size}]++
		}
	}
	return bench.BuildProfile(TracePrefix+path, counts), nil
}

// profileCache memoizes resolved profiles by name: sampling a registry
// profile runs the whole program once, and a grid driver resolves the same
// handful of names for every cell.
var profileCache struct {
	sync.Mutex
	m map[string]*Profile
}

// resolveProfile resolves one profile name: "trace:PATH" reads a recorded
// trace; anything else is a registry program, looked up in the quick suite
// first (cheap to sample) and the standard suite as a fallback.
func resolveProfile(name string) (*Profile, error) {
	profileCache.Lock()
	defer profileCache.Unlock()
	if p, ok := profileCache.m[name]; ok {
		return p, nil
	}
	var ap bench.AllocProfile
	if path, ok := strings.CutPrefix(name, TracePrefix); ok {
		var err error
		if ap, err = ProfileFromTrace(path); err != nil {
			return nil, err
		}
	} else {
		prog, err := bench.ByName(name, true)
		if err != nil {
			if prog, err = bench.ByName(name, false); err != nil {
				return nil, err
			}
		}
		if ap, err = bench.SampleProfile(prog); err != nil {
			return nil, err
		}
	}
	p, err := newProfile(ap)
	if err != nil {
		return nil, err
	}
	if profileCache.m == nil {
		profileCache.m = make(map[string]*Profile)
	}
	profileCache.m[name] = p
	return p, nil
}

// ResolveProfiles resolves every name of a load config, in order.
func ResolveProfiles(names []string) ([]*Profile, error) {
	out := make([]*Profile, len(names))
	for i, name := range names {
		p, err := resolveProfile(name)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
