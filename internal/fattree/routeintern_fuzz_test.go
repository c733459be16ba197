package fattree

import (
	"reflect"
	"testing"

	"eprons/internal/topology"
)

// FuzzRouteIntern: for random host pairs and ECMP indices, interning the
// canonical path into a shared segment arena and materializing it back
// must be the identity, the interned hop records must agree with the
// reference FindLink resolution, PathByIndexInto must agree with the full
// Paths enumeration, and re-interning must return the same RouteRef
// (structural sharing, no arena growth). The arena persists across fuzz
// iterations, so interleaved pairs exercise the collision chains.
func FuzzRouteIntern(f *testing.F) {
	f.Add(uint16(0), uint16(5), uint16(0))
	f.Add(uint16(0), uint16(1), uint16(0))  // same edge
	f.Add(uint16(0), uint16(6), uint16(1))  // same pod, cross edge
	f.Add(uint16(3), uint16(12), uint16(3)) // cross pod
	f.Add(uint16(15), uint16(0), uint16(60001))

	cfg := DefaultConfig()
	cfg.K = 4
	ft, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	arena := topology.NewSegmentArena(ft.Graph)

	f.Fuzz(func(t *testing.T, si, di, ix uint16) {
		src := ft.Hosts[int(si)%len(ft.Hosts)]
		dst := ft.Hosts[int(di)%len(ft.Hosts)]
		np := ft.NumPaths(src, dst)
		if np == 0 {
			return // src == dst
		}
		idx := int(ix) % np
		p := ft.PathByIndexInto(src, dst, idx, nil)
		if ref := ft.Paths(src, dst)[idx]; !reflect.DeepEqual(p, ref) {
			t.Fatalf("PathByIndexInto(%d,%d,%d) = %v, enumeration gives %v", src, dst, idx, p, ref)
		}
		r, err := arena.Intern(p)
		if err != nil {
			t.Fatalf("intern of canonical path %v: %v", p, err)
		}
		if got := arena.MaterializePath(r); !reflect.DeepEqual(got, p) {
			t.Fatalf("materialize(intern(%v)) = %v", p, got)
		}
		if r.NumHops() != len(p)-1 {
			t.Fatalf("ref %+v has %d hops for a %d-node path", r, r.NumHops(), len(p))
		}
		for i := 0; i < r.NumHops(); i++ {
			sid, li := r.SegAt(i)
			h := arena.Seg(sid).Hops[li]
			lid, ok := ft.Graph.FindLink(p[i], p[i+1])
			if !ok || h.Link != lid || h.To != p[i+1] {
				t.Fatalf("hop %d of %v: interned %+v, want link %d to %d", i, p, h, lid, p[i+1])
			}
		}
		segs, hops := arena.NumSegments(), arena.NumHops()
		again, err := arena.Intern(p)
		if err != nil || again != r {
			t.Fatalf("re-intern gave %+v (%v), want %+v", again, err, r)
		}
		if arena.NumSegments() != segs || arena.NumHops() != hops {
			t.Fatalf("re-intern grew the arena: %d→%d segs", segs, arena.NumSegments())
		}
	})
}
