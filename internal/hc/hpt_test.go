package hc

import (
	"sync/atomic"
	"testing"
)

func TestHPTBuildShape(t *testing.T) {
	// Root with two groups of two leaves: P0(P1(L2 L3) P4(L5 L6))
	h := BuildHPT(PlaceSpec{Children: []PlaceSpec{
		{Children: []PlaceSpec{{}, {}}},
		{Children: []PlaceSpec{{}, {}}},
	}})
	if len(h.Places()) != 7 {
		t.Fatalf("places = %d", len(h.Places()))
	}
	if len(h.Leaves()) != 4 {
		t.Fatalf("leaves = %d", len(h.Leaves()))
	}
	if h.Root().IsLeaf() || !h.Leaves()[0].IsLeaf() {
		t.Fatal("leaf marking wrong")
	}
	if h.Leaves()[0].Parent().Parent() != h.Root() {
		t.Fatal("parent chain broken")
	}
	if h.String() == "" {
		t.Fatal("empty render")
	}
}

func TestTwoLevelHPT(t *testing.T) {
	h := TwoLevelHPT(3)
	if len(h.Leaves()) != 3 || len(h.Places()) != 4 {
		t.Fatalf("two-level: %d leaves %d places", len(h.Leaves()), len(h.Places()))
	}
}

func TestPlaceDistance(t *testing.T) {
	h := BuildHPT(PlaceSpec{Children: []PlaceSpec{
		{Children: []PlaceSpec{{}, {}}},
		{Children: []PlaceSpec{{}, {}}},
	}})
	l := h.Leaves()
	if placeDistance(l[0], l[0]) != 0 {
		t.Error("self distance")
	}
	if placeDistance(l[0], l[1]) != 2 { // siblings via parent
		t.Errorf("sibling distance %d", placeDistance(l[0], l[1]))
	}
	if placeDistance(l[0], l[2]) != 4 { // across groups via root
		t.Errorf("cross-group distance %d", placeDistance(l[0], l[2]))
	}
}

func TestAsyncAtPlaceRunsEverything(t *testing.T) {
	h := TwoLevelHPT(2)
	rt := NewWithHPT(4, h)
	defer rt.Shutdown()
	var n atomic.Int64
	rt.Root(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 40; i++ {
				p := h.Leaves()[i%2]
				ctx.AsyncAtPlace(p, func(*Ctx) { n.Add(1) })
			}
			// Root-place tasks are reachable from every worker's path.
			for i := 0; i < 10; i++ {
				ctx.AsyncAtPlace(h.Root(), func(*Ctx) { n.Add(1) })
			}
		})
	})
	if n.Load() != 50 {
		t.Fatalf("ran %d tasks", n.Load())
	}
}

func TestCurrentPlaceAttachment(t *testing.T) {
	h := TwoLevelHPT(2)
	rt := NewWithHPT(2, h)
	defer rt.Shutdown()
	var ok atomic.Bool
	ok.Store(true)
	rt.Root(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 8; i++ {
				ctx.Async(func(ctx *Ctx) {
					p := ctx.CurrentPlace()
					if p == nil || !p.IsLeaf() {
						ok.Store(false)
					}
				})
			}
		})
	})
	if !ok.Load() {
		t.Fatal("tasks observed no leaf place")
	}
	if rt.HPT() != h {
		t.Fatal("HPT accessor broken")
	}
}

func TestHPTMoreLeavesThanWorkers(t *testing.T) {
	// 1 worker, 4 leaves: tasks spawned at unattached leaves must still
	// run (foreign-place fallback in stealOnce).
	h := TwoLevelHPT(4)
	rt := NewWithHPT(1, h)
	defer rt.Shutdown()
	var n atomic.Int64
	rt.Root(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i, l := range h.Leaves() {
				_ = i
				ctx.AsyncAtPlace(l, func(*Ctx) { n.Add(1) })
			}
		})
	})
	if n.Load() != 4 {
		t.Fatalf("ran %d want 4", n.Load())
	}
}

func TestAsyncAtNilPlaceFallsBack(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	var ran atomic.Bool
	rt.Root(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			ctx.AsyncAtPlace(nil, func(*Ctx) { ran.Store(true) })
		})
	})
	if !ran.Load() {
		t.Fatal("nil-place spawn lost")
	}
	// Default runtime has no HPT and no current place.
	rt.Root(func(ctx *Ctx) {
		if ctx.CurrentPlace() != nil {
			t.Error("default runtime reported a place")
		}
	})
}

func TestLocalityAwareStealingPrefersNearby(t *testing.T) {
	// Two groups; flood group 0's worker with tasks and verify the
	// runtime still completes with workers from both groups (sanity: the
	// victim ordering cannot deadlock or starve).
	h := BuildHPT(PlaceSpec{Children: []PlaceSpec{
		{Children: []PlaceSpec{{}, {}}},
		{Children: []PlaceSpec{{}, {}}},
	}})
	rt := NewWithHPT(4, h)
	defer rt.Shutdown()
	var n atomic.Int64
	rt.Root(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 2000; i++ {
				ctx.Async(func(*Ctx) { n.Add(1) })
			}
		})
	})
	if n.Load() != 2000 {
		t.Fatalf("ran %d", n.Load())
	}
	if rt.Metrics().Counter("hc_steals").Load() == 0 {
		t.Log("note: no steals observed (single-worker drain) — acceptable on 1 CPU")
	}
}

func TestPlaceAccessors(t *testing.T) {
	h := TwoLevelHPT(2)
	root := h.Root()
	if root.ID() != 0 || len(root.Children()) != 2 {
		t.Fatalf("root id %d children %d", root.ID(), len(root.Children()))
	}
	for _, c := range root.Children() {
		if c.Parent() != root || c.ID() == 0 {
			t.Fatal("child wiring wrong")
		}
	}
}

func TestPlaceDistanceAsymmetricDepths(t *testing.T) {
	// Root-to-leaf distances exercise the depth-equalizing walk.
	h := BuildHPT(PlaceSpec{Children: []PlaceSpec{
		{Children: []PlaceSpec{{Children: []PlaceSpec{{}}}}}, // deep leaf
		{}, // shallow leaf
	}})
	deep := h.Leaves()[0]
	shallow := h.Leaves()[1]
	if d := placeDistance(deep, shallow); d != 4 { // up 3, down 1
		t.Fatalf("asymmetric distance %d want 4", d)
	}
	if d := placeDistance(h.Root(), deep); d != 3 {
		t.Fatalf("root-to-deep %d want 3", d)
	}
}
