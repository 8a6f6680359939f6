package distsched

import (
	"math/rand"
	"testing"
)

func TestRandomVictimNeverPicksSelfOrDead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dead := map[int]bool{2: true}
	alive := func(r int) bool { return !dead[r] }
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := randomVictim(0, 4, rng, alive)
		if v == 0 || v == 2 || v < 0 || v > 3 {
			t.Fatalf("picked %d", v)
		}
		seen[v] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("not all live victims probed: %v", seen)
	}
	if v := randomVictim(0, 1, rng, func(int) bool { return true }); v != -1 {
		t.Fatalf("size-1 pick: %d", v)
	}
}

func TestRandomVictimNoCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if v := randomVictim(0, 3, rng, func(int) bool { return false }); v != -1 {
		t.Fatalf("picked dead victim %d", v)
	}
}
