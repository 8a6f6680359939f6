package distsched

import "math/rand"

// randomVictim picks a steal victim uniformly at random among the live
// ranks other than self, or returns -1 when there is none — the classic
// work-stealing choice (and UTS's): stateless, contention-spreading, and
// probabilistically complete (every rank, including a dead one awaiting
// fail-stop detection, is eventually probed).
func randomVictim(self, size int, rng *rand.Rand, alive func(int) bool) int {
	if size < 2 {
		return -1
	}
	v := rng.Intn(size - 1)
	if v >= self {
		v++
	}
	for i := 0; i < size; i++ {
		c := (v + i) % size
		if c != self && alive(c) {
			return c
		}
	}
	return -1
}
