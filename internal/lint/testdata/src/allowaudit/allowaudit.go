// Package allowaudit exercises the suppression machinery: one
// //hclint:allow that earns its keep by masking a real finding, and
// one stale comment suppressing nothing, which the audit must flag.
package allowaudit

type ring struct {
	slots []int64
}

//hclint:hotpath
func (r *ring) grow() {
	r.slots = make([]int64, 2*len(r.slots)) //hclint:allow resize runs once per doubling, not per event
}

//hclint:hotpath
func (r *ring) emit(v int64) {
	r.slots[0] = v //hclint:allow stale: this line produces no finding
}
