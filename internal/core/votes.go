package core

import "ipd/internal/flow"

// vote is one ingress's tally.
type vote struct {
	in flow.Ingress
	n  float64
}

// votes is a per-ingress tally, strictly ascending by (router, iface). That
// is checkpoint order, so encoding, degrading and tie-breaking iterate it as
// it lies. Most tallies hold one or two ingresses (a source votes where it
// enters; a classified range is nearly pure) while a few wide unclassified
// ranges hold hundreds, hence a linear probe while short and a binary search
// above. The zero value is an empty tally.
type votes []vote

// votesLinear is the longest run find scans linearly (two cache lines). A
// linear-only vector doubled stage 1's cost on ranges carrying 300 ingresses.
const votesLinear = 8

// ingressKey maps (router, iface) order onto integer order.
func ingressKey(in flow.Ingress) uint32 { return uint32(in.Router)<<16 | uint32(in.Iface) }

// find returns in's position and whether it is present; when absent, the
// position is where it would be inserted.
func (v votes) find(in flow.Ingress) (int, bool) {
	k := ingressKey(in)
	lo, hi := 0, len(v)
	for hi-lo > votesLinear {
		if m := int(uint(lo+hi) >> 1); ingressKey(v[m].in) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for lo < hi && ingressKey(v[lo].in) < k {
		lo++
	}
	return lo, lo < len(v) && v[lo].in == in
}

// get returns in's tally, 0 when absent.
func (v votes) get(in flow.Ingress) float64 {
	if i, ok := v.find(in); ok {
		return v[i].n
	}
	return 0
}

// add adds n to in's tally, inserting it when absent.
func (v *votes) add(in flow.Ingress, n float64) {
	i, ok := v.find(in)
	if !ok {
		*v = append(*v, vote{})
		copy((*v)[i+1:], (*v)[i:])
		(*v)[i] = vote{in: in}
	}
	(*v)[i].n += n
}

// sub takes n off in's tally and removes the entry once nothing (within float
// dust) is left; an absent ingress stays absent.
func (v *votes) sub(in flow.Ingress, n float64) {
	if i, ok := v.find(in); ok {
		if (*v)[i].n -= n; (*v)[i].n <= 1e-9 {
			*v = append((*v)[:i], (*v)[i+1:]...)
		}
	}
}

// scale multiplies every tally by d.
func (v votes) scale(d float64) {
	for i := range v {
		v[i].n *= d
	}
}

// top returns the highest tally and its ingress; ties go to the lowest
// (router, iface), which is the first maximum. Empty: zero ingress, -1.
func (v votes) top() (best flow.Ingress, bestN float64) {
	bestN = -1
	for _, x := range v {
		if x.n > bestN {
			best, bestN = x.in, x.n
		}
	}
	return best, bestN
}

// voteRing is the per-range companion to the shared sketch: the exact
// per-ingress vote mass of the last max generations, a few dozen bytes per
// sketched range. Rotation returns the expired oldest generation so the
// engine can subtract it from the range counters — the sketched analogue of
// exact per-IP expiry (votes age out by contribution time instead of source
// idleness; DESIGN §13 quantifies the difference).
type voteRing struct {
	max  int
	gens []voteGen // oldest first
}

type voteGen struct {
	votes votes
	total float64
}

// newVoteRing returns a ring holding up to max generations, with one empty
// generation open for observes.
func newVoteRing(max int) *voteRing {
	return &voteRing{max: max, gens: make([]voteGen, 1)}
}

// observe adds w votes for ingress in to the newest generation.
func (r *voteRing) observe(in flow.Ingress, w float64) {
	g := &r.gens[len(r.gens)-1]
	g.votes.add(in, w)
	g.total += w
}

// rotate opens a new generation and, once the ring is full, pops the oldest
// and returns its tally and total for the caller to expire. Returns (nil, 0)
// while the ring is still filling.
func (r *voteRing) rotate() (votes, float64) {
	r.gens = append(r.gens, voteGen{})
	if len(r.gens) <= r.max {
		return nil, 0
	}
	old := r.gens[0]
	r.gens = r.gens[1:]
	return old.votes, old.total
}
