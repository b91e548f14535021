package core

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ipd/internal/flow"
	"ipd/internal/persist"
)

// modelTop is top() as the map-based tallies computed it: highest count,
// ties to the lowest (router, iface).
func modelTop(m map[flow.Ingress]float64) (flow.Ingress, float64) {
	var best flow.Ingress
	bestN := -1.0
	for in, n := range m {
		if n > bestN || (n == bestN && lessIngress(in, best)) {
			best, bestN = in, n
		}
	}
	return best, bestN
}

// checkAgainstModel asserts v holds exactly m's entries, in lessIngress
// order, and answers get and top like it.
func checkAgainstModel(t *testing.T, v votes, m map[flow.Ingress]float64, universe []flow.Ingress) {
	t.Helper()
	if len(v) != len(m) {
		t.Fatalf("vector holds %d entries, model %d", len(v), len(m))
	}
	if !sort.SliceIsSorted(v, func(i, j int) bool { return lessIngress(v[i].in, v[j].in) }) {
		t.Fatalf("vector out of order: %v", v)
	}
	for i, x := range v {
		if i > 0 && v[i-1].in == x.in {
			t.Fatalf("duplicate entry %v", x.in)
		}
		if n, ok := m[x.in]; !ok || n != x.n {
			t.Fatalf("entry %v = %v, model has %v (present %v)", x.in, x.n, n, ok)
		}
	}
	for _, in := range universe {
		if got, want := v.get(in), m[in]; got != want {
			t.Fatalf("get(%v) = %v, model %v", in, got, want)
		}
	}
	gotIn, gotN := v.top()
	wantIn, wantN := modelTop(m)
	if gotIn != wantIn || gotN != wantN {
		t.Fatalf("top = %v %v, model %v %v", gotIn, gotN, wantIn, wantN)
	}
}

func TestVotesTable(t *testing.T) {
	a, b, c := flow.Ingress{Router: 1, Iface: 2}, flow.Ingress{Router: 1, Iface: 3}, flow.Ingress{Router: 2, Iface: 0}
	var v votes
	if in, n := v.top(); in != (flow.Ingress{}) || n != -1 {
		t.Fatalf("empty top = %v %v", in, n)
	}
	v.sub(a, 1) // missing key: no-op
	if len(v) != 0 {
		t.Fatalf("sub of a missing key inserted: %v", v)
	}
	v.add(c, 2)
	v.add(a, 2)
	v.add(b, 1)
	v.add(b, 1)
	if want := (votes{{a, 2}, {b, 2}, {c, 2}}); len(v) != 3 || v[0] != want[0] || v[1] != want[1] || v[2] != want[2] {
		t.Fatalf("after adds: %v, want %v", v, want)
	}
	if in, n := v.top(); in != a || n != 2 {
		t.Fatalf("three-way tie: top = %v %v, want the lowest ingress %v", in, n, a)
	}
	v.scale(0.5)
	v.sub(a, 1) // to exactly zero: removed
	v.sub(b, 1-1e-10)
	if len(v) != 1 || v[0] != (vote{c, 1}) {
		t.Fatalf("after subs to zero and to float dust: %v, want only %v", v, c)
	}
	v.sub(c, 0.25)
	if v.get(c) != 0.75 || v.get(a) != 0 {
		t.Fatalf("partial sub: %v", v)
	}
}

// TestVotesInlineSpill pins ipState's inline tally: two ingresses live in
// the struct, the third moves the vector to the heap, and removal keeps
// working on either backing.
func TestVotesInlineSpill(t *testing.T) {
	st := newIPState(base)
	st.counters.add(inB, 1)
	st.counters.add(inA, 1)
	if &st.counters[0] != &st.buf[0] || st.counters[0].in != inA {
		t.Fatalf("two ingresses should sit sorted in the inline buffer: %v", st.counters)
	}
	st.counters.sub(inA, 1)
	st.counters.add(inC, 1)
	if &st.counters[0] != &st.buf[0] || len(st.counters) != 2 {
		t.Fatalf("remove-then-add should stay inline: %v", st.counters)
	}
	st.counters.add(inA, 1)
	if &st.counters[0] == &st.buf[0] || len(st.counters) != 3 {
		t.Fatalf("third ingress should spill: %v", st.counters)
	}
	checkAgainstModel(t, st.counters, map[flow.Ingress]float64{inA: 1, inB: 1, inC: 1}, nil)
}

// TestVotesAgainstMapModel runs random op sequences against the map the
// vector replaced. Universe sizes straddle the linear/binary threshold and
// reach the 300 ingresses the widest ranges carry.
func TestVotesAgainstMapModel(t *testing.T) {
	for _, size := range []int{1, 2, votesLinear - 1, votesLinear, votesLinear + 1, 3 * votesLinear, 300} {
		size := size
		check := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			universe := make([]flow.Ingress, size)
			for i := range universe {
				universe[i] = flow.Ingress{Router: flow.RouterID(rng.Intn(1 + size/4)), Iface: flow.IfaceID(rng.Intn(1 << 16))}
			}
			var v votes
			m := map[flow.Ingress]float64{}
			for op := 0; op < 40*size; op++ {
				in := universe[rng.Intn(size)]
				switch n := float64(1 + rng.Intn(3)); rng.Intn(8) {
				case 0, 1, 2, 3:
					v.add(in, n)
					m[in] += n
				case 4, 5:
					// Whole votes: hits exactly zero often, like an expiring
					// source taking its votes back.
					v.sub(in, n)
					if _, ok := m[in]; ok {
						if m[in] -= n; m[in] <= 1e-9 {
							delete(m, in)
						}
					}
				case 6:
					v.sub(in, v.get(in)) // to exactly zero, or a missing key
					delete(m, in)
				case 7:
					v.scale(0.5)
					for k := range m {
						m[k] *= 0.5
					}
				}
				if op%size == 0 {
					checkAgainstModel(t, v, m, universe)
				}
			}
			checkAgainstModel(t, v, m, universe)
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// ringMass is the vote weight a ring retains across its generations.
func ringMass(r *voteRing) float64 {
	var m float64
	for _, g := range r.gens {
		m += g.total
	}
	return m
}

func TestVoteRing(t *testing.T) {
	inA := flow.Ingress{Router: 1, Iface: 1}
	inB := flow.Ingress{Router: 2, Iface: 1}
	r := newVoteRing(3)
	r.observe(inA, 10)
	r.observe(inB, 4)
	if m := ringMass(r); m != 14 {
		t.Fatalf("mass = %v, want 14", m)
	}
	// Ring filling: nothing expires for the first max-1 rotations.
	if exp, tot := r.rotate(); exp != nil || tot != 0 {
		t.Fatalf("rotation 1 expired %v/%v, want nothing", exp, tot)
	}
	r.observe(inA, 2)
	if exp, tot := r.rotate(); exp != nil || tot != 0 {
		t.Fatalf("rotation 2 expired %v/%v, want nothing", exp, tot)
	}
	// Third rotation pops the oldest generation: the original 14 votes.
	exp, tot := r.rotate()
	if tot != 14 || len(exp) != 2 || exp.get(inA) != 10 || exp.get(inB) != 4 {
		t.Fatalf("rotation 3 expired %v total %v, want {A:10 B:4} total 14", exp, tot)
	}
	if m := ringMass(r); m != 2 {
		t.Errorf("mass after expiry = %v, want 2", m)
	}
}

const ringMagic, ringVersion = 0x52494e47, 1 // "RING"

func encodeRingPayload(r *voteRing) []byte {
	enc := persist.NewEncoder(ringMagic, ringVersion)
	encodeVoteRing(enc, r)
	return enc.Finish()
}

func decodeRingPayload(b []byte) (*voteRing, error) {
	dec, err := persist.NewDecoder(b, ringMagic, ringVersion)
	if err != nil {
		return nil, err
	}
	r, err := decodeVoteRing(dec)
	if err != nil {
		return nil, err
	}
	return r, dec.Finish()
}

func TestVoteRingRoundTrip(t *testing.T) {
	r := newVoteRing(4)
	r.observe(flow.Ingress{Router: 3, Iface: 2}, 7)
	r.rotate()
	r.observe(flow.Ingress{Router: 1, Iface: 9}, 1)

	b1 := encodeRingPayload(r)
	back, err := decodeRingPayload(b1)
	if err != nil {
		t.Fatalf("decodeVoteRing: %v", err)
	}
	if !bytes.Equal(b1, encodeRingPayload(back)) {
		t.Error("vote ring round-trip drifted")
	}
	if ringMass(back) != 8 {
		t.Errorf("restored mass = %v, want 8", ringMass(back))
	}
}

// TestDecodeVoteRingRejects pins the range checks a restore applies before
// trusting a ring: capacity, generation count, ingress ids and tally order.
func TestDecodeVoteRingRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(enc *persist.Encoder)
		want string
	}{
		{"capacity below two", func(enc *persist.Encoder) { enc.Uvarint(1) }, "max 1 out of range"},
		{"capacity above 64", func(enc *persist.Encoder) { enc.Uvarint(65) }, "max 65 out of range"},
		{"no generation", func(enc *persist.Encoder) { enc.Uvarint(3); enc.Uvarint(0) }, "holds 0 generations"},
		{"more generations than capacity", func(enc *persist.Encoder) { enc.Uvarint(3); enc.Uvarint(4) }, "holds 4 generations"},
		{"ingress id out of range", func(enc *persist.Encoder) {
			enc.Uvarint(3)
			enc.Uvarint(1)
			enc.Uvarint(1)
			enc.Uvarint(1 << 16)
			enc.Uvarint(1)
		}, "ingress id out of range"},
		{"tally out of order", func(enc *persist.Encoder) {
			enc.Uvarint(3)
			enc.Uvarint(1)
			encodeCounters(enc, votes{{flow.Ingress{Router: 2}, 1}, {flow.Ingress{Router: 1}, 1}})
		}, "not above its predecessor"},
	} {
		enc := persist.NewEncoder(ringMagic, ringVersion)
		c.body(enc)
		if _, err := decodeRingPayload(enc.Finish()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// FuzzVoteRingRoundTrip drives arbitrary bytes through the vote-ring
// decoder: anything that decodes cleanly must re-encode byte-identically
// (the kill-and-restore determinism contract) and stay usable, and nothing
// may panic or over-allocate regardless of input.
func FuzzVoteRingRoundTrip(f *testing.F) {
	for _, c := range []struct{ gens, observes int }{{2, 0}, {3, 10}, {3, 40}, {4, 25}} {
		r := newVoteRing(c.gens)
		for i := 0; i < c.observes; i++ {
			r.observe(flow.Ingress{Router: flow.RouterID(i%4 + 1), Iface: 1}, 1)
			if i%5 == 4 {
				r.rotate()
			}
		}
		f.Add(encodeRingPayload(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRingPayload(data)
		if err != nil {
			return
		}
		if out := encodeRingPayload(r); !bytes.Equal(out, data) {
			t.Fatalf("vote ring round-trip drifted: %d bytes in, %d out", len(data), len(out))
		}
		r.observe(flow.Ingress{Router: 1, Iface: 1}, 1)
		r.rotate()
	})
}
