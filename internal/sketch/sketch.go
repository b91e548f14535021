// Package sketch is the fixed-memory degradation tier behind the engine's
// per-IP state: a seeded, deterministic count-min sketch plus Bloom filter,
// organised as a ring of time generations so per-source evidence ages out
// the way exact per-IP expiry would.
//
// The exact engine holds one ipState per masked source address inside every
// unclassified range — memory linear in distinct sources, which a spoofed
// scan drives without bound. Under governor pressure the engine switches
// far-from-threshold ranges to this sketch: the shared count-min answers
// per-source weight estimates within εN with probability 1−δ (ε = e/width,
// δ = e^−depth, Cormode & Muthukrishnan), the Bloom side answers coarse
// membership and first-seen, and the engine's per-range vote ring keeps the
// exact per-ingress vote mass of the last G generations so expiry becomes a
// subtraction of the oldest generation instead of a per-source walk.
//
// Everything is deterministic: hashing is seeded splitmix64, generations
// rotate on the engine's virtual cycle clock, and the state encodes through
// internal/persist in sorted order, so kill-and-restore runs stay
// byte-identical.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"

	"ipd/internal/persist"
)

// Config sizes the shared sketch. The zero value is not valid; use
// WithDefaults.
type Config struct {
	// Width is the number of counters per count-min row; the estimate
	// error bound is ε = e/Width of the total inserted mass.
	Width int
	// Depth is the number of count-min rows (and Bloom hash functions);
	// the error probability bound is δ = e^−Depth.
	Depth int
	// Generations is the ring length: how many engine cycles of evidence
	// the sketch retains. The engine sizes it as ceil(E/T)+1 so the sketch
	// window matches the exact per-IP expiry horizon.
	Generations int
	// Seed keys the hash family; runs with equal seeds are bit-identical.
	Seed uint64
}

// Default sketch sizing: ~1σ under the deployment traffic of the paper's
// Appendix A, the error bound lands at ε ≈ 0.27% of window mass with
// δ ≈ 1.8%.
const (
	DefaultWidth = 1024
	DefaultDepth = 4
	DefaultSeed  = 0x1bd5_49d5_a2f1_90cd
)

// WithDefaults fills unset fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.Width == 0 {
		c.Width = DefaultWidth
	}
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.Generations == 0 {
		c.Generations = 3
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Validate rejects configurations the codec or the error bounds cannot
// honour.
func (c Config) Validate() error {
	if c.Width < 16 || c.Width > 1<<20 {
		return fmt.Errorf("sketch: width %d out of range [16, 2^20]", c.Width)
	}
	if c.Depth < 1 || c.Depth > 16 {
		return fmt.Errorf("sketch: depth %d out of range [1, 16]", c.Depth)
	}
	if c.Generations < 2 || c.Generations > 64 {
		return fmt.Errorf("sketch: generations %d out of range [2, 64]", c.Generations)
	}
	return nil
}

// Epsilon is the count-min additive error bound as a fraction of the
// total mass inserted into one generation window: estimates are within
// ε·N with probability at least 1−δ.
func (c Config) Epsilon() float64 { return math.E / float64(c.Width) }

// Delta is the probability the Epsilon bound is exceeded for one query.
func (c Config) Delta() float64 { return math.Exp(-float64(c.Depth)) }

// bloomBits is the Bloom bitset size per generation: 8 bits per count-min
// column keeps the false-positive rate comparable to δ at the occupancies
// the width is sized for, and rounds to whole uint64 words.
func (c Config) bloomBits() uint64 { return uint64(c.Width) * 8 }

// generation is one cycle-aligned slice of the sketch window.
type generation struct {
	start time.Time
	rows  []float64 // Depth×Width count-min counters, row-major
	bloom []uint64  // membership bitset
}

func (c Config) newGeneration(start time.Time) *generation {
	return &generation{
		start: start,
		rows:  make([]float64, c.Depth*c.Width),
		bloom: make([]uint64, (c.bloomBits()+63)/64),
	}
}

// Sketch is the engine-level shared structure. One instance serves every
// sketched range (ranges partition the address space, so per-source keys
// never collide across ranges) and doubles as the first-seen preserver for
// sources refused by the MaxIPStates cap. Not safe for concurrent use; the
// engine is single-writer.
type Sketch struct {
	cfg  Config
	gens []*generation // oldest first; newest receives observes

	observes uint64 // lifetime Observe calls
}

// New returns an empty sketch. cfg is validated with defaults applied.
func New(cfg Config) (*Sketch, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sketch{cfg: cfg}, nil
}

// Config returns the (defaulted) configuration the sketch runs with.
func (s *Sketch) Config() Config { return s.cfg }

// Observes returns the lifetime number of observations folded in.
func (s *Sketch) Observes() uint64 { return s.observes }

// Generations returns the number of live generations in the ring.
func (s *Sketch) Generations() int { return len(s.gens) }

// Bytes approximates the sketch's heap footprint: the fixed-size arrays
// dominate, which is the point — it does not grow with distinct sources.
func (s *Sketch) Bytes() int {
	per := s.cfg.Depth*s.cfg.Width*8 + int((s.cfg.bloomBits()+63)/64)*8
	return len(s.gens) * per
}

// hashes derives the double-hashing pair for a masked source prefix. h2 is
// forced odd so the probe sequence covers every index for power-of-two
// widths too.
func (s *Sketch) hashes(p netip.Prefix) (uint64, uint64) {
	b := p.Addr().As16()
	hi := binary.BigEndian.Uint64(b[0:8])
	lo := binary.BigEndian.Uint64(b[8:16])
	h1 := splitmix(s.cfg.Seed ^ hi ^ rot(lo, 31) ^ uint64(p.Bits()))
	h2 := splitmix(h1^0x9e3779b97f4a7c15) | 1
	return h1, h2
}

func rot(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }

// splitmix is the splitmix64 finaliser: cheap, well-distributed, seedable.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newest returns the generation receiving observes, creating the first one
// lazily so a sketch that never sees traffic stays empty.
func (s *Sketch) newest(ts time.Time) *generation {
	if len(s.gens) == 0 {
		s.gens = append(s.gens, s.cfg.newGeneration(ts))
	}
	return s.gens[len(s.gens)-1]
}

// Observe folds one observation of the masked source prefix p, weight w,
// into the newest generation: count-min counters and Bloom membership.
func (s *Sketch) Observe(p netip.Prefix, w float64, ts time.Time) {
	g := s.newest(ts)
	h1, h2 := s.hashes(p)
	for i := 0; i < s.cfg.Depth; i++ {
		idx := (h1 + uint64(i)*h2) % uint64(s.cfg.Width)
		g.rows[i*s.cfg.Width+int(idx)] += w
	}
	bits := s.cfg.bloomBits()
	for i := 0; i < s.cfg.Depth; i++ {
		bit := (h1 + uint64(i+s.cfg.Depth)*h2) % bits
		g.bloom[bit/64] |= 1 << (bit % 64)
	}
	s.observes++
}

// contains reports whether one generation's Bloom filter holds p.
func (s *Sketch) contains(g *generation, h1, h2 uint64) bool {
	bits := s.cfg.bloomBits()
	for i := 0; i < s.cfg.Depth; i++ {
		bit := (h1 + uint64(i+s.cfg.Depth)*h2) % bits
		if g.bloom[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Contains reports whether p was (probably) observed inside the retained
// window. False positives occur at the Bloom rate; never false negatives.
func (s *Sketch) Contains(p netip.Prefix) bool {
	h1, h2 := s.hashes(p)
	for _, g := range s.gens {
		if s.contains(g, h1, h2) {
			return true
		}
	}
	return false
}

// FirstSeen returns the start time of the oldest retained generation whose
// Bloom filter holds p — a coarse, never-later-than-actual first-seen
// timestamp bounded by the window. The second result is false when p is in
// no generation.
func (s *Sketch) FirstSeen(p netip.Prefix) (time.Time, bool) {
	h1, h2 := s.hashes(p)
	for _, g := range s.gens {
		if s.contains(g, h1, h2) {
			return g.start, true
		}
	}
	return time.Time{}, false
}

// Estimate returns the count-min estimate of p's total observed weight
// across the retained window: an overestimate by at most ε·N with
// probability 1−δ per generation, where N is that generation's mass.
func (s *Sketch) Estimate(p netip.Prefix) float64 {
	h1, h2 := s.hashes(p)
	var sum float64
	for _, g := range s.gens {
		est := math.Inf(1)
		for i := 0; i < s.cfg.Depth; i++ {
			idx := (h1 + uint64(i)*h2) % uint64(s.cfg.Width)
			if v := g.rows[i*s.cfg.Width+int(idx)]; v < est {
				est = v
			}
		}
		if !math.IsInf(est, 1) {
			sum += est
		}
	}
	return sum
}

// Rotate starts a new generation at ts and drops generations beyond the
// configured ring length. The engine calls it once per stage-2 cycle, so a
// generation is one cycle of evidence and the window spans
// Generations·T ≥ E.
func (s *Sketch) Rotate(ts time.Time) {
	s.gens = append(s.gens, s.cfg.newGeneration(ts))
	for len(s.gens) > s.cfg.Generations {
		s.gens = s.gens[1:]
	}
}

// Reset drops all generations (used when the engine restores a checkpoint
// without a sketch section).
func (s *Sketch) Reset() { s.gens = nil }

// sectionMagicV1 guards the persisted sketch section; the section is
// self-describing (config included) so the fuzz round-trip target can
// exercise it standalone.
const sectionVersion = 1

// EncodeState appends the sketch section to enc: config, then every
// generation in ring order. Deterministic by construction — the arrays are
// fixed-order and there are no maps.
func (s *Sketch) EncodeState(enc *persist.Encoder) {
	enc.Uvarint(sectionVersion)
	enc.Uvarint(uint64(s.cfg.Width))
	enc.Uvarint(uint64(s.cfg.Depth))
	enc.Uvarint(uint64(s.cfg.Generations))
	enc.Uvarint(s.cfg.Seed)
	enc.Uvarint(s.observes)
	enc.Uvarint(uint64(len(s.gens)))
	for _, g := range s.gens {
		enc.Time(g.start)
		for _, v := range g.rows {
			enc.Float64(v)
		}
		for _, w := range g.bloom {
			enc.Uvarint(w)
		}
	}
}

// DecodeState reads a sketch section written by EncodeState and returns
// the reconstructed sketch. Every length is validated against the decoded
// config before allocation.
func DecodeState(dec *persist.Decoder) (*Sketch, error) {
	ver, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: section version: %w", err)
	}
	if ver != sectionVersion {
		return nil, fmt.Errorf("sketch: unsupported section version %d", ver)
	}
	var cfg Config
	if cfg.Width, err = decodeInt(dec); err != nil {
		return nil, fmt.Errorf("sketch: width: %w", err)
	}
	if cfg.Depth, err = decodeInt(dec); err != nil {
		return nil, fmt.Errorf("sketch: depth: %w", err)
	}
	if cfg.Generations, err = decodeInt(dec); err != nil {
		return nil, fmt.Errorf("sketch: generations: %w", err)
	}
	if cfg.Seed, err = dec.Uvarint(); err != nil {
		return nil, fmt.Errorf("sketch: seed: %w", err)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if s.observes, err = dec.Uvarint(); err != nil {
		return nil, fmt.Errorf("sketch: observes: %w", err)
	}
	n, err := dec.Len()
	if err != nil {
		return nil, fmt.Errorf("sketch: generation count: %w", err)
	}
	if n > s.cfg.Generations {
		return nil, fmt.Errorf("sketch: %d generations exceed ring length %d", n, s.cfg.Generations)
	}
	for i := 0; i < n; i++ {
		g := s.cfg.newGeneration(time.Time{})
		if g.start, err = dec.Time(); err != nil {
			return nil, fmt.Errorf("sketch: generation %d start: %w", i, err)
		}
		for j := range g.rows {
			if g.rows[j], err = dec.Float64(); err != nil {
				return nil, fmt.Errorf("sketch: generation %d row: %w", i, err)
			}
		}
		for j := range g.bloom {
			if g.bloom[j], err = dec.Uvarint(); err != nil {
				return nil, fmt.Errorf("sketch: generation %d bloom: %w", i, err)
			}
		}
		s.gens = append(s.gens, g)
	}
	return s, nil
}

func decodeInt(dec *persist.Decoder) (int, error) {
	v, err := dec.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<24 {
		return 0, fmt.Errorf("value %d out of range", v)
	}
	return int(v), nil
}
