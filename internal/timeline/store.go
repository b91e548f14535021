// Package timeline is the longitudinal observability layer: a bounded,
// allocation-free in-process time-series store sampled at the end of every
// stage-2 cycle, plus the analytics that turn the history into operational
// signals — flap detection (ranges whose ingress classification oscillates),
// drift detection (EWMA shift of an ingress's traffic share), and
// convergence tracking (cycles from range creation to first classification).
//
// The paper's headline claims are longitudinal — ingress mappings matter
// because they are stable over weeks, and deviations are what operators act
// on — so the store keeps enough history to see them without unbounded
// memory: each series is three fixed rings, tier 0 at per-cycle resolution
// and each older tier folding downsample points of the tier below into one
// min/max/sum/count point. With the defaults (window 512, downsample 8) a
// series spans 512 + 512*8 + 512*64 ≈ 37k cycles ≈ 25 days at T=60s, in a
// few tens of KB.
//
// Collector binds the store and analyzer to a core engine via Config.OnCycle
// and the Config.OnEvent chain; all analytics consume only virtual-time
// inputs, so alerts are journaled events that replay byte-identically.
package timeline

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

const (
	// DefaultWindow is the per-tier ring length when Options.Window is 0.
	DefaultWindow = 512
	// downsample is the tier fold factor.
	downsample = 8
	// maxSeries bounds the series population (per-ingress series are
	// open-ended; the cap keeps a mis-mapped topology from minting series
	// without limit).
	maxSeries = 256
	// tiers is the number of resolution levels per series.
	tiers = 3
)

// Point is one aggregated observation: Span cycles starting at Cycle,
// carrying the min/max/sum/count of the folded raw values. Tier-0 points
// have Span 1 and Count 1 (min = max = sum = the raw sample).
type Point struct {
	Cycle uint64  `json:"cycle"`
	Unix  int64   `json:"unix"` // statistical time of the first folded sample
	Span  uint32  `json:"span"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count uint32  `json:"count"`
}

// Avg returns the mean of the folded raw values.
func (p Point) Avg() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

// series is one named metric: three preallocated rings plus the fold
// accumulators feeding tiers 1 and 2. Appends allocate nothing.
type series struct {
	name  string
	ring  [tiers][]Point // fixed length = window
	n     [tiers]uint64  // points ever pushed per tier
	acc   [tiers - 1]Point
	accN  [tiers - 1]int
	total uint64 // raw samples ever appended
}

func (s *series) push(tier int, p Point) {
	s.ring[tier][s.n[tier]%uint64(len(s.ring[tier]))] = p
	s.n[tier]++
}

// fold merges p into the accumulator feeding tier level+1 and flushes it
// upward when downsample points have been folded.
func (s *series) fold(level int, p Point) {
	a := &s.acc[level]
	if s.accN[level] == 0 {
		*a = p
	} else {
		if p.Min < a.Min {
			a.Min = p.Min
		}
		if p.Max > a.Max {
			a.Max = p.Max
		}
		a.Sum += p.Sum
		a.Count += p.Count
		a.Span += p.Span
	}
	s.accN[level]++
	if s.accN[level] < downsample {
		return
	}
	flushed := *a
	s.accN[level] = 0
	s.push(level+1, flushed)
	if level+1 < tiers-1 {
		s.fold(level+1, flushed)
	}
}

func (s *series) append(p Point) {
	s.total++
	s.push(0, p)
	s.fold(0, p)
}

// oldestRetained returns the cycle of the oldest point retained in tier, or
// (0, false) when the tier is empty.
func (s *series) oldestRetained(tier int) (uint64, bool) {
	if s.n[tier] == 0 {
		return 0, false
	}
	w := uint64(len(s.ring[tier]))
	if s.n[tier] < w {
		return s.ring[tier][0].Cycle, true
	}
	return s.ring[tier][s.n[tier]%w].Cycle, true
}

// window appends the retained points covering [from, to] to out, walking the
// tiers coarse to fine: each tier hands over to the next finer populated tier
// at the first point the finer tier fully covers, and a point whose span was
// already emitted by a coarser tier is skipped — so seams between tiers are
// contiguous and never double-covered, per-cycle resolution where tier 0
// still has it, downsampled history beyond. Points come out sorted by Cycle.
func (s *series) window(from, to uint64, out []Point) []Point {
	var starts [tiers]uint64
	var has [tiers]bool
	for tier := 0; tier < tiers; tier++ {
		starts[tier], has[tier] = s.oldestRetained(tier)
	}
	mark := len(out)
	// covered is the exclusive upper end of the span emitted so far; ring
	// retention is per-point, so a finer tier's oldest point may start inside
	// a coarse fold — the coarse point is emitted whole and the straddled
	// fine points skip.
	covered := uint64(0)
	for tier := tiers - 1; tier >= 0; tier-- {
		if !has[tier] {
			continue
		}
		// finer coverage boundary: the oldest retained point of the next
		// finer populated tier.
		finer := uint64(0)
		hasFiner := false
		for ft := tier - 1; ft >= 0; ft-- {
			if has[ft] {
				finer, hasFiner = starts[ft], true
				break
			}
		}
		w := uint64(len(s.ring[tier]))
		n := s.n[tier]
		cnt := n
		if cnt > w {
			cnt = w
		}
		for i := uint64(0); i < cnt; i++ {
			p := s.ring[tier][(n-cnt+i)%w]
			if p.Cycle < covered {
				continue // a coarser point already spans these cycles
			}
			if hasFiner && finer <= p.Cycle {
				break // the finer tier covers from here on, at better resolution
			}
			covered = p.Cycle + uint64(p.Span)
			if p.Cycle > to || p.Cycle+uint64(p.Span)-1 < from {
				continue
			}
			out = append(out, p)
		}
	}
	sort.Slice(out[mark:], func(i, j int) bool {
		return out[mark+i].Cycle < out[mark+j].Cycle
	})
	return out
}

// Store holds the named series under one RWMutex: single writer (the
// collector's OnCycle), concurrent readers (HTTP handlers, CSV export).
type Store struct {
	mu     sync.RWMutex
	window int

	byName map[string]*series
	names  []string // insertion order; sorted views sort a copy

	points  uint64 // raw samples appended across all series
	dropped uint64 // appends refused because the series cap was reached
}

// NewStore builds a store with the given per-tier ring length (0 means
// DefaultWindow).
func NewStore(window int) *Store {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Store{
		window: window,
		byName: make(map[string]*series),
	}
}

// Window returns the per-tier ring length.
func (st *Store) Window() int { return st.window }

// Downsample returns the tier fold factor.
func (st *Store) Downsample() int { return downsample }

// Append records one raw sample for the named series at the given cycle.
// Unknown names create the series unless the cap is reached (accounted in
// DroppedSeries — a capped append is dropped, never mis-filed).
func (st *Store) Append(name string, cycle uint64, unix int64, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.byName[name]
	if s == nil {
		if len(st.byName) >= maxSeries {
			st.dropped++
			return
		}
		s = &series{name: name}
		for t := 0; t < tiers; t++ {
			s.ring[t] = make([]Point, st.window)
		}
		st.byName[name] = s
		st.names = append(st.names, name)
	}
	s.append(Point{Cycle: cycle, Unix: unix, Span: 1, Min: v, Max: v, Sum: v, Count: 1})
	st.points++
}

// Names returns the series names, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, len(st.names))
	copy(out, st.names)
	sort.Strings(out)
	return out
}

// Len returns the number of series.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.byName)
}

// Points returns the total number of raw samples appended.
func (st *Store) Points() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.points
}

// DroppedSeries returns how many appends were refused at the series cap.
func (st *Store) DroppedSeries() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.dropped
}

// Get returns the retained points of one series covering cycles [from, to]
// (to == 0 means no upper bound), finest available resolution, sorted by
// cycle. Unknown names return nil.
func (st *Store) Get(name string, from, to uint64) []Point {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.byName[name]
	if s == nil {
		return nil
	}
	if to == 0 {
		to = ^uint64(0)
	}
	return s.window(from, to, nil)
}

// Series is the exported view of one series' windowed points.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// WindowAll returns the windowed points of the named series (all series when
// names is empty), sorted by series name.
func (st *Store) WindowAll(names []string, from, to uint64) []Series {
	if len(names) == 0 {
		names = st.Names()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	out := make([]Series, 0, len(names))
	for _, n := range names {
		pts := st.Get(n, from, to)
		if pts == nil {
			continue
		}
		out = append(out, Series{Name: n, Points: pts})
	}
	return out
}

// WriteCSV streams the windowed points of the named series (all when names
// is empty) as CSV with the header
// series,cycle,unix,span,min,max,avg,count — the export the EXPERIMENTS.md
// figures consume.
func (st *Store) WriteCSV(w io.Writer, names []string, from, to uint64) error {
	if _, err := io.WriteString(w, "series,cycle,unix,span,min,max,avg,count\n"); err != nil {
		return err
	}
	for _, s := range st.WindowAll(names, from, to) {
		for _, p := range s.Points {
			_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%s,%s,%s,%d\n",
				s.Name, p.Cycle, p.Unix, p.Span,
				strconv.FormatFloat(p.Min, 'g', -1, 64),
				strconv.FormatFloat(p.Max, 'g', -1, 64),
				strconv.FormatFloat(p.Avg(), 'g', -1, 64),
				p.Count)
			if err != nil {
				return err
			}
		}
	}
	return nil
}
