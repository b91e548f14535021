package trafficgen

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
)

// GenConfig parameterizes flow-stream generation.
type GenConfig struct {
	// FlowsPerMinute is the average sampled-flow rate before diurnal
	// modulation (the deployment sees ~32M/min; laptop-scale experiments
	// use 3k-50k).
	FlowsPerMinute int
	// NoiseFraction is the share of flows entering via a random wrong
	// link (spoofed/abnormal traffic the q parameter must absorb).
	NoiseFraction float64
	// Seed individualizes the stream (flow arrivals, per-flow salt) while
	// the *mapping* stays a function of the scenario seed.
	Seed int64
	// Diurnal enables the daily volume pattern (on for realism, off for
	// load tests).
	Diurnal bool
	// IPv6Fraction is the share of a dual-stacked AS's flows sourced from
	// its IPv6 space (v4-only ASes ignore it).
	IPv6Fraction float64
	// HotFraction, when positive, redirects that share of flows to source
	// from HotPrefix — a synthetic elephant aggregate for exercising the
	// workload profiler's heavy-hitter and hot-prefix-alert paths. Ground
	// truth is unaffected: hot flows still enter through the ingress the
	// scenario routes their source to.
	HotFraction float64
	// HotPrefix is the elephant's source aggregate. The zero value picks
	// the first /24 of the first AS's first IPv4 prefix, which is always
	// inside the scenario's routed space.
	HotPrefix netip.Prefix
}

// DefaultGenConfig is suitable for tests and examples.
func DefaultGenConfig() GenConfig {
	return GenConfig{FlowsPerMinute: 5000, NoiseFraction: 0.005, Seed: 1, Diurnal: true, IPv6Fraction: 0.1}
}

func (c GenConfig) validate() error {
	if c.FlowsPerMinute <= 0 {
		return fmt.Errorf("trafficgen: FlowsPerMinute must be positive, got %d", c.FlowsPerMinute)
	}
	if c.NoiseFraction < 0 || c.NoiseFraction >= 1 {
		return fmt.Errorf("trafficgen: NoiseFraction %v out of [0,1)", c.NoiseFraction)
	}
	if c.IPv6Fraction < 0 || c.IPv6Fraction > 1 {
		return fmt.Errorf("trafficgen: IPv6Fraction %v out of [0,1]", c.IPv6Fraction)
	}
	if c.HotFraction < 0 || c.HotFraction >= 1 {
		return fmt.Errorf("trafficgen: HotFraction %v out of [0,1)", c.HotFraction)
	}
	return nil
}

// defaultHotPrefix returns the built-in elephant aggregate: the first /24 of
// the first AS's first IPv4 prefix (or that prefix itself when it is already
// /24 or longer).
func (s *Scenario) defaultHotPrefix() netip.Prefix {
	for _, a := range s.ASes {
		for _, p := range a.Prefixes {
			if p.Bits() >= 24 {
				return p.Masked()
			}
			return netip.PrefixFrom(p.Masked().Addr(), 24)
		}
	}
	return netip.Prefix{}
}

// hotAddr draws a uniform address inside the hot aggregate.
func hotAddr(p netip.Prefix, rng *splitMix) netip.Addr {
	bits := 32
	if p.Addr().Is6() {
		bits = 64 // bound the offset; a /48's low 16 host bits still vary
	}
	span := uint64(1)
	if p.Bits() < bits {
		shift := uint(bits - p.Bits())
		if shift > 32 {
			shift = 32 // keep offsets well inside the prefix
		}
		span = uint64(1) << shift
	}
	return netaddr.NthAddr(p, rng.next()%span)
}

// Stream generates the sampled flow records of [start, end) minute by
// minute and passes each to fn; generation stops early if fn returns false.
// Records are ordered by minute only: inside a minute each carries a random
// offset and comes in generation order, not in timestamp order.
// Records carry the ground-truth ingress (a flow trace *is* ground truth:
// it is captured at the ingress router).
func (s *Scenario) Stream(start, end time.Time, cfg GenConfig, fn func(flow.Record) bool) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if !end.After(start) {
		return fmt.Errorf("trafficgen: end %v not after start %v", end, start)
	}
	picker := s.newASPicker()
	rng := newSplitMix(uint64(cfg.Seed) ^ 0xfeedface)
	allIfaces := s.Topo.Interfaces()

	hot := cfg.HotPrefix
	if cfg.HotFraction > 0 && !hot.IsValid() {
		hot = s.defaultHotPrefix()
		if !hot.IsValid() {
			return fmt.Errorf("trafficgen: HotFraction set but the scenario has no IPv4 prefix to default HotPrefix from")
		}
	}

	for minute := start.Truncate(time.Minute); minute.Before(end); minute = minute.Add(time.Minute) {
		n := cfg.FlowsPerMinute
		if cfg.Diurnal {
			n = int(float64(n)*DiurnalFactor(minute) + 0.5)
		}
		for i := 0; i < n; i++ {
			ts := minute.Add(time.Duration(rng.next() % uint64(time.Minute)))
			if ts.Before(start) || !ts.Before(end) {
				ts = minute
			}
			a := picker.pick(rng.float())
			var src netip.Addr
			switch {
			case cfg.HotFraction > 0 && rng.float() < cfg.HotFraction:
				src = hotAddr(hot, rng)
			case len(a.Prefixes6) > 0 && cfg.IPv6Fraction > 0 && rng.float() < cfg.IPv6Fraction:
				src = s.randomSource6(a, ts, rng)
			default:
				src = s.randomSource(a, ts, rng)
			}
			salt := rng.next()
			in, ok := s.Ingress(src, ts, salt)
			if !ok {
				continue
			}
			if cfg.NoiseFraction > 0 && rng.float() < cfg.NoiseFraction {
				in = allIfaces[int(rng.next()%uint64(len(allIfaces)))].In
			}
			// LAG behaviour: traffic toward a bundled interface hashes
			// across the bundle's members per flow. IPD folds the members
			// back into one logical ingress (§3.2); disabling that folding
			// is the bundle ablation bench.
			if itf, ok := s.Topo.Interface(in); ok && itf.Bundle != 0 {
				members := s.Topo.BundleMembers(itf.Bundle)
				if len(members) > 1 {
					in = members[int(rng.next()%uint64(len(members)))]
				}
			}
			rec := flow.Record{
				Ts:      ts,
				Src:     src,
				Dst:     randomDst(rng),
				In:      in,
				Bytes:   flowBytes(rng),
				Packets: 1,
			}
			if !fn(rec) {
				return nil
			}
		}
	}
	return nil
}

// Records is Stream collected into a slice (convenience for tests and
// examples; prefer Stream for long horizons).
func (s *Scenario) Records(start, end time.Time, cfg GenConfig) ([]flow.Record, error) {
	var out []flow.Record
	err := s.Stream(start, end, cfg, func(r flow.Record) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// randomSource draws a source address inside AS a: prefix by Zipf rank,
// unit by a squared-uniform bias (a few units dominate, as CDN server
// blocks do), host uniform inside the unit.
func (s *Scenario) randomSource(a *AS, ts time.Time, rng *splitMix) netip.Addr {
	p := a.Prefixes[zipfIndex(rng.float(), len(a.Prefixes))]
	unitBits := a.UnitBits
	if unitBits < p.Bits() {
		unitBits = p.Bits()
	}
	nUnits := netaddr.SubPrefixCount(p, unitBits)
	hostSpan := uint64(1) << uint(32-unitBits)
	// Retry a few times to find a unit active this month; inactive units
	// source no traffic (address-space churn).
	for attempt := 0; attempt < 8; attempt++ {
		u := uint64(float64(nUnits-1) * rng.float() * rng.float()) // biased to low indices
		unit := netaddr.NthSubPrefix(p, unitBits, u)
		addr := netaddr.NthAddr(unit, rng.next()%hostSpan)
		if s.UnitActive(addr, ts) {
			return addr
		}
	}
	// Fall back to an arbitrary address in the prefix (keeps the stream
	// rate independent of the active fraction).
	span := uint64(1) << uint(32-p.Bits())
	return netaddr.NthAddr(p, rng.next()%span)
}

// randomSource6 draws an IPv6 source inside AS a: prefix by Zipf rank,
// /48 unit biased to low indices, random interface identifier.
func (s *Scenario) randomSource6(a *AS, ts time.Time, rng *splitMix) netip.Addr {
	p := a.Prefixes6[zipfIndex(rng.float(), len(a.Prefixes6))]
	unitBits := a.UnitBits6
	if unitBits < p.Bits() {
		unitBits = p.Bits()
	}
	span := uint64(1) << uint(unitBits-p.Bits())
	for attempt := 0; attempt < 8; attempt++ {
		u := uint64(float64(span-1) * rng.float() * rng.float())
		b := p.Masked().Addr().As16()
		// Write the unit index into bits [p.Bits(), unitBits) of the top
		// 64 bits (unitBits <= 48 < 64, and the masked prefix has zeros
		// there).
		hi := beUint64(b[:8]) | u<<uint(64-unitBits)
		putBEUint64(b[:8], hi)
		// Random interface identifier.
		lo := rng.next()
		putBEUint64(b[8:], lo)
		addr := netip.AddrFrom16(b)
		if s.UnitActive(addr, ts) {
			return addr
		}
	}
	b := p.Masked().Addr().As16()
	putBEUint64(b[8:], rng.next())
	return netip.AddrFrom16(b)
}

func beUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func putBEUint64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// randomDst draws a destination inside the ISP's customer space
// (100.64.0.0/10): a Zipf-lite /24 choice and a uniform host. Destinations
// matter only to the §5.8 load-balancing detector (IPD itself deliberately
// ignores them).
func randomDst(rng *splitMix) netip.Addr {
	unit := uint64(float64(1<<12-1) * rng.float() * rng.float()) // /24 index inside /10... bounded to 4096 units
	host := rng.next() % 256
	v := uint64(100)<<24 | uint64(64)<<16 | unit<<8 | host
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// zipfIndex maps a uniform u to an index with Zipf(1) weights.
func zipfIndex(u float64, n int) int {
	if n <= 1 {
		return 0
	}
	// Precomputing harmonic sums per call is cheap for small n.
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	target := u * h
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / float64(i)
		if acc >= target {
			return i - 1
		}
	}
	return n - 1
}

// flowBytes draws a flow size: lognormal-ish body with a heavy tail,
// bounded to the uint32 counter the record carries.
func flowBytes(rng *splitMix) uint32 {
	// Box-Muller from two uniforms.
	u1, u2 := rng.float(), rng.float()
	if u1 <= 0 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	b := math.Exp(7.2 + 1.1*z) // median ~1.3 KB
	if b < 64 {
		b = 64
	}
	if b > 1<<30 {
		b = 1 << 30
	}
	return uint32(b)
}

// asPicker samples ASes by weight via a cumulative table.
type asPicker struct {
	cum  []float64
	ases []*AS
}

func (s *Scenario) newASPicker() *asPicker {
	p := &asPicker{ases: s.ASes}
	total := 0.0
	for _, a := range s.ASes {
		total += a.Weight
	}
	acc := 0.0
	for _, a := range s.ASes {
		acc += a.Weight / total
		p.cum = append(p.cum, acc)
	}
	return p
}

func (p *asPicker) pick(u float64) *AS {
	i := sort.SearchFloat64s(p.cum, u)
	if i >= len(p.ases) {
		i = len(p.ases) - 1
	}
	return p.ases[i]
}
