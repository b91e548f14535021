package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/persist"
	"ipd/internal/sketch"
)

// Checkpoint container: magic "IPDC", version 2, then a binner-present
// flag, the engine section, and (for Server checkpoints) the binner
// section. The persist codec wraps the whole container in a CRC-32 guard,
// so a torn or bit-rotten checkpoint is rejected before any field decodes.
//
// Version 2 added the sketch tier: per-range state-mode fields (sketched
// flag, hysteresis counter, vote ring, classification provenance), the
// per-IP first-seen timestamp, and an engine-level shared-sketch section,
// so kill-and-restore round-trips sketched runs byte-identically. Version 1
// payloads are not readable; the version gate rejects them up front.
const (
	checkpointMagic   = 0x49504443 // "IPDC"
	checkpointVersion = 2
)

// Seq returns the sequence number of the last emitted lifecycle event; a
// checkpoint taken now covers exactly events 1..Seq, so journal-tail replay
// starts after it.
func (e *Engine) Seq() uint64 { return e.seq }

// Cycles returns the number of stage-2 cycles run so far (an atomic load,
// safe concurrently with ingest).
func (e *Engine) Cycles() uint64 { return e.tel.cycles.Value() }

// MarshalState serializes the full engine partition — both families
// with all per-range and per-IP state, the event sequence, the cycle
// counter, and the statistical clock — into a CRC-guarded checkpoint
// payload. The encoding is deterministic: identical engine states produce
// identical bytes (maps are written in sorted order), which is what lets
// the kill-and-restore equivalence test compare runs byte-for-byte.
func (e *Engine) MarshalState() []byte {
	enc := persist.NewEncoder(checkpointMagic, checkpointVersion)
	enc.Bool(false) // no binner section
	e.encodeState(enc)
	return enc.Finish()
}

// UnmarshalState replaces the engine's partition and clocks with the state
// in a MarshalState payload. The decode is all-or-nothing: on any error the
// engine is unchanged. Cumulative telemetry counters are not restored (they
// describe this process's work, not the algorithm state); the active-range
// gauges are refreshed to match the restored partition.
func (e *Engine) UnmarshalState(data []byte) error {
	e.guardReentry()
	dec, err := persist.NewDecoder(data, checkpointMagic, checkpointVersion)
	if err != nil {
		return err
	}
	hasBinner, err := dec.Bool()
	if err != nil {
		return err
	}
	if hasBinner {
		return fmt.Errorf("core: checkpoint carries binner state; restore it through Server.RestoreCheckpoint")
	}
	st, err := e.decodeState(dec)
	if err != nil {
		return err
	}
	if err := dec.Finish(); err != nil {
		return err
	}
	e.commitState(st)
	return nil
}

// encodeState writes the engine section: clocks, counters, and every active
// range in canonical (family, address, length) order.
func (e *Engine) encodeState(enc *persist.Encoder) {
	enc.Uvarint(e.seq)
	enc.Uvarint(e.cycleID)
	enc.Bool(e.started)
	enc.Time(e.now)
	enc.Time(e.lastCycle)

	// The index order — IPv4 before IPv6, ascending address — is the
	// canonical order.
	enc.Uvarint(uint64(e.idx.len()))
	for _, rs := range e.idx.all {
		encodeRange(enc, rs)
	}

	// Shared-sketch section: the fixed-memory tier's window must survive a
	// kill, or restored sketched ranges would lose their per-source
	// evidence and cap-refused first-seen timestamps.
	enc.Bool(e.sk != nil)
	if e.sk != nil {
		e.sk.EncodeState(enc)
	}
}

// engineRestore is a fully decoded engine section, not yet committed.
type engineRestore struct {
	seq       uint64
	cycleID   uint64
	started   bool
	now       time.Time
	lastCycle time.Time
	idx       *rangeIndex
	// sk is the decoded shared-sketch section; nil when the checkpoint was
	// taken with the sketch tier disabled.
	sk *sketch.Sketch
}

// decodeState decodes the engine section into fresh structures without
// touching the engine, so callers can stage multiple sections and commit
// only when everything decoded cleanly.
func (e *Engine) decodeState(dec *persist.Decoder) (engineRestore, error) {
	var st engineRestore
	var err error
	if st.seq, err = dec.Uvarint(); err != nil {
		return st, fmt.Errorf("core: restore seq: %w", err)
	}
	if st.cycleID, err = dec.Uvarint(); err != nil {
		return st, fmt.Errorf("core: restore cycle id: %w", err)
	}
	if st.started, err = dec.Bool(); err != nil {
		return st, fmt.Errorf("core: restore started: %w", err)
	}
	if st.now, err = dec.Time(); err != nil {
		return st, fmt.Errorf("core: restore now: %w", err)
	}
	if st.lastCycle, err = dec.Time(); err != nil {
		return st, fmt.Errorf("core: restore last cycle: %w", err)
	}
	n, err := dec.Len()
	if err != nil {
		return st, fmt.Errorf("core: restore range count: %w", err)
	}
	var ranges []*rangeState
	for i := 0; i < n; i++ {
		rs, err := decodeRange(dec)
		if err != nil {
			return st, fmt.Errorf("core: restore range %d: %w", i, err)
		}
		ranges = append(ranges, rs)
	}
	// Ranges may arrive in any order, but they must tile both families: a
	// gap or an overlap would mis-attribute traffic silently.
	if st.idx, err = buildIndex(ranges); err != nil {
		return st, err
	}
	hasSketch, err := dec.Bool()
	if err != nil {
		return st, fmt.Errorf("core: restore sketch flag: %w", err)
	}
	if hasSketch {
		if st.sk, err = sketch.DecodeState(dec); err != nil {
			return st, fmt.Errorf("core: restore sketch: %w", err)
		}
	}
	return st, nil
}

func (e *Engine) commitState(st engineRestore) {
	e.idx = st.idx
	e.seq = st.seq
	e.cycleID = st.cycleID
	e.started = st.started
	e.now = st.now
	e.lastCycle = st.lastCycle
	// Adopt the checkpoint's sketch window when both sides have the tier:
	// the decoded state (including its sizing) wins, so a restored run
	// continues the exact window the killed run had. A checkpoint without
	// a section resets the tier; a section restored into a sketchless
	// engine is dropped, and the first cycle hydrates the sketched ranges.
	if e.sk != nil {
		if st.sk != nil {
			e.sk = st.sk
		} else {
			e.sk.Reset()
		}
	}
	// Rebuild the live per-IP population counter from the restored
	// partition (the one walk this counter's existence saves every cycle).
	e.ipCount = 0
	sketched := 0
	for _, rs := range e.idx.all {
		e.ipCount += len(rs.ips)
		if rs.sketched {
			sketched++
		}
	}
	e.tel.activeRanges.Set(int64(e.idx.len()))
	e.tel.ipStates.Set(int64(e.IPStateCount()))
	if e.sk != nil {
		e.tel.sketchRanges.Set(int64(sketched))
		e.tel.sketchBytes.Set(int64(e.sk.Bytes()))
	}
}

// encodeRange writes one rangeState; all maps go out in sorted order so the
// encoding is deterministic.
func encodeRange(enc *persist.Encoder, rs *rangeState) {
	enc.Prefix(rs.prefix)
	enc.Bool(rs.classified)
	encodeIngress(enc, rs.ingress)
	enc.Time(rs.classifiedAt)
	enc.Time(rs.lastSeen)
	enc.Time(rs.bornAt)
	enc.Float64(rs.total)
	enc.Float64(rs.byteTotal)
	encodeCounters(enc, rs.counters)
	enc.Bool(rs.ips != nil)
	if rs.ips != nil {
		keys := make([]netaddr.Key, 0, len(rs.ips))
		for k := range rs.ips {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		enc.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			st := rs.ips[k]
			enc.Prefix(k.Prefix())
			encodeCounters(enc, st.counters)
			enc.Float64(st.total)
			enc.Time(st.lastSeen)
			enc.Time(st.firstSeen)
		}
	}
	// Sketch-tier mode fields (checkpoint v2).
	enc.Bool(rs.sketched)
	enc.Uvarint(uint64(rs.sketchCalm))
	enc.Bool(rs.classifiedSketched)
	enc.Bool(rs.ring != nil)
	if rs.ring != nil {
		encodeVoteRing(enc, rs.ring)
	}
}

func decodeRange(dec *persist.Decoder) (*rangeState, error) {
	p, err := dec.Prefix()
	if err != nil {
		return nil, err
	}
	rs := newRangeState(netaddr.KeyOf(p))
	if rs.classified, err = dec.Bool(); err != nil {
		return nil, err
	}
	if rs.ingress, err = decodeIngress(dec); err != nil {
		return nil, err
	}
	if rs.classifiedAt, err = dec.Time(); err != nil {
		return nil, err
	}
	if rs.lastSeen, err = dec.Time(); err != nil {
		return nil, err
	}
	if rs.bornAt, err = dec.Time(); err != nil {
		return nil, err
	}
	if rs.total, err = dec.Float64(); err != nil {
		return nil, err
	}
	if rs.byteTotal, err = dec.Float64(); err != nil {
		return nil, err
	}
	if err = decodeCounters(dec, &rs.counters); err != nil {
		return nil, err
	}
	hasIPs, err := dec.Bool()
	if err != nil {
		return nil, err
	}
	if !hasIPs {
		rs.ips = nil
	} else {
		n, err := dec.Len()
		if err != nil {
			return nil, err
		}
		rs.ips = make(map[netaddr.Key]*ipState, n)
		for i := 0; i < n; i++ {
			kp, err := dec.Prefix()
			if err != nil {
				return nil, err
			}
			st := newIPState(time.Time{})
			if err = decodeCounters(dec, &st.counters); err != nil {
				return nil, err
			}
			if st.total, err = dec.Float64(); err != nil {
				return nil, err
			}
			if st.lastSeen, err = dec.Time(); err != nil {
				return nil, err
			}
			if st.firstSeen, err = dec.Time(); err != nil {
				return nil, err
			}
			rs.ips[netaddr.KeyOf(kp)] = st
		}
	}
	// Sketch-tier mode fields (checkpoint v2).
	if rs.sketched, err = dec.Bool(); err != nil {
		return nil, err
	}
	calm, err := dec.Uvarint()
	if err != nil {
		return nil, err
	}
	if calm > 1<<20 {
		return nil, fmt.Errorf("core: restore: sketch calm counter %d out of range", calm)
	}
	rs.sketchCalm = int(calm)
	if rs.classifiedSketched, err = dec.Bool(); err != nil {
		return nil, err
	}
	hasRing, err := dec.Bool()
	if err != nil {
		return nil, err
	}
	if hasRing {
		if rs.ring, err = decodeVoteRing(dec); err != nil {
			return nil, err
		}
	}
	if rs.sketched && rs.ips != nil {
		return nil, fmt.Errorf("core: restore: range %v is sketched but carries exact per-IP state", rs.prefix)
	}
	return rs, nil
}

func encodeIngress(enc *persist.Encoder, in flow.Ingress) {
	enc.Uvarint(uint64(in.Router))
	enc.Uvarint(uint64(in.Iface))
}

func decodeIngress(dec *persist.Decoder) (flow.Ingress, error) {
	router, err := dec.Uvarint()
	if err != nil {
		return flow.Ingress{}, err
	}
	iface, err := dec.Uvarint()
	if err != nil {
		return flow.Ingress{}, err
	}
	if router > 0xffff || iface > 0xffff {
		return flow.Ingress{}, fmt.Errorf("core: ingress id out of range (%d, %d)", router, iface)
	}
	return flow.Ingress{Router: flow.RouterID(router), Iface: flow.IfaceID(iface)}, nil
}

// encodeCounters writes a tally; the vector is already in (router, iface)
// order.
func encodeCounters(enc *persist.Encoder, v votes) {
	enc.Uvarint(uint64(len(v)))
	for _, x := range v {
		encodeIngress(enc, x.in)
		enc.Float64(x.n)
	}
}

// decodeCounters appends a tally to *v (empty on entry). Entries must arrive
// in the strictly ascending order encodeCounters writes: the vector's lookups
// depend on it.
func decodeCounters(dec *persist.Decoder, v *votes) error {
	n, err := dec.Len()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		in, err := decodeIngress(dec)
		if err != nil {
			return err
		}
		if i > 0 && ingressKey(in) <= ingressKey((*v)[i-1].in) {
			return fmt.Errorf("core: restore: tally entry %s is not above its predecessor %s", in, (*v)[i-1].in)
		}
		c, err := dec.Float64()
		if err != nil {
			return err
		}
		*v = append(*v, vote{in, c})
	}
	return nil
}

// encodeVoteRing writes the ring: its capacity, then each generation's tally
// and total, oldest first.
func encodeVoteRing(enc *persist.Encoder, r *voteRing) {
	enc.Uvarint(uint64(r.max))
	enc.Uvarint(uint64(len(r.gens)))
	for _, g := range r.gens {
		encodeCounters(enc, g.votes)
		enc.Float64(g.total)
	}
}

// decodeVoteRing reads a ring written by encodeVoteRing, rejecting a
// capacity outside the sketch's generation range and a generation count the
// capacity cannot hold.
func decodeVoteRing(dec *persist.Decoder) (*voteRing, error) {
	max, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("core: restore: vote ring max: %w", err)
	}
	if max < 2 || max > 64 {
		return nil, fmt.Errorf("core: restore: vote ring max %d out of range [2, 64]", max)
	}
	n, err := dec.Len()
	if err != nil {
		return nil, fmt.Errorf("core: restore: vote ring length: %w", err)
	}
	if n < 1 || n > int(max) {
		return nil, fmt.Errorf("core: restore: vote ring holds %d generations, want 1..%d", n, max)
	}
	r := &voteRing{max: int(max), gens: make([]voteGen, n)}
	for i := range r.gens {
		if err := decodeCounters(dec, &r.gens[i].votes); err != nil {
			return nil, fmt.Errorf("core: restore: vote ring generation %d: %w", i, err)
		}
		if r.gens[i].total, err = dec.Float64(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ApplyEvent folds one recorded lifecycle event into the engine's partition
// without emitting anything. It is the one interpreter of the decision log:
// after restoring a checkpoint covering events 1..Seq, applying the
// journal's events with Seq greater than that is the tail replay of crash
// recovery; applying a whole log from seq 1 to a fresh engine built with
// OnEvent nil (so it starts at seq 0) is the offline replay.
//
// The partition, each range's classification, and its sketch provenance
// (what DiffPartitions compares) are exact. Sample counters for ranges
// touched only by replayed events are approximate (rebuilt from the event's
// Reason: the observed share and sample count at decision time), because
// the journal records decisions, not every observed flow; fresh traffic
// re-fills them within a cycle or two.
func (e *Engine) ApplyEvent(ev Event) error {
	e.guardReentry()
	if ev.Seq <= e.seq {
		return fmt.Errorf("core: apply event seq %d out of order (engine at %d)", ev.Seq, e.seq)
	}
	if ev.Kind == EventGovernor || ev.Kind == EventAlertRaised || ev.Kind == EventAlertCleared {
		// Governor transitions and analytics alerts describe the pipeline's
		// self-observation, not a partition mutation (and drift alerts carry
		// no prefix at all): they change no range, only the event clocks
		// below.
		e.finishApply(ev)
		return nil
	}
	p, err := netip.ParsePrefix(ev.Prefix)
	if err != nil {
		return fmt.Errorf("core: apply event seq %d: bad prefix: %v", ev.Seq, err)
	}
	k := netaddr.KeyOf(p)
	i := e.idx.pos(k)
	rs := e.idx.all[i] // the active range k starts in: k itself, if active
	merge := ev.Kind == EventJoined || ev.Kind == EventDropped || ev.Kind == EventCompacted
	if rs.key != k && !merge {
		return fmt.Errorf("core: apply event seq %d (%s): %s is not an active range", ev.Seq, ev.Kind, ev.Prefix)
	}
	switch ev.Kind {
	case EventCreated:
		// Only the two family roots are ever created, and they always exist.
	case EventSplit, EventJoined, EventDropped, EventCompacted:
		// Structural: the event must name k's two halves. A merge needs both
		// active: the low half starts where k does, so it is the range just
		// found, and the high half is the next slot.
		lo, hi, ok := k.Children()
		if children, err := parseChildren(ev); err != nil {
			return err
		} else if !ok || children != [2]netaddr.Key{lo, hi} {
			return fmt.Errorf("core: apply event seq %d: %v are not the children of %s", ev.Seq, ev.Children, ev.Prefix)
		}
		if !merge {
			e.ipCount -= len(rs.ips)
			e.idx.rewrite(func(out []*rangeState, old *rangeState) []*rangeState {
				if old != rs {
					return append(out, old)
				}
				cl, ch := newRangeState(lo), newRangeState(hi)
				cl.bornAt, ch.bornAt = ev.At, ev.At
				return append(out, cl, ch)
			})
			break
		}
		if rs.key != lo || i+1 == len(e.idx.all) || e.idx.all[i+1].key != hi {
			return fmt.Errorf("core: apply event seq %d merges a range that is not active (%v)", ev.Seq, ev.Children)
		}
		sib := e.idx.all[i+1]
		e.ipCount -= len(rs.ips) + len(sib.ips)
		m := newRangeState(k)
		m.bornAt = ev.At
		if ev.Kind == EventJoined {
			m.classified = true
			m.ingress = ev.Ingress
			m.classifiedAt = ev.At
			m.lastSeen = ev.At
			m.ips = nil
			// Sketch provenance is sticky across joins, as in tryJoin.
			m.classifiedSketched = rs.classifiedSketched || sib.classifiedSketched
			approximateCounters(m, ev)
		}
		e.idx.join(i, m)
		e.idx.compact()
	case EventClassified:
		rs.classified = true
		rs.ingress = ev.Ingress
		rs.classifiedAt = ev.At
		e.ipCount -= len(rs.ips)
		rs.ips = nil
		// A classification taken in sketched mode keeps that provenance and
		// leaves the tier, as in cycleUnclassified.
		rs.classifiedSketched = rs.sketched
		rs.sketched, rs.sketchCalm, rs.ring = false, 0, nil
		if ev.At.After(rs.lastSeen) {
			rs.lastSeen = ev.At
		}
		approximateCounters(rs, ev)
	case EventInvalidated, EventExpired, EventQuarantined:
		e.unclassify(rs, ev.At)
	case EventStateMode:
		// Mode flips are partition-neutral; like the sample counters, the
		// replayed per-source evidence is approximate (the exact map or
		// vote ring contents at decision time are not journaled) and fresh
		// traffic re-fills it.
		switch ev.Detail {
		case StateModeSketched:
			e.ipCount -= len(rs.ips)
			rs.ips = nil
			rs.sketched = true
			rs.sketchCalm = 0
			if e.sk != nil {
				rs.ring = newVoteRing(e.sk.Config().Generations)
			}
		case StateModeExact:
			rs.sketched = false
			rs.sketchCalm = 0
			rs.ring = nil
			if rs.ips == nil {
				rs.ips = make(map[netaddr.Key]*ipState)
			}
		default:
			return fmt.Errorf("core: apply event seq %d has unknown state mode %q", ev.Seq, ev.Detail)
		}
	default:
		return fmt.Errorf("core: apply event seq %d has unknown kind %d", ev.Seq, ev.Kind)
	}
	e.finishApply(ev)
	return nil
}

// finishApply advances the event and statistical clocks after a replayed
// event mutated (or, for governor events, deliberately did not mutate) the
// partition.
func (e *Engine) finishApply(ev Event) {
	e.seq = ev.Seq
	if ev.Cycle > e.cycleID {
		e.cycleID = ev.Cycle
	}
	if ev.At.After(e.now) {
		e.now = ev.At
		e.started = true
		e.lastCycle = ev.At.Truncate(e.cfg.T)
	}
}

// approximateCounters rebuilds a classified range's vote state from the
// decision event's reason: total samples and the prevalent share at
// decision time.
func approximateCounters(rs *rangeState, ev Event) {
	rs.counters = nil
	rs.total = ev.Reason.Samples
	if rs.total > 0 {
		rs.counters = votes{{ev.Ingress, ev.Reason.Observed * ev.Reason.Samples}}
	}
}

// parseChildren returns the keys of a structural event's two children.
func parseChildren(ev Event) (keys [2]netaddr.Key, err error) {
	if len(ev.Children) != 2 {
		return keys, fmt.Errorf("core: apply event seq %d carries %d children, want 2", ev.Seq, len(ev.Children))
	}
	for i, c := range ev.Children {
		cp, err := netip.ParsePrefix(c)
		if err != nil {
			return keys, fmt.Errorf("core: apply event seq %d: bad child prefix: %v", ev.Seq, err)
		}
		keys[i] = netaddr.KeyOf(cp)
	}
	return keys, nil
}

// EncodeCheckpoint serializes the full server state — the engine partition
// plus the statistical-time binner's open buckets — as one CRC-guarded
// payload, and returns it with the covered event sequence (the checkpoint
// file's rotation key). Safe concurrently with RunQueue: it takes the server
// lock for the in-memory encode only; writing the payload to disk is the
// caller's (off-lock) business.
func (s *Server) EncodeCheckpoint() ([]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc := persist.NewEncoder(checkpointMagic, checkpointVersion)
	enc.Bool(true) // binner section present
	s.eng.encodeState(enc)
	s.bin.EncodeState(enc)
	return enc.Finish(), s.eng.seq
}

// RestoreCheckpoint replaces the engine partition and the binner's open
// buckets with a checkpoint payload (either a Server checkpoint or a bare
// Engine.MarshalState payload, which simply has no buckets to restore).
// All-or-nothing: on error the server is unchanged.
func (s *Server) RestoreCheckpoint(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dec, err := persist.NewDecoder(data, checkpointMagic, checkpointVersion)
	if err != nil {
		return err
	}
	hasBinner, err := dec.Bool()
	if err != nil {
		return err
	}
	// Stage the engine section; commit it only after the binner section (its
	// own all-or-nothing restore) also decoded, so a payload corrupt past the
	// engine section leaves the whole server unchanged.
	st, err := s.eng.decodeState(dec)
	if err != nil {
		return err
	}
	if hasBinner {
		if err := s.bin.RestoreState(dec); err != nil {
			return err
		}
	}
	if err := dec.Finish(); err != nil {
		return err
	}
	s.eng.commitState(st)
	return nil
}

// ApplyEvent applies one journal-tail event under the server lock (see
// Engine.ApplyEvent).
func (s *Server) ApplyEvent(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.ApplyEvent(ev)
}

// Seq returns the engine's last emitted event sequence number.
func (s *Server) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.seq
}
