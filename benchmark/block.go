package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
	"ipd/internal/topology"
	"ipd/internal/trafficgen"
)

// datagram is one pre-encoded export packet of a block. The payload is
// rewritten in place by block.setReplay; nothing else touches it after
// packing.
type datagram struct {
	payload []byte
	from    netip.AddrPort
	feed    int   // index into block.feedRecords
	replay  int32 // replay index the payload's time and sequence fields encode
	ipfix   bool  // IPFIX message; otherwise a NetFlow v5 datagram
	scan    bool  // carries the spoofed scan, not generated traffic
	recLen  int   // IPFIX data record length (0 for v5 and template messages)
}

// exportSecs reads the header's export time.
func (d *datagram) exportSecs() int64 {
	if d.ipfix {
		return int64(binary.BigEndian.Uint32(d.payload[ipfixExportOff:]))
	}
	return int64(binary.BigEndian.Uint32(d.payload[v5UnixSecsOff:]))
}

// block is the replayable unit of load: blockMin virtual minutes of
// generated traffic, already packed into wire datagrams. Replaying it with
// setReplay(d, k) moves every timestamp k block-lengths forward and advances
// every exporter's sequence counter by k blocks' worth of records, so the
// collector sees one continuous export stream while the timed region pays
// for none of the traffic generation.
type block struct {
	dgrams   []datagram
	preamble []datagram // IPFIX template messages, sent once before replay 0
	records  int        // data records per replay, the scan included
	span     time.Duration
	// feedRecords[i] is exporter i's record count per replay: the amount its
	// sequence counter advances from one replay to the next.
	feedRecords []uint32
	routers     []flow.RouterID // every exporting router, in order of first appearance
	// truth is a 1-in-truthEvery sample of the generated (not the spoofed)
	// records, with their ground-truth ingress, for verdict accuracy.
	truth []flow.Record
	topo  *topology.T
}

const truthEvery = 8

// exporterAddr is the synthetic UDP source of a router's export feed.
func exporterAddr(r flow.RouterID) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 255, byte(r >> 8), byte(r)})
}

// packer is what both wire encoders offer the block builder.
type packer interface {
	Add(flow.Record) error
	Flush() error
}

// buildBlock generates sh.blockMin virtual minutes of the workload's traffic
// from seed and packs them into export datagrams. Exporters flush at every
// minute boundary (an export timeout), so no datagram's header time trails
// its records by more than a minute and statistical time drops nothing.
func buildBlock(w workload, sh shape, seed int64) (*block, error) {
	scen, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		return nil, err
	}
	blk := &block{span: time.Duration(sh.blockMin) * time.Minute, topo: scen.Topo}
	// A feed is one sequence space: a router's generated traffic, or the
	// scan entering over that router (packed apart, like a second export
	// engine, so a replay can leave the scan out).
	type feedKey struct {
		router flow.RouterID
		scan   bool
	}
	feedOf := map[feedKey]int{}
	known := map[flow.RouterID]bool{}
	emit := func(router flow.RouterID, scan bool, payload []byte, recLen, records int) {
		if !known[router] {
			known[router] = true
			blk.routers = append(blk.routers, router)
		}
		i, ok := feedOf[feedKey{router, scan}]
		if !ok {
			i = len(blk.feedRecords)
			feedOf[feedKey{router, scan}] = i
			blk.feedRecords = append(blk.feedRecords, 0)
		}
		blk.feedRecords[i] += uint32(records)
		blk.records += records
		blk.dgrams = append(blk.dgrams, datagram{
			payload: payload,
			from:    netip.AddrPortFrom(exporterAddr(router), 2055),
			feed:    i,
			ipfix:   w.ipfix,
			scan:    scan,
			recLen:  recLen,
		})
	}

	start := scen.Start.Add(20 * time.Hour)
	newV5 := func(scan bool) (packer, error) {
		return trafficgen.NewV5Packer(trafficgen.FaultSpec{}, start,
			func(router flow.RouterID, payload []byte, _ time.Time) {
				emit(router, scan, payload, 0, (len(payload)-netflow.HeaderLen)/netflow.RecordLen)
			})
	}
	var pk, scanPk packer
	if w.ipfix {
		pk = newIPFIXPacker(func(router flow.RouterID, payload []byte, recLen, records int) {
			emit(router, false, payload, recLen, records)
		})
	} else if pk, err = newV5(false); err != nil {
		return nil, err
	}
	if w.scanPerFlow > 0 {
		if scanPk, err = newV5(true); err != nil {
			return nil, err
		}
	}
	flush := func() error {
		if err := pk.Flush(); err != nil || scanPk == nil {
			return err
		}
		return scanPk.Flush()
	}

	gen := trafficgen.GenConfig{
		// The elephant comes on top of the steady mix, not out of it.
		FlowsPerMinute: int(float64(sh.flowsPerMin) / (1 - w.hotFraction)),
		NoiseFraction:  0.002,
		Seed:           seed,
		IPv6Fraction:   w.ipv6Fraction,
		HotFraction:    w.hotFraction,
	}
	ifaces := scen.Topo.Interfaces()
	scanRng := rand.New(rand.NewPCG(uint64(seed), 0x5ca9))
	scanDebt := 0.0
	minute := start
	n := 0
	var addErr error
	err = scen.Stream(start, start.Add(blk.span), gen, func(rec flow.Record) bool {
		if m := rec.Ts.Truncate(time.Minute); m.After(minute) {
			minute = m
			if addErr = flush(); addErr != nil {
				return false
			}
		}
		if n%truthEvery == 0 {
			blk.truth = append(blk.truth, flow.Record{Ts: rec.Ts, Src: rec.Src, In: rec.In})
		}
		n++
		if addErr = pk.Add(rec); addErr != nil {
			return false
		}
		// The spoofed scan rides between the generated records at a fixed
		// ratio: never-repeating random /32 sources from 200.0.0.0/8 (outside
		// every scenario AS), each entering over a random border interface so
		// the scanned space can never agree on an ingress.
		for scanDebt += w.scanPerFlow; scanDebt >= 1; scanDebt-- {
			v := scanRng.Uint64()
			scan := flow.Record{
				Ts:      minute.Add(time.Duration(scanRng.Int64N(int64(time.Minute)))),
				Src:     netip.AddrFrom4([4]byte{200, byte(v >> 16), byte(v >> 8), byte(v)}),
				Dst:     netip.AddrFrom4([4]byte{100, 64, byte(v >> 32), byte(v >> 24)}),
				In:      ifaces[scanRng.IntN(len(ifaces))].In,
				Bytes:   40,
				Packets: 1,
			}
			if addErr = scanPk.Add(scan); addErr != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = addErr
	}
	if err == nil {
		err = flush()
	}
	if err != nil {
		return nil, fmt.Errorf("build block: %w", err)
	}
	if w.ipfix {
		// One template message per exporter, ahead of its first data message.
		for _, router := range blk.routers {
			msg, err := ipfix.NewMessageBuilder(uint32(router)).TemplateMessage(
				uint32(start.Unix()), ipfix.DefaultTemplateV4, ipfix.DefaultTemplateV6)
			if err != nil {
				return nil, err
			}
			blk.preamble = append(blk.preamble, datagram{payload: msg, from: netip.AddrPortFrom(exporterAddr(router), 2055), ipfix: true})
		}
	}
	return blk, nil
}

// Byte offsets of the fields setReplay rewrites.
const (
	v5UnixSecsOff    = 8
	v5FlowSeqOff     = 16
	ipfixExportOff   = 4
	ipfixSequenceOff = 8
	ipfixRecordsOff  = ipfix.MessageHeaderLen + ipfix.SetHeaderLen
)

// setReplay rewrites d in place so it belongs to replay r of the block: the
// export time (and, for IPFIX, every record's flowStartMilliseconds, which
// closes each record of the default templates) moves by whole block spans,
// the exporter sequence by whole blocks of that exporter's records. The
// arithmetic wraps, so r may also lie before the replay d currently encodes.
func (b *block) setReplay(d *datagram, r int32) {
	k := r - d.replay
	if k == 0 {
		return
	}
	d.replay = r
	secs := uint32(k) * uint32(b.span/time.Second)
	seq := uint32(k) * b.feedRecords[d.feed]
	p := d.payload
	if !d.ipfix {
		addUint32(p[v5UnixSecsOff:], secs)
		addUint32(p[v5FlowSeqOff:], seq)
		return
	}
	addUint32(p[ipfixExportOff:], secs)
	addUint32(p[ipfixSequenceOff:], seq)
	ms := uint64(int64(k)) * uint64(b.span/time.Millisecond)
	for off := ipfixRecordsOff + d.recLen - 8; off < len(p); off += d.recLen {
		binary.BigEndian.PutUint64(p[off:], binary.BigEndian.Uint64(p[off:])+ms)
	}
}

func addUint32(b []byte, v uint32) {
	binary.BigEndian.PutUint32(b, binary.BigEndian.Uint32(b)+v)
}

// ipfixPacker packs records into per-router IPFIX data messages, one
// template (address family) per message, with RFC 7011 sequence accounting
// shared across a router's two families. It mirrors trafficgen.V5Packer:
// messages are emitted in record-arrival order and Flush drains the partial
// ones in router order.
type ipfixPacker struct {
	emit  func(router flow.RouterID, payload []byte, recLen, records int)
	feeds map[flow.RouterID]*ipfixFeed
}

type ipfixFeed struct {
	mb     *ipfix.MessageBuilder
	v4, v6 []flow.Record
}

// Records per message: both keep a message near 1.1 KB, inside one MTU.
const (
	ipfixMaxV4 = 30
	ipfixMaxV6 = 18
)

func newIPFIXPacker(emit func(flow.RouterID, []byte, int, int)) *ipfixPacker {
	return &ipfixPacker{emit: emit, feeds: map[flow.RouterID]*ipfixFeed{}}
}

func (p *ipfixPacker) Add(rec flow.Record) error {
	f := p.feeds[rec.In.Router]
	if f == nil {
		f = &ipfixFeed{mb: ipfix.NewMessageBuilder(uint32(rec.In.Router))}
		p.feeds[rec.In.Router] = f
	}
	if rec.Src.Unmap().Is4() {
		f.v4 = append(f.v4, rec)
		if len(f.v4) >= ipfixMaxV4 {
			return p.flush(rec.In.Router, f, &f.v4, ipfix.DefaultTemplateV4)
		}
		return nil
	}
	f.v6 = append(f.v6, rec)
	if len(f.v6) >= ipfixMaxV6 {
		return p.flush(rec.In.Router, f, &f.v6, ipfix.DefaultTemplateV6)
	}
	return nil
}

func (p *ipfixPacker) Flush() error {
	routers := make([]flow.RouterID, 0, len(p.feeds))
	for r := range p.feeds {
		routers = append(routers, r)
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	for _, r := range routers {
		f := p.feeds[r]
		if err := p.flush(r, f, &f.v4, ipfix.DefaultTemplateV4); err != nil {
			return err
		}
		if err := p.flush(r, f, &f.v6, ipfix.DefaultTemplateV6); err != nil {
			return err
		}
	}
	return nil
}

func (p *ipfixPacker) flush(router flow.RouterID, f *ipfixFeed, pending *[]flow.Record, t ipfix.Template) error {
	recs := *pending
	if len(recs) == 0 {
		return nil
	}
	msg, err := f.mb.DataMessage(uint32(recs[0].Ts.Unix()), t, recs)
	if err != nil {
		return err
	}
	*pending = recs[:0]
	p.emit(router, msg, (len(msg)-ipfixRecordsOff)/len(recs), len(recs))
	return nil
}
