// Package swcache implements the switch cache extension the paper's
// conclusion proposes: combining DRESAR with the authors' earlier
// switch cache framework (Iyer & Bhuyan, HPCA-5) so that switches
// serve not only dirty blocks (by re-routing to the owner) but also
// recently read *clean* data directly from a small SRAM data cache.
//
// Each participating switch caches the payload of read replies that
// flow through it. A later read request that hits is sunk and answered
// with a marked ReadReply from the switch — no home-node hop, no DRAM.
//
// Coherence: an entry is dropped whenever any message that can change
// or transfer the block passes the switch (write requests and replies,
// CtoC requests, copybacks, writebacks, invalidations). This is
// sufficient only for switches that every write to the block must
// traverse — in the two-stage dance-hall BMIN, exactly the top (memory
// side) switches: every WriteReq to block b passes TopOf(home(b)).
// The default StageMask therefore enables only stage 1; enabling leaf
// switches would require a sharer-style tracking protocol (the GLOW/
// MIND direction the paper contrasts itself with).
//
// A hit generates two messages: the marked data reply to the
// requester, and an *add-sharer note* (a marked, data-bearing copyback
// from the requester's address) to the home, which folds the new
// sharer into the full map — or, if ownership moved in the window,
// purges the requester's copy with an invalidation. This lets the
// requester cache switch-served blocks like any other fill while the
// map stays exact.
package swcache

import (
	"fmt"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

// Config sizes the per-switch data caches.
type Config struct {
	// Entries is the block count per switch.
	Entries int
	// Ways is the set associativity.
	Ways int
	// StageMask selects participating stages; 0 means top stage only
	// (the only placement that is self-coherent in this topology).
	StageMask uint
}

// DefaultConfig returns a 512-entry 4-way top-stage cache (16KB of
// data per switch at 32-byte blocks — SRAM comparable to the paper's
// switch buffering).
func DefaultConfig() Config {
	return Config{Entries: 512, Ways: 4}
}

// Stats counts switch-cache events across the fabric.
type Stats struct {
	Inserts     uint64
	Hits        uint64 // reads served from a switch cache
	Invalidates uint64
	Evictions   uint64
}

type entry struct {
	tag     uint64
	version uint64
	valid   bool
	lru     uint64
}

type dcache struct {
	sets  [][]entry
	nsets uint64
	clock uint64

	// stats is the fabric's counter set, shared by every switch.
	stats *Stats
}

func (d *dcache) find(b uint64) *entry {
	set := d.sets[(b>>5)%d.nsets]
	for i := range set {
		if set[i].valid && set[i].tag == b {
			return &set[i]
		}
	}
	return nil
}

// Fabric implements xbar.Snooper for the switch-cache protocol.
type Fabric struct {
	cfg    Config
	tp     *topo.T
	caches []*dcache
	stats  Stats
}

// TotalStats reports the fabric-wide counters.
func (f *Fabric) TotalStats() Stats { return f.stats }

// New builds the fabric.
func New(tp *topo.T, cfg Config) (*Fabric, error) {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("swcache: bad geometry %+v", cfg)
	}
	nsets := cfg.Entries / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("swcache: set count %d not a power of two", nsets)
	}
	if cfg.StageMask == 0 {
		cfg.StageMask = 1 << uint(tp.Stages-1) // top stage only: self-coherent
	}
	f := &Fabric{cfg: cfg, tp: tp, caches: make([]*dcache, tp.NumSwitches())}
	for i := range f.caches {
		d := &dcache{sets: make([][]entry, nsets), nsets: uint64(nsets), stats: &f.stats}
		for s := range d.sets {
			d.sets[s] = make([]entry, cfg.Ways)
		}
		f.caches[i] = d
	}
	return f, nil
}

// MustNew panics on error.
func MustNew(tp *topo.T, cfg Config) *Fabric {
	f, err := New(tp, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Fabric) active(sw topo.SwitchID) bool {
	return f.cfg.StageMask&(1<<uint(sw.Stage)) != 0
}

// Snoop implements xbar.Snooper.
func (f *Fabric) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	if !f.active(sw) {
		return xbar.Action{}
	}
	d := f.caches[f.tp.SwitchOrdinal(sw)]
	switch m.Kind {
	case mesg.ReadReply:
		f.insert(d, m.Addr, m.Data)
	case mesg.ReadReq:
		if e := d.find(m.Addr); e != nil {
			d.stats.Hits++
			d.clock++
			e.lru = d.clock
			return xbar.Action{
				Sink: true,
				Generated: []*mesg.Message{
					{
						Kind: mesg.ReadReply, Addr: m.Addr, Src: m.Src, Dst: mesg.P(m.Requester),
						Requester: m.Requester, Data: e.version, Marked: true,
						SwitchCache: true, Issued: m.Issued,
					},
					// Add-sharer note: a marked copyback tells the home
					// the requester now holds a shared copy, so the full
					// map stays exact and the requester may cache the
					// block. If ownership moved meanwhile, the home's
					// stale-copyback purge invalidates the requester.
					{
						Kind: mesg.CopyBack, Addr: m.Addr, Src: mesg.P(m.Requester), Dst: m.Dst,
						Requester: m.Requester, Data: e.version, Marked: true,
					},
				},
			}
		}
	case mesg.WriteReq, mesg.WriteReply, mesg.CtoCReq, mesg.CtoCReply,
		mesg.CopyBack, mesg.WriteBack, mesg.Inval:
		// Any message implying the block is (becoming) dirty somewhere
		// kills the cached clean copy. CtoCReply matters even though it
		// travels processor-to-processor: it proves an owner holds a
		// version newer than the one cached here, so serving later
		// reads from this entry would hand out stale data.
		if e := d.find(m.Addr); e != nil {
			d.stats.Invalidates++
			e.valid = false
		}
	case mesg.InvalAck, mesg.WBAck, mesg.Nack, mesg.Retry:
		// Data-free control traffic: carries no version information.
	}
	return xbar.Action{}
}

func (f *Fabric) insert(d *dcache, b, version uint64) {
	set := d.sets[(b>>5)%d.nsets]
	v := &set[0]
	for i := range set {
		if set[i].valid && set[i].tag == b {
			v = &set[i]
			break
		}
		if !set[i].valid {
			v = &set[i]
			break
		}
		if set[i].lru < v.lru {
			v = &set[i]
		}
	}
	if v.valid && v.tag != b {
		d.stats.Evictions++
	}
	d.clock++
	*v = entry{tag: b, version: version, valid: true, lru: d.clock}
	d.stats.Inserts++
}

// Lookup exposes an entry for tests.
func (f *Fabric) Lookup(sw topo.SwitchID, b uint64) (uint64, bool) {
	if e := f.caches[f.tp.SwitchOrdinal(sw)].find(b); e != nil {
		return e.version, true
	}
	return 0, false
}

// Combined chains the switch directory and the switch cache on the
// same fabric, as the paper's conclusion envisions: the directory
// handles dirty blocks; a read that misses the directory may still hit
// clean data in the cache. Either may be nil.
type Combined struct {
	Dir   xbar.Snooper
	Cache xbar.Snooper
}

// Snoop implements xbar.Snooper: the directory sees the message first
// (its Table-1 semantics must not be bypassed); if the message
// survives, the cache gets it. Delays add; the first sink wins.
func (c Combined) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	var out xbar.Action
	if c.Dir != nil {
		out = c.Dir.Snoop(sw, m, now)
		if out.Sink {
			return out
		}
	}
	if c.Cache != nil {
		a := c.Cache.Snoop(sw, m, now)
		out.ExtraDelay += a.ExtraDelay
		out.Generated = append(out.Generated, a.Generated...)
		out.Sink = a.Sink
	}
	return out
}
