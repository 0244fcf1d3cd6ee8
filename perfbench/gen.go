package main

import (
	"sync/atomic"
	"time"

	"netalytics/internal/vnet"
)

// The six parsers of the mix, indexed as protocols throughout.
const (
	pHTTP = iota
	pMemcached
	pMySQL
	pRESP
	pDNS
	pTLS
	numProtos
)

var protoNames = [numProtos]string{"http_get", "memcached_get", "mysql_query", "resp_command", "dns_query", "tls_sni"}

// maxBurst bounds how many requests one generator wakeup sends, so a
// generator that fell behind catches up in bounded bursts.
const maxBurst = 256

// gen is the open-loop load generator: one goroutine sends request i at
// start + i/rate, builds its frames from templates and injects them. It is
// the only goroutine calling Network.Inject.
type gen struct {
	net     *vnet.Network
	rate    int64
	limit   uint32 // requests to send before stopping on its own
	startNS int64
	arena   arena

	burst      [][]byte
	burstProto []uint8

	frames atomic.Uint64
	sent   atomic.Uint32
	halted atomic.Bool
	done   chan struct{}

	// Read only after done is closed.
	late     []float64 // ms behind schedule, one sample per wakeup
	errs     int       // Inject errors
	injectNS int64     // time inside Network.Inject calls

	rec    *recorder // instrumented runs: frames kept for layer replays
	spans  *spans
	parent int
}

func newGen(net *vnet.Network, rate int64, limit uint32, sp *spans, parent int) *gen {
	return &gen{net: net, rate: rate, limit: limit, spans: sp, parent: parent, done: make(chan struct{})}
}

// sched is the scheduled send time (mono ns) of request i.
func (g *gen) sched(i uint32) int64 { return g.startNS + int64(i)*1e9/g.rate }

// emit appends one frame of protocol p to the current burst.
func (g *gen) emit(p int, raw []byte) {
	g.burst = append(g.burst, raw)
	g.burstProto = append(g.burstProto, uint8(p))
}

func (g *gen) start(startNS int64, request func(uint32, *gen)) {
	g.startNS = startNS
	go g.loop(request)
}

// halt stops the generator and waits for its goroutine to exit.
func (g *gen) halt() {
	g.halted.Store(true)
	<-g.done
}

func (g *gen) loop(request func(uint32, *gen)) {
	defer close(g.done)
	next := uint32(0)
	for !g.halted.Load() && next < g.limit {
		now := mono()
		due := uint32((now - g.startNS) * g.rate / 1e9)
		if due > g.limit {
			due = g.limit
		}
		if due <= next {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if due-next > maxBurst {
			due = next + maxBurst
		}
		g.late = append(g.late, float64(now-g.sched(next))/1e6)
		g.burst, g.burstProto = g.burst[:0], g.burstProto[:0]
		for i := next; i < due; i++ {
			request(i, g)
		}
		sp := g.spans.begin("vnet.Network.Inject", g.parent)
		t0 := mono()
		for _, raw := range g.burst {
			if err := g.net.Inject(raw); err != nil {
				g.errs++
			}
		}
		g.injectNS += mono() - t0
		g.spans.end(sp)
		if g.rec != nil {
			g.rec.add(g.burst, g.burstProto)
		}
		g.frames.Add(uint64(len(g.burst)))
		next = due
		g.sent.Store(next)
	}
}

// recorder keeps the injected frames of a traced run, in order, for the
// isolated layer replays.
type recorder struct {
	frames [][]byte
	protos []uint8
	per    [numProtos]int
}

// recordCap bounds the replay corpus per protocol.
const recordCap = 20000

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) add(frames [][]byte, protos []uint8) {
	for i, raw := range frames {
		p := protos[i]
		if r.per[p] >= recordCap {
			continue
		}
		r.per[p]++
		r.frames = append(r.frames, raw)
		r.protos = append(r.protos, p)
	}
}

// byProto returns the recorded frames of protocol p, in injection order.
func (r *recorder) byProto(p int) [][]byte {
	var out [][]byte
	for i, raw := range r.frames {
		if int(r.protos[i]) == p {
			out = append(out, raw)
		}
	}
	return out
}
