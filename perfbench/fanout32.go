package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"netalytics/internal/proto"
	"netalytics/internal/tuple"
)

const (
	fanQueries = 32
	fanStable  = 28 // slots 28..31 are churned during the timed phase
	// Every standing query times the results of one in latSampleEvery of
	// its requests: each query's monitor flush and window tick run at their
	// own phase, so sampling all of them keeps the percentiles from
	// depending on a few queries' timer alignment.
	latSampleEvery = 7
	fanKeys        = 16          // URLs per server
	fanSlots       = 4 * fanKeys // web servers × URLs per server
	churnPause     = 10 * time.Millisecond
)

// fanout32 runs 32 group-count queries, each over 2 of the 4 web servers,
// so every frame matches 16 of them, while a control-plane client keeps
// replacing 4 of them under live traffic. Request i carries URL slot
// perm[i mod 64], so the n-th request of a slot is computable and a
// cumulative group count maps back to the requests it reflects.
type fanout32 struct {
	seed    int64
	r       *rep
	rng     *rand.Rand
	perm    [fanSlots]uint8
	permInv [fanSlots]uint32
	tpl     [numClients][4]*template

	invalid atomic.Int64
	results atomic.Int64
	covered [fanStable]atomic.Int64 // sum of a standing query's counts

	// Consumer-only state per standing slot.
	resolved [fanQueries][fanSlots]uint32
	lat      [fanStable][]fanSample
}

// fanSample is one observed request latency.
type fanSample struct {
	req   uint32
	latUS int32
}

func newFanout32(seed int64) *fanout32 { return &fanout32{seed: seed} }

// rate keeps the workload near a third of a 2-core machine: each frame
// costs ~80 µs of CPU across its 16 matching queries.
func (f *fanout32) rate() int64         { return 6000 }
func (f *fanout32) warm() time.Duration { return time.Second }
func (f *fanout32) churns() bool        { return true }

// servers returns the two web servers query slot q covers.
func fanServers(q int) (int, int) {
	return q % len(webServers), (q + 1) % len(webServers)
}

func fanQuery(q int) string {
	a, b := fanServers(q)
	return fmt.Sprintf("PARSE http_get FROM * TO %s:80, %s:80 PROCESS (group-count: group=key)", webServers[a], webServers[b])
}

func (f *fanout32) queries() []string {
	out := make([]string, fanQueries)
	for q := range out {
		out[q] = fanQuery(q)
	}
	return out
}

func (f *fanout32) begin(r *rep, _ uint32) {
	f.r = r
	f.rng = rand.New(rand.NewSource(f.seed))
	for i, p := range f.rng.Perm(fanSlots) {
		f.perm[i] = uint8(p)
		f.permInv[p] = uint32(i)
	}
	f.resolved = [fanQueries][fanSlots]uint32{}
	for o := range f.lat {
		f.lat[o] = f.lat[o][:0]
	}
	f.invalid.Store(0)
	f.results.Store(0)
	for q := range f.covered {
		f.covered[q].Store(0)
	}
	topo := r.tb.Topology()
	for c, cn := range clientHosts {
		ca := topo.HostByName(cn).Addr
		for s, sn := range webServers {
			f.tpl[c][s] = tcpTemplate(ca, topo.HostByName(sn).Addr, 1, 80, proto.BuildHTTPGet("/g/"+placeholder, "web"))
		}
	}
}

func (f *fanout32) request(i uint32, g *gen) {
	slot := int(f.perm[i%fanSlots])
	c := f.rng.Intn(numClients)
	port := uint16(1024 + f.rng.Intn(pooledPorts))
	g.emit(pHTTP, g.arena.frame(f.tpl[c][slot/fanKeys], port, 0, uint32(slot), 0))
}

// sentOf is how many requests of slot were among the first n sent.
func (f *fanout32) sentOf(slot int, n uint32) uint32 {
	first := f.permInv[slot]
	if n <= first {
		return 0
	}
	return (n-first-1)/fanSlots + 1
}

// result checks one group-count tuple. Query slots below fanQueries are
// the standing queries; higher ones are churn replacements of slot
// fanStable + (q-fanQueries)%4.
func (f *fanout32) result(q int, t tuple.Tuple, now int64) {
	f.results.Add(1)
	pos := q
	if q >= fanQueries {
		pos = fanStable + (q-fanQueries)%(fanQueries-fanStable)
	}
	slot32, ok := numIn(t.Key, "/g/", "")
	slot := int(slot32)
	a, b := fanServers(pos)
	if !ok || slot >= fanSlots || (slot/fanKeys != a && slot/fanKeys != b) || t.Val < 1 {
		f.invalid.Add(1)
		return
	}
	n := uint32(t.Val)
	// sent is published after a burst's Inject calls, so a result may
	// already reflect up to one burst more.
	if n > f.sentOf(slot, f.r.gen.sent.Load()+maxBurst) {
		f.invalid.Add(1)
		return
	}
	if q >= fanStable {
		return // churned: counts start mid-stream, only bounds are checkable
	}
	// Standing queries saw every request from the first: counts are
	// cumulative and must never shrink.
	prev := f.resolved[q][slot]
	if n < prev {
		f.invalid.Add(1)
		return
	}
	for ord := prev; ord < n; ord++ {
		if req := ord*fanSlots + f.permInv[slot]; req%latSampleEvery == uint32(q%latSampleEvery) {
			f.lat[q] = append(f.lat[q], fanSample{req, int32((now - f.r.gen.sched(req)) / 1000)})
		}
	}
	f.resolved[q][slot] = n
	f.covered[q].Add(int64(n - prev))
}

// during is the control-plane client: it keeps replacing the churned
// query slots, one Stop and one Submit back to back, then a fixed pause.
func (f *fanout32) during(r *rep, stop <-chan struct{}) {
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-time.After(churnPause):
		}
		pos := fanStable + n%(fanQueries-fanStable)
		r.mu.Lock()
		old := r.sessions[pos]
		r.mu.Unlock()
		r.stop(old, r.root, true)
		s, err := r.submit(fanQuery(pos), r.root, true)
		if err != nil {
			fatalf("fanout32 churn: %v", err)
		}
		c := r.countersOf(old)
		r.mu.Lock()
		r.sessions[pos] = s
		r.retired.add(c)
		r.mu.Unlock()
		r.consume(fanQueries+n, s)
	}
}

func (f *fanout32) after(*rep) {}

// settled reports that every standing query counted every request.
func (f *fanout32) settled(r *rep) bool {
	sent := r.gen.sent.Load()
	for q := range f.covered {
		want := uint32(0)
		a, b := fanServers(q)
		for slot := 0; slot < fanSlots; slot++ {
			if slot/fanKeys == a || slot/fanKeys == b {
				want += f.sentOf(slot, sent)
			}
		}
		if f.covered[q].Load() != int64(want) {
			return false
		}
	}
	return true
}

// check compares each standing query's final cumulative group counts with
// the exact number of requests sent per URL on its servers.
func (f *fanout32) check(r *rep) (attempted, failed int) {
	sent := r.gen.sent.Load()
	wrong := 0
	for q := 0; q < fanStable; q++ {
		a, b := fanServers(q)
		for slot := 0; slot < fanSlots; slot++ {
			if slot/fanKeys != a && slot/fanKeys != b {
				continue
			}
			attempted++
			if f.resolved[q][slot] != f.sentOf(slot, sent) {
				wrong++
			}
		}
	}
	if wrong > 0 || f.invalid.Load() > 0 {
		fmt.Printf("# fanout32 oracle: %d of %d final group counts wrong, %d invalid result tuples\n",
			wrong, attempted, f.invalid.Load())
	}
	return attempted + int(f.results.Load()), wrong + int(f.invalid.Load())
}

func (f *fanout32) latencies(_ *rep, from, to uint32) []float64 {
	var out []float64
	for o := range f.lat {
		for _, s := range f.lat[o] {
			if s.req >= from && s.req < to {
				out = append(out, float64(s.latUS)/1000)
			}
		}
	}
	return out
}
