package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	netalytics "netalytics"
	"netalytics/internal/proto"
	"netalytics/internal/tuple"
)

const (
	topkWindow = 2 * time.Second
	topkK      = 10
	catalogue  = 1_000_000
	zipfS      = 1.1
	auditKeys  = 20
	// The bottom ten audit keys get counts near lowBase, the top ten near
	// highBase, with distinct counts step apart. The gap keeps the top ten
	// ahead of the rest throughout the shuffled burst, so a top key's
	// absence from a ranking is the pipeline's delay, not rank churn.
	lowBase      = 200
	highBase     = 2000
	auditStep    = 100
	auditRate    = 60000
	quietGap     = topkWindow + 500*time.Millisecond
	auditTimeout = 1100 * time.Millisecond
)

// Topk phases, as seen by the result consumer.
const (
	phaseZipf = iota
	phaseQuiet
	phaseAudit
)

// topk drives one top-k query over four web servers with Zipf URLs from a
// large catalogue on pooled flows. After the timed phase and a quiet gap of
// more than one window, an audit burst with known exact per-key counts must
// come back as the exact top-10 ranking.
type topk struct {
	seed int64
	rng  *rand.Rand
	zipf *rand.Zipf

	tpl, auditTpl [numClients][4]*template

	phase    atomic.Int32
	invalid  atomic.Int64
	rankings atomic.Int64
	matched  atomic.Bool

	// Audit plan, written before the audit generator starts.
	want     [auditKeys]int
	auditSeq []uint8             // key of each audit request
	ordReq   [auditKeys][]uint32 // audit request index of each key occurrence
	expected []netalytics.RankEntry
	audit    *gen

	// Consumer-only state.
	resolved [auditKeys]int
	lat      []float64
	last     []netalytics.RankEntry
}

func newTopk(seed int64) *topk { return &topk{seed: seed} }

func (k *topk) rate() int64         { return 60000 }
func (k *topk) warm() time.Duration { return topkWindow }
func (k *topk) churns() bool        { return false }

func (k *topk) queries() []string {
	to := make([]string, len(webServers))
	for i, s := range webServers {
		to[i] = s + ":80"
	}
	return []string{fmt.Sprintf("PARSE http_get FROM * TO %s PROCESS (top-k: k=%d, w=%s)",
		strings.Join(to, ", "), topkK, topkWindow)}
}

func (k *topk) begin(r *rep, _ uint32) {
	k.rng = rand.New(rand.NewSource(k.seed))
	k.zipf = rand.NewZipf(k.rng, zipfS, 1, catalogue-1)
	k.phase.Store(phaseZipf)
	k.matched.Store(false)
	k.invalid.Store(0)
	k.rankings.Store(0)
	k.resolved = [auditKeys]int{}
	k.lat, k.last, k.audit = nil, nil, nil
	topo := r.tb.Topology()
	for c, cn := range clientHosts {
		ca := topo.HostByName(cn).Addr
		for s, sn := range webServers {
			sa := topo.HostByName(sn).Addr
			k.tpl[c][s] = tcpTemplate(ca, sa, 1, 80, proto.BuildHTTPGet("/z/"+placeholder, "web"))
			k.auditTpl[c][s] = tcpTemplate(ca, sa, 1, 80, proto.BuildHTTPGet("/a/"+placeholder, "web"))
		}
	}
}

// pooledFlow picks one of the persistent flows: client, server, port.
func pooledFlow(rng *rand.Rand, servers int) (c, s int, port uint16) {
	f := rng.Intn(numClients * servers * pooledPorts)
	return f / (servers * pooledPorts), f / pooledPorts % servers, uint16(1024 + f%pooledPorts)
}

func (k *topk) request(i uint32, g *gen) {
	c, s, port := pooledFlow(k.rng, len(webServers))
	g.emit(pHTTP, g.arena.frame(k.tpl[c][s], port, 0, uint32(k.zipf.Uint64()), 0))
}

func (k *topk) auditRequest(i uint32, g *gen) {
	c, s, port := pooledFlow(k.rng, len(webServers))
	g.emit(pHTTP, g.arena.frame(k.auditTpl[c][s], port, 0, uint32(k.auditSeq[i]), 0))
}

// planAudit draws distinct per-key counts and a shuffled send order.
func (k *topk) planAudit() {
	k.auditSeq = k.auditSeq[:0]
	for key := range k.want {
		base := lowBase
		if key >= auditKeys-topkK {
			base = highBase
		}
		k.want[key] = base + key%topkK*auditStep + k.rng.Intn(auditStep/2)
		for n := 0; n < k.want[key]; n++ {
			k.auditSeq = append(k.auditSeq, uint8(key))
		}
	}
	k.rng.Shuffle(len(k.auditSeq), func(a, b int) { k.auditSeq[a], k.auditSeq[b] = k.auditSeq[b], k.auditSeq[a] })
	for key := range k.ordReq {
		k.ordReq[key] = k.ordReq[key][:0]
	}
	for i, key := range k.auditSeq {
		k.ordReq[key] = append(k.ordReq[key], uint32(i))
	}
	k.expected = k.expected[:0]
	for key := auditKeys - 1; key >= auditKeys-topkK; key-- {
		k.expected = append(k.expected, netalytics.RankEntry{Key: "/a/" + num8(uint32(key)), Count: float64(k.want[key])})
	}
}

func (k *topk) result(_ int, t tuple.Tuple, now int64) {
	entries, ok := netalytics.DecodeRankings(t)
	if !ok {
		k.invalid.Add(1)
		return
	}
	k.rankings.Add(1)
	if k.phase.Load() != phaseAudit {
		for _, e := range entries {
			if _, ok := numIn(e.Key, "/z/", ""); !ok || e.Count < 1 {
				k.invalid.Add(1)
			}
		}
		return
	}
	// Inside the audit no Zipf key may remain in the window, and counts
	// only grow, so each entry's count is the number of that key's audit
	// requests reflected so far.
	for _, e := range entries {
		key, ok := numIn(e.Key, "/a/", "")
		if !ok || key >= auditKeys || int(e.Count) > k.want[key] {
			k.invalid.Add(1)
			continue
		}
		if key >= auditKeys-topkK { // latency only of keys the answer must show
			for ord := k.resolved[key]; ord < int(e.Count); ord++ {
				k.lat = append(k.lat, float64(now-k.audit.sched(k.ordReq[key][ord]))/1e6)
			}
		}
		if int(e.Count) > k.resolved[key] {
			k.resolved[key] = int(e.Count)
		}
	}
	k.last = entries
	if slices.Equal(entries, k.expected) {
		k.matched.Store(true)
	}
}

func (k *topk) during(*rep, <-chan struct{}) {}

// after runs the audit on the final testbed: a quiet gap longer than the
// window empties it, then the audit burst is sent at the Zipf rate and the
// exact top-10 must appear before the burst starts leaving the window.
func (k *topk) after(r *rep) {
	if !r.final {
		return
	}
	k.planAudit()
	k.phase.Store(phaseQuiet)
	time.Sleep(quietGap)
	k.audit = newGen(r.tb.Network(), auditRate, uint32(len(k.auditSeq)), r.b.spans, r.root)
	k.audit.rec = r.gen.rec
	k.phase.Store(phaseAudit)
	k.audit.start(mono(), k.auditRequest)
	<-k.audit.done
	r.b.genLate = append(r.b.genLate, k.audit.late...)
	r.b.injectErrs += k.audit.errs
	deadline := time.Now().Add(auditTimeout)
	for !k.matched.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

func (k *topk) settled(*rep) bool { return true }

// check also closes the frame ledger: every GET frame mirrored to the
// query's monitors must leave them as exactly one tuple.
func (k *topk) check(r *rep) (attempted, failed int) {
	frames := int(r.tb.Network().Stats().Mirrored)
	tuples := 0
	for _, s := range r.sessions {
		tuples += int(s.MonitorStats().Tuples)
	}
	attempted = frames + int(k.rankings.Load())
	failed = abs(frames-tuples) + int(k.invalid.Load())
	if r.final {
		attempted += topkK
		if !k.matched.Load() {
			failed += topkK
			fmt.Printf("# topk oracle: audit ranking %v, want %v\n", k.last, k.expected)
		}
	}
	if failed > 0 {
		fmt.Printf("# topk oracle: %d frames, %d tuples, %d invalid ranking entries\n", frames, tuples, k.invalid.Load())
	}
	return attempted, failed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (k *topk) latencies(*rep, uint32, uint32) []float64 { return k.lat }
