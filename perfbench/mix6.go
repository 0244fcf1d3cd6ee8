package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"netalytics/internal/proto"
	"netalytics/internal/tuple"
)

// Hosts of the k=4 fat tree: servers in pods 0-1, clients in pods 2-3, so
// every request crosses the core.
var (
	clientHosts = []string{"h2-0-0", "h2-0-1", "h2-1-0", "h2-1-1", "h3-0-0", "h3-0-1", "h3-1-0", "h3-1-1"}
	// mix6Servers holds one server per protocol, indexed like protoNames.
	mix6Servers = [numProtos]string{"h0-0-0", "h0-0-1", "h0-1-0", "h1-0-0", "h1-0-1", "h1-1-0"}
	mix6Ports   = [numProtos]uint16{80, 11211, 3306, 6379, 53, 443}
	// webServers serve topk and fanout32, one per rack of pods 0-1.
	webServers = [4]string{"h0-0-0", "h0-1-0", "h1-0-0", "h1-1-0"}
)

const numClients = 8

// pooledPorts is the number of persistent client flows per (client,
// server) for protocols that reuse connections.
const pooledPorts = 8

// firstFreshPort is where per-request client ports start; they count up per
// (protocol, client) and wrap after ~64k requests, ~100 s at mix6 rates.
const firstFreshPort = 1100

// Frame kinds of mix6: the six requests plus the three server replies.
const (
	kHTTP = iota
	kMemcached
	kMySQLQuery
	kMySQLOK
	kRESPCmd
	kRESPReply
	kDNSQuery
	kDNSReply
	kTLS
	numKinds
)

// State bits per mix6 request.
const (
	stSent    = 0x80
	stPrimary = 0x01 // the request's keyed tuple
	stReply   = 0x02 // dns_query's rcode tuple
)

// mix6 sends six protocols at a fixed request rate; every request yields
// a result tuple through its protocol's passthrough query, keyed by the
// request number carried in its URL/key/SQL/qname/SNI, or by its flow.
type mix6 struct {
	seed int64
	r    *rep
	rng  *rand.Rand

	clientStr [numClients]string
	clientIdx map[string]int
	tpl       [numClients][numKinds]*template
	nextPort  [numProtos][numClients]uint16
	// portReq maps a fresh client port back to its request for replies
	// whose tuple carries no request number (RESP, DNS rcode).
	portReq [2][numClients][]uint32

	proto, client, state []uint8
	latUS                []int32 // result latency + 1 µs; 0 = no result

	completed atomic.Int64
	invalid   atomic.Int64
	dups      atomic.Int64
}

func newMix6(seed int64) *mix6 { return &mix6{seed: seed} }

func (m *mix6) rate() int64         { return 30000 }
func (m *mix6) warm() time.Duration { return time.Second }
func (m *mix6) churns() bool        { return false }

func (m *mix6) queries() []string {
	out := make([]string, numProtos)
	for p := range out {
		out[p] = fmt.Sprintf("PARSE %s FROM * TO %s:%d PROCESS (passthrough)", protoNames[p], mix6Servers[p], mix6Ports[p])
	}
	return out
}

func (m *mix6) begin(r *rep, capacity uint32) {
	m.r = r
	m.rng = rand.New(rand.NewSource(m.seed))
	topo := r.tb.Topology()
	addr := func(name string) netip.Addr { return topo.HostByName(name).Addr }
	m.clientIdx = make(map[string]int, numClients)
	var srv [numProtos]netip.Addr
	for p := range srv {
		srv[p] = addr(mix6Servers[p])
	}
	for c, name := range clientHosts {
		ca := addr(name)
		m.clientStr[c] = ca.String()
		m.clientIdx[ca.String()] = c
		m.tpl[c] = mix6Templates(ca, srv)
		for p := range m.nextPort {
			m.nextPort[p][c] = firstFreshPort
		}
		for k := range m.portReq {
			m.portReq[k][c] = make([]uint32, 1<<16)
		}
	}
	m.proto = make([]uint8, capacity)
	m.client = make([]uint8, capacity)
	m.state = make([]uint8, capacity)
	m.latUS = make([]int32, capacity)
	m.completed.Store(0)
	m.invalid.Store(0)
	m.dups.Store(0)
}

// mix6Templates builds the nine frame kinds for one client.
func mix6Templates(c netip.Addr, srv [numProtos]netip.Addr) [numKinds]*template {
	name := "q" + placeholder + ".bench.test"
	var t [numKinds]*template
	t[kHTTP] = tcpTemplate(c, srv[pHTTP], 1, 80, proto.BuildHTTPGet("/m/"+placeholder, "web"))
	t[kMemcached] = tcpTemplate(c, srv[pMemcached], 1, 11211, proto.BuildMemcachedGet("k"+placeholder))
	t[kMySQLQuery] = tcpTemplate(c, srv[pMySQL], 1, 3306, proto.BuildMySQLQuery(0, mysqlPrefix+placeholder))
	t[kMySQLOK] = tcpTemplate(srv[pMySQL], c, 3306, 1, proto.BuildMySQLOK(1, []byte("1 row")))
	t[kRESPCmd] = tcpTemplate(c, srv[pRESP], 1, 6379, proto.BuildRESPCommand("GET", "k"+placeholder))
	t[kRESPReply] = tcpTemplate(srv[pRESP], c, 6379, 1, proto.BuildRESPBulk([]byte("v")))
	t[kDNSQuery] = udpTemplate(c, srv[pDNS], 1, 53, proto.BuildDNSQuery(0, name, proto.DNSTypeA), true)
	t[kDNSReply] = udpTemplate(srv[pDNS], c, 53, 1,
		proto.BuildDNSResponse(0, name, proto.DNSTypeA, proto.DNSRCodeNoError, []netip.Addr{srv[pDNS]}), true)
	t[kTLS] = tcpTemplate(c, srv[pTLS], 1, 443, proto.BuildTLSClientHello("s"+placeholder+".bench.test"))
	return t
}

const mysqlPrefix = "SELECT v FROM t WHERE id="

func (m *mix6) fresh(p, c int) uint16 {
	port := m.nextPort[p][c]
	m.nextPort[p][c]++
	if m.nextPort[p][c] == 0 {
		m.nextPort[p][c] = firstFreshPort
	}
	return port
}

func (m *mix6) request(i uint32, g *gen) {
	p, c := m.rng.Intn(numProtos), m.rng.Intn(numClients)
	m.proto[i], m.client[i], m.state[i] = uint8(p), uint8(c), stSent
	t := &m.tpl[c]
	a := &g.arena
	switch p {
	case pHTTP:
		g.emit(p, a.frame(t[kHTTP], m.fresh(p, c), 0, i, 0))
	case pMemcached:
		port := uint16(1024 + m.rng.Intn(pooledPorts))
		g.emit(p, a.frame(t[kMemcached], port, 0, i, 0))
	case pMySQL:
		port := uint16(1024 + m.rng.Intn(pooledPorts))
		g.emit(p, a.frame(t[kMySQLQuery], port, 0, i, 0))
		g.emit(p, a.frame(t[kMySQLOK], 0, port, 0, 0))
	case pRESP:
		port := m.fresh(p, c)
		m.portReq[0][c][port] = i
		g.emit(p, a.frame(t[kRESPCmd], port, 0, i, 0))
		g.emit(p, a.frame(t[kRESPReply], 0, port, 0, 0))
	case pDNS:
		port := m.fresh(p, c)
		m.portReq[1][c][port] = i
		g.emit(p, a.frame(t[kDNSQuery], port, 0, i, uint16(i)))
		g.emit(p, a.frame(t[kDNSReply], 0, port, i, uint16(i)))
	case pTLS:
		g.emit(p, a.frame(t[kTLS], m.fresh(p, c), 0, i, 0))
	}
}

// numIn extracts the request number from key = prefix + 8 digits + suffix.
func numIn(key, prefix, suffix string) (uint32, bool) {
	if len(key) != len(prefix)+len(placeholder)+len(suffix) ||
		!strings.HasPrefix(key, prefix) || !strings.HasSuffix(key, suffix) {
		return 0, false
	}
	return parseDigits(key[len(prefix) : len(prefix)+len(placeholder)])
}

func (m *mix6) result(q int, t tuple.Tuple, now int64) {
	if t.Parser != protoNames[q] {
		m.invalid.Add(1)
		return
	}
	var (
		i   uint32
		ok  bool
		bit uint8 = stPrimary
		// request-side tuples carry the client as source, reply-side ones
		// as destination.
		clientIP = t.SrcIP
	)
	switch q {
	case pHTTP:
		i, ok = numIn(t.Key, "/m/", "")
	case pMemcached:
		i, ok = numIn(t.Key, "k", "")
	case pMySQL:
		i, ok = numIn(t.Key, mysqlPrefix, "")
		clientIP = t.DstIP
	case pRESP:
		i, ok = m.byPort(0, t)
		ok = ok && t.Key == "GET"
		clientIP = t.DstIP
	case pDNS:
		if t.Key == proto.DNSRCodeName(proto.DNSRCodeNoError) {
			i, ok = m.byPort(1, t)
			bit, clientIP = stReply, t.DstIP
		} else {
			i, ok = numIn(t.Key, "q", ".bench.test")
			ok = ok && t.Val == float64(proto.DNSTypeA)
		}
	case pTLS:
		i, ok = numIn(t.Key, "s", ".bench.test")
	}
	if !ok || int(i) >= len(m.state) || m.state[i]&stSent == 0 ||
		int(m.proto[i]) != q || m.clientStr[m.client[i]] != clientIP {
		m.invalid.Add(1)
		return
	}
	if m.state[i]&bit != 0 {
		m.dups.Add(1)
		return
	}
	m.state[i] |= bit
	if m.state[i] == fullState(q) {
		m.latUS[i] = int32((now-m.r.gen.sched(i))/1000) + 1
		m.completed.Add(1)
	}
}

func fullState(p int) uint8 {
	if p == pDNS {
		return stSent | stPrimary | stReply
	}
	return stSent | stPrimary
}

// byPort resolves a reply-side tuple to its request through the client
// address and port of its fresh flow.
func (m *mix6) byPort(k int, t tuple.Tuple) (uint32, bool) {
	c, ok := m.clientIdx[t.DstIP]
	if !ok {
		return 0, false
	}
	return m.portReq[k][c][t.DstPort], true
}

func (m *mix6) during(*rep, <-chan struct{}) {}
func (m *mix6) after(*rep)                   {}

func (m *mix6) settled(r *rep) bool {
	return m.completed.Load() == int64(r.gen.sent.Load())
}

func (m *mix6) check(r *rep) (attempted, failed int) {
	sent := r.gen.sent.Load()
	missing := 0
	for i := uint32(0); i < sent; i++ {
		attempted++
		if m.state[i] != fullState(int(m.proto[i])) {
			missing++
		}
	}
	if missing > 0 || m.invalid.Load() > 0 || m.dups.Load() > 0 {
		fmt.Printf("# mix6 oracle: %d of %d requests without their result, %d invalid and %d duplicate tuples\n",
			missing, attempted, m.invalid.Load(), m.dups.Load())
	}
	return attempted, missing + int(m.invalid.Load()+m.dups.Load())
}

func (m *mix6) latencies(_ *rep, from, to uint32) []float64 {
	out := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		if us := m.latUS[i]; us > 0 {
			out = append(out, float64(us-1)/1000)
		}
	}
	return out
}
