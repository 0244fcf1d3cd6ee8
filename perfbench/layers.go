package main

// The traced run: per-layer counters read from the program's public
// accessors while it runs, isolated replays of recorded frames and tuples
// through each layer's public entry point, and a CPU profile attributed to
// modules by the package of each sample's leaf frame.

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	netalytics "netalytics"
	"netalytics/internal/monitor"
	"netalytics/internal/mq"
	"netalytics/internal/parsers"
	"netalytics/internal/sdn"
	"netalytics/internal/stream"
	"netalytics/internal/telemetry"
	"netalytics/internal/topology"
	"netalytics/internal/tuple"
)

// liveSampler polls queue depths while the traced timed phase runs.
type liveSampler struct {
	r    *rep
	quit chan struct{}
	wg   sync.WaitGroup
	l    liveLayers
}

// liveLayers is what the traced run reads from the running program.
type liveLayers struct {
	tapDepthMax  int
	occupancyMax float64
	queueLagMax  int

	sessions       int
	rules          int
	instances      int
	monitor        monitor.Stats
	mqRejects      uint64
	tapDrops       uint64
	stages         map[string][]telemetry.StageSummary
	rulesToReplay  []mirrorRule
	tuplesPerBatch float64
}

// mirrorRule is one installed mirror rule, copied for the vnet replay.
type mirrorRule struct {
	query    string
	sw       topology.NodeID
	match    sdn.Match
	tap      topology.NodeID
	priority int
}

func startSampler(r *rep) *liveSampler {
	s := &liveSampler{r: r, quit: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *liveSampler) loop() {
	defer s.wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
		r := s.r
		s.l.tapDepthMax = max(s.l.tapDepthMax, r.tb.Network().TapQueueDepth())
		r.mu.Lock()
		sessions := append([]*netalytics.Session(nil), r.sessions...)
		r.mu.Unlock()
		lag := 0
		for _, sess := range sessions {
			for _, topic := range sessionTopics(sess) {
				s.l.occupancyMax = max(s.l.occupancyMax, r.tb.Aggregation().Stats(topic).Occupancy)
			}
			// Telemetry snapshots the whole metrics registry, which costs
			// enough to show in the profile when taken often: every 500ms.
			if n%100 == 0 {
				lag += sess.Telemetry().StreamQueueLag
			}
		}
		s.l.queueLagMax = max(s.l.queueLagMax, lag)
	}
}

func (s *liveSampler) stop() *liveLayers {
	close(s.quit)
	s.wg.Wait()
	return &s.l
}

// collect reads the program's counters once traffic has settled.
func (l *liveLayers) collect(r *rep) {
	c := r.counters()
	l.monitor, l.mqRejects = c.mon, c.mqDropped
	r.mu.Lock()
	defer r.mu.Unlock()
	l.sessions = len(r.sessions)
	l.rules = r.tb.Controller().RuleCount()
	l.instances = r.tb.Engine().Orchestrator().InstanceCount()
	l.tapDrops = r.tb.Network().Stats().TapDrops
	l.stages = map[string][]telemetry.StageSummary{}
	for _, s := range r.sessions {
		for _, st := range s.Telemetry().Stages {
			if st.Count > 0 {
				l.stages[st.Stage] = append(l.stages[st.Stage], st)
			}
		}
		for _, ir := range r.tb.Controller().QueryRules(s.ID) {
			for _, a := range ir.Rule.Actions {
				if a.Type == sdn.ActionMirror {
					l.rulesToReplay = append(l.rulesToReplay, mirrorRule{s.ID, ir.Switch, ir.Rule.Match, a.Dst, ir.Rule.Priority})
				}
			}
		}
	}
	l.tuplesPerBatch = float64(l.monitor.Tuples) / float64(max(l.monitor.Batches, 1))
}

func (b *bench) profilePath(traced bool) string {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	return filepath.Join(b.outDir, fmt.Sprintf("cpu-%s-seed%d-%s.pprof", b.workload, b.seed, mode))
}

// runTraced measures an untraced and a traced testbed, each timed for the
// run's length, then replays the traced run's recorded frames layer by
// layer. Both follow a warm-up testbed and carry the same instrumentation
// (CPU profile, live sampler, frame recorder, spans), so
// trace.cpu_overhead_pct isolates the engine's own tracer.
func (b *bench) runTraced(w workload) []metric {
	b.warmUp(w)
	b.spans = &spans{}
	_, base := b.runTestbed(w, b.seconds, false, b.profilePath(false))
	_, ph := b.runTestbed(w, b.seconds, true, b.profilePath(true))
	live := ph.live

	rec := ph.recording
	totalFrames := 0
	for _, n := range rec.per {
		totalFrames += n
	}
	m := []metric{
		{"vnet.inject_ns_per_frame", float64(ph.injectNS) / float64(ph.injectFrames), "ns/frame"},
		{"vnet.mirror_copies_per_frame", float64(ph.b.mirrored-ph.a.mirrored) / float64(ph.b.vnFrames-ph.a.vnFrames), "copies/frame"},
		{"vnet.flowcache_hit_ratio", ratio(ph.b.fcHits-ph.a.fcHits, ph.b.fcHits-ph.a.fcHits+ph.b.fcMisses-ph.a.fcMisses), "ratio"},
		{"vnet.tap_drops", float64(live.tapDrops), "count"},
		{"sdn.rules_per_query", float64(live.rules) / float64(live.sessions), "rules/query"},
		{"nfv.monitors_per_query", float64(live.instances) / float64(live.sessions), "monitors/query"},
		{"nfv.tap_depth_max", float64(live.tapDepthMax), "frames"},
		{"core.leaked_objects", float64(b.leaked), "count"},
		{"monitor.tuples_per_received_frame", ratio(live.monitor.Tuples, live.monitor.Received), "ratio"},
		{"monitor.tuples_per_batch", live.tuplesPerBatch, "tuples/batch"},
		{"monitor.drops", float64(live.monitor.CollectDrops + live.monitor.ParserDrops), "count"},
		{"mq.occupancy_max", live.occupancyMax, "ratio"},
		{"mq.rejects", float64(live.mqRejects), "count"},
		{"stream.queue_lag_max", float64(live.queueLagMax), "tuples"},
		{"core.submit_p50_ms", percentile(b.submitMS, 50), "ms"},
		{"core.submit_p90_ms", percentile(b.submitMS, 90), "ms"},
		{"trace.cpu_overhead_pct", 100 * (ph.cpuUSPerFrame()/base.cpuUSPerFrame() - 1), "%"},
		{"gen.late_p99_ms", percentile(b.genLate, 99), "ms"},
	}
	for _, st := range []string{telemetry.StageCaptureToParse, telemetry.StageParseToMQ, telemetry.StageMQToStream, telemetry.StageStreamToSink} {
		p50, p99 := stageSummary(live.stages[st])
		m = append(m, metric{"stage." + st + ".p50_ms", p50, "ms"}, metric{"stage." + st + ".p99_ms", p99, "ms"})
	}

	// Layer replays on the recorded corpus.
	m = append(m, b.replayLayers(w, rec, live)...)

	shares, err := profileShares(b.profilePath(true))
	if err != nil {
		fatalf("reading CPU profile: %v", err)
	}
	for _, mod := range cpuModules {
		m = append(m, metric{"cpu_share." + mod, shares[mod], "%"})
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	if err := b.spans.write(path); err != nil {
		fatalf("writing spans: %v", err)
	}
	fmt.Printf("# traced run: %d recorded frames; spans in %s, CPU profile in %s\n", totalFrames, path, b.profilePath(true))
	return m
}

func ratio(a, b uint64) float64 { return float64(a) / float64(max(b, 1)) }

// stageSummary folds per-session stage digests: the median of the
// sessions' p50s and the worst p99, in ms.
func stageSummary(sts []telemetry.StageSummary) (p50, p99 float64) {
	if len(sts) == 0 {
		return 0, 0
	}
	var p50s []float64
	for _, st := range sts {
		p50s = append(p50s, st.P50NS/1e6)
		p99 = max(p99, st.P99NS/1e6)
	}
	return median(p50s), p99
}

// workloadProtos lists the parsers a workload's queries run.
func workloadProtos(w workload) []int {
	if _, ok := w.(*mix6); ok {
		return []int{pHTTP, pMemcached, pMySQL, pRESP, pDNS, pTLS}
	}
	return []int{pHTTP}
}

// mixCorpus builds six-protocol frames for parser rows a workload does not
// exercise itself: the mix6 generator with the run's seed, never injected.
func mixCorpus(seed int64) *recorder {
	tb, err := netalytics.NewTestbed(netalytics.TestbedConfig{})
	if err != nil {
		fatalf("building corpus testbed: %v", err)
	}
	defer tb.Close()
	m := newMix6(seed)
	const n = 6 * 5000
	m.begin(&rep{tb: tb}, n)
	g := &gen{}
	rec := newRecorder()
	for i := uint32(0); i < n; i++ {
		g.burst, g.burstProto = g.burst[:0], g.burstProto[:0]
		m.request(i, g)
		rec.add(g.burst, g.burstProto)
	}
	return rec
}

// timed runs fn and returns its wall time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// replayLayers is the layer cost table: each row times the layer's public
// entry point over the traced run's own frames (or the tuples its parsers
// produce from them), in ns and heap allocations per item.
func (b *bench) replayLayers(w workload, rec *recorder, live *liveLayers) []metric {
	var m []metric
	add := func(layer, unit string, d time.Duration, allocs uint64, n int) {
		m = append(m,
			metric{layer + ".ns_per_" + unit, float64(d.Nanoseconds()) / float64(n), "ns/" + unit},
			metric{layer + ".allocs_per_" + unit, float64(allocs) / float64(n), "allocs/" + unit})
	}
	root := b.spans.begin("replay", -1)
	defer b.spans.end(root)

	// vnet: forward + mirror through a fresh testbed carrying the traced
	// run's mirror rules, with taps deep enough to never drop.
	d, allocs := b.replayVnet(rec.frames, live.rulesToReplay, root)
	add("vnet", "frame", d, allocs, len(rec.frames))

	// Parsers: isolated Handle calls per protocol; their tuples feed the
	// monitor, mq and stream rows.
	var corpus *recorder
	own := map[int]bool{}
	for _, p := range workloadProtos(w) {
		own[p] = true
	}
	var tuples []tuple.Tuple
	for p := 0; p < numProtos; p++ {
		frames := rec.byProto(p)
		if !own[p] || len(frames) == 0 {
			if corpus == nil {
				corpus = mixCorpus(b.seed)
			}
			frames = corpus.byProto(p)
		}
		d, allocs, out := b.replayParser(p, frames, root)
		add("parse."+protoNames[p], "frame", d, allocs, len(frames))
		if own[p] {
			tuples = append(tuples, out...)
		}
	}

	// Monitor: monitor.New + DeliverBurst per protocol, as one dedicated
	// monitor per parser runs in the engine.
	var mon time.Duration
	var monAllocs uint64
	monFrames := 0
	for _, p := range workloadProtos(w) {
		frames := rec.byProto(p)
		d, allocs := b.replayMonitor(p, frames, root)
		mon += d
		monAllocs += allocs
		monFrames += len(frames)
	}
	add("monitor", "frame", mon, monAllocs, monFrames)

	// mq: Producer.Send + Consumer.Poll of the parser tuples batched at
	// the live run's mean batch fill.
	batch := int(live.tuplesPerBatch + 0.5)
	batch = min(max(batch, 1), monitor.DefaultBatchSize)
	batches := toBatches(tuples, batch)
	d, allocs = b.replayMQ(batches, root)
	add("mq", "batch", d, allocs, len(batches))

	// Stream: the executor over each of the benchmark's processors.
	for _, spec := range []stream.ProcessorSpec{
		{Name: "passthrough"},
		{Name: "top-k", Args: map[string]string{"k": "10", "w": "2s"}},
		{Name: "group-count", Args: map[string]string{"group": "key"}},
	} {
		d, allocs := b.replayStream(spec, tuples, root)
		add("stream."+spec.Name, "tuple", d, allocs, len(tuples))
	}
	return m
}

func (b *bench) replayVnet(frames [][]byte, rules []mirrorRule, parent int) (time.Duration, uint64) {
	tb, err := netalytics.NewTestbed(netalytics.TestbedConfig{})
	if err != nil {
		fatalf("building replay testbed: %v", err)
	}
	defer tb.Close()
	taps := map[topology.NodeID]bool{}
	for _, r := range rules {
		tb.Controller().InstallMirror(r.query, r.sw, r.match, r.tap, r.priority)
		taps[r.tap] = true
	}
	net := tb.Network()
	for host := range taps {
		t := net.OpenTap(host, len(frames)+1)
		defer net.CloseTap(t)
	}
	sp := b.spans.begin("replay.vnet.Network.Inject", parent)
	defer b.spans.end(sp)
	errs := 0
	d, allocs := timed(func() {
		for _, raw := range frames {
			if net.Inject(raw) != nil {
				errs++
			}
		}
	})
	if errs > 0 || net.Stats().TapDrops > 0 {
		fatalf("vnet replay: %d rejected frames, %d tap drops", errs, net.Stats().TapDrops)
	}
	return d, allocs
}

// replayParser decodes the frames into monitor descriptors outside the
// timed section, then times one pass of Handle over them with a fresh
// parser instance, repeating passes for a steadier time.
func (b *bench) replayParser(p int, frames [][]byte, parent int) (time.Duration, uint64, []tuple.Tuple) {
	pkts := make([]monitor.Packet, len(frames))
	base := time.Now()
	for i, raw := range frames {
		pk := &pkts[i]
		if err := pk.Frame.Decode(raw); err != nil {
			fatalf("parser replay: decoding frame: %v", err)
		}
		ft, _ := pk.Frame.FlowTuple()
		pk.Tuple = ft
		pk.FlowID = ft.CanonicalHash()
		pk.TS = base.Add(time.Duration(i) * time.Microsecond)
	}
	factory := parsers.Registry[protoNames[p]]
	out := make([]tuple.Tuple, 0, 2*len(pkts))
	emit := func(t tuple.Tuple) { out = append(out, t) }
	pass := func() {
		out = out[:0]
		parser := factory()
		for i := range pkts {
			parser.Handle(&pkts[i], emit)
		}
	}
	sp := b.spans.begin("replay.parse."+protoNames[p]+".Handle", parent)
	defer b.spans.end(sp)
	_, allocs := timed(pass)
	var passes []float64
	for k := 0; k < 5; k++ {
		d, _ := timed(pass)
		passes = append(passes, float64(d))
	}
	for i := range out {
		out[i].Parser = protoNames[p]
	}
	return time.Duration(median(passes)), allocs, append([]tuple.Tuple(nil), out...)
}

// replayMonitor runs one monitor with the protocol's parser over the
// frames, in bursts of the monitor's default size, until Stop has flushed
// every batch.
func (b *bench) replayMonitor(p int, frames [][]byte, parent int) (time.Duration, uint64) {
	var tuples atomic.Int64
	mon, err := monitor.New(monitor.Config{
		Parsers: []monitor.Factory{parsers.Registry[protoNames[p]]},
		Sink: monitor.SinkFunc(func(bt *tuple.Batch) error {
			tuples.Add(int64(len(bt.Tuples)))
			return nil
		}),
	})
	if err != nil {
		fatalf("monitor replay: %v", err)
	}
	sp := b.spans.begin("replay.monitor."+protoNames[p]+".DeliverBurst", parent)
	defer b.spans.end(sp)
	return timed(func() {
		mon.Start()
		for start := 0; start < len(frames); {
			end := min(start+monitor.DefaultBurstSize, len(frames))
			n := mon.DeliverBurst(frames[start:end], time.Now())
			if n == 0 {
				runtime.Gosched()
			}
			start += n
		}
		mon.Stop()
	})
}

func toBatches(ts []tuple.Tuple, size int) []*tuple.Batch {
	var out []*tuple.Batch
	for start := 0; start < len(ts); {
		end := start + size
		if end > len(ts) || ts[end-1].Parser != ts[start].Parser {
			end = start + 1
			for end < len(ts) && end-start < size && ts[end].Parser == ts[start].Parser {
				end++
			}
		}
		out = append(out, &tuple.Batch{Parser: ts[start].Parser, Tuples: ts[start:end:end]})
		start = end
	}
	return out
}

// replayMQ sends the batches through a fresh default cluster, one topic
// per parser as the engine lays them out, polling as it goes.
func (b *bench) replayMQ(batches []*tuple.Batch, parent int) (time.Duration, uint64) {
	cluster := mq.NewCluster(2, mq.Config{})
	producers := map[string]*mq.Producer{}
	var consumers []*mq.Consumer
	for _, bt := range batches {
		if producers[bt.Parser] == nil {
			topic := "replay/" + bt.Parser
			consumers = append(consumers, cluster.GroupConsumer(topic, "replay"))
			producers[bt.Parser] = cluster.Producer(topic)
		}
	}
	polled := 0
	drain := func() {
		for _, c := range consumers {
			for {
				got := c.Poll(16)
				if len(got) == 0 {
					break
				}
				polled += len(got)
			}
		}
	}
	sp := b.spans.begin("replay.mq.Producer.Send", parent)
	defer b.spans.end(sp)
	errs := 0
	d, allocs := timed(func() {
		for i, bt := range batches {
			if producers[bt.Parser].Send(bt) != nil {
				errs++
			}
			if i%256 == 255 {
				drain()
			}
		}
		drain()
	})
	if errs > 0 || polled != len(batches) {
		fatalf("mq replay: %d send errors, %d of %d batches polled", errs, polled, len(batches))
	}
	return d, allocs
}

// replayStream runs the processor's topology over the tuples, fed by a
// spout in chunks of 16 batches (what one engine spout poll returns), and
// times it until the spout is exhausted and nothing is in flight.
func (b *bench) replayStream(spec stream.ProcessorSpec, ts []tuple.Tuple, parent int) (time.Duration, uint64) {
	const chunk = 16 * monitor.DefaultBatchSize
	var chunks [][]tuple.Tuple
	for start := 0; start < len(ts); start += chunk {
		chunks = append(chunks, append([]tuple.Tuple(nil), ts[start:min(start+chunk, len(ts))]...))
	}
	next := 0 // spout-task only
	var idleNexts atomic.Int64
	spout := stream.SpoutFunc(func() []tuple.Tuple {
		if next >= len(chunks) {
			idleNexts.Add(1)
			return nil
		}
		next++
		return chunks[next-1]
	})
	topo, err := stream.BuildTopology(spec, func() stream.Spout { return spout }, 1, func(tuple.Tuple) {}, stream.DefaultTickInterval)
	if err != nil {
		fatalf("stream replay %s: %v", spec.Name, err)
	}
	ex, err := stream.NewExecutor(topo)
	if err != nil {
		fatalf("stream replay %s: %v", spec.Name, err)
	}
	sp := b.spans.begin("replay.stream."+spec.Name+".Executor", parent)
	defer b.spans.end(sp)
	d, allocs := timed(func() {
		ex.Start()
		// The spout task flushes its buffered tuples after an empty Next,
		// so from the second empty Next on every tuple is in flight or
		// done; tasks flush before they block, so two idle polls in a row
		// mean the topology has drained.
		for idle := 0; idle < 2; {
			time.Sleep(50 * time.Microsecond)
			if idleNexts.Load() >= 2 && ex.QueueLag() == 0 {
				idle++
			} else {
				idle = 0
			}
		}
	})
	ex.Stop()
	return d, allocs
}

// programModules are the program's packages reported as their own
// cpu_share bucket.
var programModules = []string{"vnet", "sdn", "nfv", "monitor", "parsers", "proto", "packet", "mq", "stream",
	"core", "tuple", "telemetry"}

// cpuModules are all cpu_share buckets: the program's packages, the Go
// runtime with the standard library, the benchmark's own generator and
// oracle, and every other package of the program.
var cpuModules = append(append([]string(nil), programModules...), "runtime", "generator", "other")

// moduleOf buckets a profiled function name by its package.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type parameters may name other packages
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	pkg := fn
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		pkg = fn[:slash+dot]
	}
	if pkg == "main" {
		return "generator"
	}
	if name, ok := strings.CutPrefix(pkg, "netalytics/internal/"); ok && slices.Contains(programModules, name) {
		return name
	}
	if pkg == "netalytics" || strings.HasPrefix(pkg, "netalytics/") {
		return "other"
	}
	return "runtime"
}

// profileShares attributes the CPU profile's samples by the package of the
// leaf frame, as percentages of all sampled CPU time. It reads the flat
// time per function from go tool pprof, which lists inlined functions as
// entries of their own.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	byMod := map[string]float64{}
	total := 0.0
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof %s: reading %q: %w", path, line, err)
		}
		byMod[moduleOf(f[5])] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("profile %s has no samples", path)
	}
	for mod := range byMod {
		byMod[mod] *= 100 / total
	}
	return byMod, nil
}
