package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	netalytics "netalytics"
	"netalytics/internal/monitor"
	"netalytics/internal/tuple"
)

// epoch anchors mono, the benchmark's single clock for scheduled send times,
// result arrivals and spans.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// workload is one traffic mix with its standing queries and oracle.
type workload interface {
	// queries are the standing queries, submitted in order at set-up.
	queries() []string
	// rate is the open-loop request rate in requests per second.
	rate() int64
	// warm is how long traffic runs after the first results before timing,
	// so flow caches, parser state and windows reach steady state.
	warm() time.Duration
	// begin resets per-testbed state; capacity is the most requests the
	// generator may send on this testbed.
	begin(r *rep, capacity uint32)
	// request appends the frames of request i to g.
	request(i uint32, g *gen)
	// result consumes one result tuple of query slot q, arriving at now.
	result(q int, t tuple.Tuple, now int64)
	// during runs beside timed traffic (control-plane churn); it returns
	// when stop is closed.
	during(r *rep, stop <-chan struct{})
	// after runs once traffic has stopped, before teardown (audits).
	after(r *rep)
	// settled reports that every result the traffic should produce arrived.
	settled(r *rep) bool
	// check runs the oracle after teardown and returns the operations it
	// verified and how many of them failed.
	check(r *rep) (attempted, failed int)
	// latencies returns result latencies in ms of requests sent in
	// [from, to) on the final testbed.
	latencies(r *rep, from, to uint32) []float64
	// churns reports that the workload replaces queries under live traffic
	// in during. Submit and Stop are then timed on those replacements
	// only, and teardown stops the remaining sessions concurrently;
	// otherwise they are timed at set-up and teardown.
	churns() bool
}

// rep is one testbed lifetime: construction, standing queries, traffic,
// teardown and the leak ledger.
type rep struct {
	b        *bench
	w        workload
	tb       *netalytics.Testbed
	final    bool // runs the timed phase and the workload's audits
	root     int  // span of the whole testbed lifetime
	mu       sync.Mutex
	sessions []*netalytics.Session // live standing queries, by slot
	// retired sums the counters of churned-out queries, read when they
	// stopped; the sessions themselves are let go, so churn does not pin
	// their monitors and queues in memory.
	retired  counters
	consWG   sync.WaitGroup
	firsts   atomic.Int32
	allFirst chan struct{}
	gen      *gen
}

// consume drains one session's results into the workload oracle. Slots
// below the number of standing queries count toward "first result".
func (r *rep) consume(q int, s *netalytics.Session) {
	r.consWG.Add(1)
	standing := q < len(r.w.queries())
	go func() {
		defer r.consWG.Done()
		first := standing
		for t := range s.Results() {
			r.w.result(q, t, mono())
			if first {
				first = false
				if int(r.firsts.Add(1)) == len(r.w.queries()) {
					close(r.allFirst)
				}
			}
		}
	}()
}

// submit times one Engine.Submit call.
func (r *rep) submit(text string, parent int, record bool) (*netalytics.Session, error) {
	sp := r.b.spans.begin("core.Engine.Submit", parent)
	t0 := time.Now()
	s, err := r.tb.Submit(text)
	d := time.Since(t0)
	r.b.spans.end(sp)
	r.b.addSubmit(d, err, record)
	return s, err
}

// stop times one Session.Stop call.
func (r *rep) stop(s *netalytics.Session, parent int, record bool) {
	sp := r.b.spans.begin("core.Session.Stop", parent)
	t0 := time.Now()
	s.Stop()
	d := time.Since(t0)
	r.b.spans.end(sp)
	r.b.addStop(d, record)
}

// snapshot is the process and network state at a phase boundary.
type snapshot struct {
	cpuNS    int64
	mallocs  uint64
	frames   uint64
	requests uint32
	mirrored uint64
	vnFrames uint64
	fcHits   uint64
	fcMisses uint64
}

func (r *rep) snap() snapshot {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := r.tb.Network().Stats()
	fc := r.tb.Network().FlowCacheStats()
	return snapshot{
		cpuNS:    ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:  ms.Mallocs,
		frames:   r.gen.frames.Load(),
		requests: r.gen.sent.Load(),
		mirrored: st.Mirrored,
		vnFrames: st.Frames,
		fcHits:   fc.Hits,
		fcMisses: fc.Misses,
	}
}

// phase is what a final testbed measured over its timed traffic.
type phase struct {
	a, b snapshot
	lat  []float64
	// Time the generator spent inside Network.Inject, over all frames it
	// injected on this testbed.
	injectNS     int64
	injectFrames uint64
	live         *liveLayers // instrumented runs only
	recording    *recorder   // instrumented runs only
}

func (ph *phase) cpuUSPerFrame() float64 {
	return float64(ph.b.cpuNS-ph.a.cpuNS) / 1e3 / float64(ph.b.frames-ph.a.frames)
}

// runTestbed builds a testbed, sets up the standing queries, drives traffic
// and tears everything down. With seconds > 0 the testbed is final: it also
// runs the timed phase of that length. traced turns on the engine's stage
// tracer for every tuple. A non-empty profile instruments the timed phase:
// a CPU profile written there, the live-layer sampler and the frame
// recorder. It returns the set-up time and, for final testbeds, the
// timed-phase measurements.
func (b *bench) runTestbed(w workload, seconds time.Duration, traced bool, profile string) (time.Duration, *phase) {
	root := b.spans.begin("testbed", -1)
	defer b.spans.end(root)
	final, instrumented := seconds > 0, profile != ""
	r := &rep{b: b, w: w, final: final, root: root, allFirst: make(chan struct{})}
	cfg := netalytics.TestbedConfig{}
	if traced {
		cfg.Engine.TraceSampleEvery = 1
	}

	// Every testbed starts from a collected heap with free pages returned
	// to the OS, so set-up neither inherits GC work nor warm pages from the
	// previous testbed.
	debug.FreeOSMemory()
	t0 := time.Now()
	sp := b.spans.begin("netalytics.NewTestbed", root)
	tb, err := netalytics.NewTestbed(cfg)
	b.spans.end(sp)
	if err != nil {
		fatalf("building testbed: %v", err)
	}
	r.tb = tb
	baseRules := tb.Controller().RuleCount()
	baseTaps := tb.Network().TapCount()
	baseInst := tb.Engine().Orchestrator().InstanceCount()

	capacity := uint32(w.rate() * int64(seconds/time.Second+30))
	w.begin(r, capacity)
	for q, text := range w.queries() {
		s, err := r.submit(text, root, !w.churns())
		if err != nil {
			fatalf("submitting %q: %v", text, err)
		}
		r.sessions = append(r.sessions, s)
		r.consume(q, s)
	}
	r.gen = newGen(tb.Network(), w.rate(), capacity, b.spans, root)
	if instrumented {
		r.gen.rec = newRecorder()
	}
	r.gen.start(mono(), w.request)
	select {
	case <-r.allFirst:
	case <-time.After(20 * time.Second):
		fatalf("%s: standing queries gave no first result within 20s", b.workload)
	}
	setup := time.Since(t0)

	var ph *phase
	if final {
		ph = &phase{}
		stopDuring := make(chan struct{})
		var duringWG sync.WaitGroup
		duringWG.Add(1)
		go func() {
			defer duringWG.Done()
			w.during(r, stopDuring)
		}()
		time.Sleep(w.warm())
		var sampler *liveSampler
		var prof *os.File
		if instrumented {
			sampler = startSampler(r)
			if prof, err = os.Create(profile); err != nil {
				fatalf("creating CPU profile: %v", err)
			}
			if err := pprof.StartCPUProfile(prof); err != nil {
				fatalf("starting CPU profile: %v", err)
			}
		}
		tp := b.spans.begin("timed_phase", root)
		ph.a = r.snap()
		time.Sleep(seconds)
		ph.b = r.snap()
		b.spans.end(tp)
		if instrumented {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				fatalf("writing CPU profile: %v", err)
			}
			ph.live = sampler.stop()
		}
		close(stopDuring)
		duringWG.Wait()
	}
	r.gen.halt()
	b.genLate = append(b.genLate, r.gen.late...)
	b.injectErrs += r.gen.errs
	if ph != nil {
		ph.injectNS, ph.injectFrames = r.gen.injectNS, r.gen.frames.Load()
	}
	w.after(r)

	deadline := time.Now().Add(5 * time.Second)
	for !w.settled(r) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ph != nil && instrumented {
		ph.live.collect(r)
		ph.recording = r.gen.rec
	}
	b.drops += r.dropCounters()

	r.mu.Lock()
	sessions := append([]*netalytics.Session(nil), r.sessions...)
	r.mu.Unlock()
	if w.churns() {
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *netalytics.Session) {
				defer wg.Done()
				r.stop(s, root, false)
			}(s)
		}
		wg.Wait()
	} else {
		for _, s := range sessions {
			r.stop(s, root, true)
		}
	}
	r.consWG.Wait()

	leaked := 0
	leaked += excess(tb.Controller().RuleCount(), baseRules)
	leaked += excess(tb.Network().TapCount(), baseTaps)
	leaked += excess(tb.Engine().Orchestrator().InstanceCount(), baseInst)
	sp = b.spans.begin("netalytics.Testbed.Close", root)
	tb.Close()
	b.spans.end(sp)

	att, failed := w.check(r)
	b.attempted += att
	b.failed += failed
	if ph != nil {
		ph.lat = w.latencies(r, ph.a.requests, ph.b.requests)
	}
	leaked += b.goroutineExcess()
	b.leaked += leaked
	return setup, ph
}

func excess(have, base int) int {
	if have > base {
		return have - base
	}
	return 0
}

// goroutineExcess waits up to 3s for the goroutine count to fall back to
// the pre-run baseline and returns what remains above it.
func (b *bench) goroutineExcess() int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= b.baseGoroutines || time.Now().After(deadline) {
			return excess(n, b.baseGoroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// counters are a session's monitor, mq and sink counters.
type counters struct {
	mon         monitor.Stats
	mqDropped   uint64 // batches the aggregation layer rejected
	resultDrops uint64
}

func (c *counters) add(o counters) {
	c.mon.Received += o.mon.Received
	c.mon.Tuples += o.mon.Tuples
	c.mon.Batches += o.mon.Batches
	c.mon.CollectDrops += o.mon.CollectDrops
	c.mon.ParserDrops += o.mon.ParserDrops
	c.mon.SinkErrors += o.mon.SinkErrors
	c.mqDropped += o.mqDropped
	c.resultDrops += o.resultDrops
}

// countersOf reads one session's counters; they stay readable after Stop.
func (r *rep) countersOf(s *netalytics.Session) counters {
	c := counters{mon: s.MonitorStats(), resultDrops: s.ResultDrops()}
	for _, topic := range sessionTopics(s) {
		c.mqDropped += r.tb.Aggregation().Stats(topic).Dropped
	}
	return c
}

// counters sums the counters of the live sessions and the retired ones.
func (r *rep) counters() counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.retired
	for _, s := range r.sessions {
		c.add(r.countersOf(s))
	}
	return c
}

// dropCounters sums the program's loss counters: mirror copies dropped at
// full taps, frames dropped inside monitors, mq batches rejected, and
// results dropped at the session sinks.
func (r *rep) dropCounters() int {
	c := r.counters()
	return int(r.tb.Network().Stats().TapDrops + c.mon.CollectDrops + c.mon.ParserDrops + c.mon.SinkErrors +
		c.mqDropped + c.resultDrops)
}

// sessionTopics names a session's aggregation topics (one per parser).
func sessionTopics(s *netalytics.Session) []string {
	out := make([]string, len(s.Query.Parsers))
	for i, p := range s.Query.Parsers {
		out[i] = s.ID + "/" + p
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
