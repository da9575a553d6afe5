// Command perfbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads from one process — the paper's adaptive
// workload on the bare simulator, TCP fan-out through one gateway, and
// subscription churn through the share coordinator over a two-shard
// federation router — checks every delivered epoch against ground truth
// recomputed from the sensor field, and prints one JSON result line.
//
//	perfbench --workload sim-adaptive --seed 1 --seconds 15 --trace 0
//	perfbench faults                      # F1/F2 reproducers
//	perfbench steady --workload serve-fanout --runs 5
//	perfbench compare parent.jsonl change.jsonl
//
// See README.md for the metrics, inputs and known faults.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one closed-loop input mix. A round advances one quantum of
// virtual time and drains every result it produced to the reader.
type workload interface {
	// setup builds the stack and places the initial subscriptions.
	setup() error
	// prepare does what a round needs before its clock starts.
	prepare() error
	// round runs one closed-loop round; deliveries are buffered for check.
	round() error
	// check verifies the buffered deliveries against the oracle. It runs
	// outside the timed section; an unexplained mismatch is an error.
	check() error
	// stats reports cumulative counts; counters adds per-layer counters.
	stats() *opStats
	counters(c map[string]float64)
	// radioPct is the paper's average transmission time, in percent.
	radioPct() float64
	close()
}

// opStats counts operations (subscribe, unsubscribe, delivered epoch) and
// failures by cause.
type opStats struct {
	attempted  int64
	failed     int64
	classes    map[string]int64
	deliveries int64
	ttfr       []float64 // virtual seconds, staging to first delivery
}

func (o *opStats) fail(class string) {
	if o.classes == nil {
		o.classes = make(map[string]int64)
	}
	o.failed++
	o.classes[class]++
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is a workload's fixed sizing: how many rounds a run of one second
// carries (calibrated on a 2-core host so --seconds is about the measured
// wall time) and its constructor.
type spec struct {
	roundsPerSecond float64
	build           func(seed int64, tr *tracer) workload
}

var workloads = map[string]spec{
	"sim-adaptive":    {roundsPerSecond: 40, build: newSimAdaptive},
	"serve-fanout":    {roundsPerSecond: 40, build: newServeFanout},
	"federated-churn": {roundsPerSecond: 60, build: newFedChurn},
}

// setupReps is how often a run builds its stack; setup_s is the median.
const setupReps = 5

// minRounds keeps at least ten samples beyond the 90th percentile.
const minRounds = 100

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "faults":
			err = runFaults(os.Stdout)
		case "steady":
			err = runSteady(os.Args[2:])
		case "compare":
			err = runCompare(os.Args[2:])
		default:
			err = runBench(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | faults | steady | compare")
	os.Exit(2)
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "sim-adaptive | serve-fanout | federated-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "nominal measured wall time")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	// Results go next to the build, which run.sh puts in $CARGO_TARGET_DIR.
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench-results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rounds := max(minRounds, int(*seconds*sp.roundsPerSecond))
	var res result
	var err error
	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced)
	if *traced == 1 {
		res, err = tracedRun(sp, *seed, rounds, filepath.Join(dir, base+".spans.json"))
	} else {
		res, err = plainRun(sp, *seed, rounds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pass is what one stretch of measured rounds cost. Round time is the
// process's CPU time (user and system, every thread), not wall time: on a
// shared virtual machine the hypervisor steals vCPU time in bursts, and
// wall-clock medians of one seed moved by 10-20% between runs while CPU
// time moved by 2-4%.
type pass struct {
	roundMS    []float64     // CPU milliseconds per round
	roundCPU   time.Duration // sum of round CPU times
	wall       time.Duration // sum of round wall times
	allocBytes uint64        // heap bytes allocated inside rounds
	allocObjs  uint64        // heap objects allocated inside rounds
	gcCycles   uint32        // GC cycles ended inside rounds
	gcPause    time.Duration // stop-the-world pauses inside rounds
	cpu        time.Duration
	readBytes  int64
	deliveries int64
	before     map[string]float64
	after      map[string]float64
	samples    map[string][]float64 // per-round gauges
	heapMB     []float64            // live heap samples, see liveHeapMB
}

// heapSamples is how many times a pass samples the live heap. The heap a
// simulation holds follows the live query set, so one sample at the end
// would report where the workload happened to stop.
const heapSamples = 8

// liveHeapMB forces a collection and returns the heap in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure runs n rounds, timing each and checking its deliveries after the
// clock stops.
func measure(w workload, n int, tr *tracer) (pass, error) {
	p := pass{before: map[string]float64{}, after: map[string]float64{}, samples: map[string][]float64{}}
	w.counters(p.before)
	var ms0, ms1 runtime.MemStats
	cpu0, rd0 := cpuTime(), readChars()
	d0 := w.stats().deliveries
	for i := 0; i < n; i++ {
		if err := w.prepare(); err != nil {
			return p, err
		}
		// Allocation and GC counts are taken around the round alone, so the
		// checks and heap samples between rounds do not count.
		runtime.ReadMemStats(&ms0)
		id := tr.begin("round", 0)
		if tr != nil {
			tr.cur = id
		}
		t0, c0 := time.Now(), cpuTime()
		err := w.round()
		el, cpu := time.Since(t0), cpuTime()-c0
		tr.end(id)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return p, err
		}
		p.roundMS = append(p.roundMS, float64(cpu)/1e6)
		p.roundCPU += cpu
		p.wall += el
		p.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		p.allocObjs += ms1.Mallocs - ms0.Mallocs
		p.gcCycles += ms1.NumGC - ms0.NumGC
		p.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		if err := w.check(); err != nil {
			return p, err
		}
		if (i+1)%max(1, n/heapSamples) == 0 {
			p.heapMB = append(p.heapMB, liveHeapMB())
		}
		g := map[string]float64{}
		w.counters(g)
		for _, k := range []string{"core.synthetic", "core.user", "core.benefit_ratio", "federation.upstream_subs"} {
			if v, ok := g[k]; ok {
				p.samples[k] = append(p.samples[k], v)
			}
		}
	}
	p.cpu = cpuTime() - cpu0
	p.readBytes = readChars() - rd0
	p.deliveries = w.stats().deliveries - d0
	w.counters(p.after)
	return p, nil
}

// build constructs and sets up a workload, returning the set-up CPU time.
func build(sp spec, seed int64, tr *tracer) (workload, float64, error) {
	runtime.GC()
	c0 := cpuTime()
	w := sp.build(seed, tr)
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, err
	}
	return w, (cpuTime() - c0).Seconds(), nil
}

func plainRun(sp spec, seed int64, rounds int) (result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		var s float64
		var err error
		if w, s, err = build(sp, seed, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	defer w.close()
	p, err := measure(w, rounds, nil)
	if err != nil {
		return result{}, err
	}
	st := w.stats()
	if st.deliveries == 0 || len(st.ttfr) == 0 {
		return result{}, fmt.Errorf("no deliveries measured")
	}
	res := result{
		Correct:   true,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":                  {median(setups), "s"},
			"deliveries_per_s":         {float64(p.deliveries) / p.roundCPU.Seconds(), "1/s"},
			"round_p50_ms":             {median(p.roundMS), "ms"},
			"round_p90_ms":             {quantile(p.roundMS, 0.9), "ms"},
			"ttfr_p50_s":               {median(st.ttfr), "s"},
			"radio_tx_pct":             {w.radioPct(), "%"},
			"alloc_bytes_per_delivery": {float64(p.allocBytes) / float64(p.deliveries), "B"},
			"live_heap_mb":             {median(p.heapMB), "MB"},
		},
	}
	reportClasses(st)
	return res, nil
}

// tracedRun measures the same rounds twice on fresh stacks, untraced and
// traced, and reports per-layer metrics from the traced pass. Each pass
// makes the rounds of a whole untraced run, so the operation counts, and
// the failed share, match an untraced run of the seed.
func tracedRun(sp spec, seed int64, rounds int, spanPath string) (result, error) {
	w, _, err := build(sp, seed, nil)
	if err != nil {
		return result{}, err
	}
	plain, err := measure(w, rounds, nil)
	w.close()
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	w, _, err = build(sp, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	p, err := measure(w, rounds, tr)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(spanPath); err != nil {
		return result{}, err
	}
	self := tr.selfTimes()
	m := map[string]metric{}
	sec := func(name, spanName string) { m[name] = metric{self[spanName].Seconds(), "s"} }
	sec("network.run_s", "network.run")
	sec("network.post_s", "network.post")
	sec("gateway.advance_s", "gateway.advance")
	sec("gateway.drain_s", "gateway.drain")
	sec("federation.advance_s", "federation.advance")
	sec("federation.merge_s", "federation.merge")
	sec("federation.register_s", "federation.register")
	sec("share.self_s", "share.advance")
	delta := func(k string) float64 { return p.after[k] - p.before[k] }
	count := func(name string) { m[name] = metric{delta(name), "count"} }
	events := delta("sim.events")
	m["sim.events"] = metric{events, "count"}
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = float64(self["network.run"].Nanoseconds()) / events
	}
	m["sim.ns_per_event"] = metric{nsPerEvent, "ns"}
	m["radio.bytes"] = metric{delta("radio.bytes"), "B"}
	for _, k := range []string{"radio.messages", "radio.retransmissions",
		"gateway.updates", "gateway.epochs", "gateway.admitted", "gateway.dedup_hits",
		"gateway.rate_limited", "gateway.evicted", "gateway.dropped",
		"federation.merged_epochs", "federation.degraded_epochs",
		"share.fragments_created", "share.fragments_reused", "share.fragments_cancelled",
		"share.cache_hits", "share.cache_misses", "share.replayed_epochs", "share.partial_dropped"} {
		count(k)
	}
	m["core.synthetic_avg"] = metric{mean(p.samples["core.synthetic"]), "count"}
	m["core.user_avg"] = metric{mean(p.samples["core.user"]), "count"}
	m["core.benefit_ratio"] = metric{mean(p.samples["core.benefit_ratio"]), "ratio"}
	m["federation.upstream_subs"] = metric{mean(p.samples["federation.upstream_subs"]), "count"}
	wire := 0.0
	if u := delta("gateway.updates"); u > 0 && delta("gateway.client_reads") > 0 {
		wire = float64(p.readBytes) / u
	}
	m["gateway.wire_bytes_per_update"] = metric{wire, "B"}
	perDelivery := 0.0
	if p.deliveries > 0 {
		perDelivery = float64(p.allocObjs) / float64(p.deliveries)
	}
	m["runtime.allocs_per_delivery"] = metric{perDelivery, "count"}
	m["runtime.gc_cycles"] = metric{float64(p.gcCycles), "count"}
	m["runtime.gc_pause_s"] = metric{p.gcPause.Seconds(), "s"}
	m["runtime.cpu_s"] = metric{p.cpu.Seconds(), "s"}
	m["trace.overhead_ratio"] = metric{p.wall.Seconds() / plain.wall.Seconds(), "ratio"}
	st := w.stats()
	reportClasses(st)
	printLayers(self)
	return result{Correct: true, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// reportClasses prints failed operations by cause to standard error.
func reportClasses(st *opStats) {
	keys := make([]string, 0, len(st.classes))
	for k := range st.classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := []string{fmt.Sprintf("attempted=%d failed=%d deliveries=%d", st.attempted, st.failed, st.deliveries)}
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, st.classes[k]))
	}
	fmt.Fprintln(os.Stderr, "perfbench: ops", strings.Join(parts, " "))
}

// printLayers prints each span name's self time to standard error.
func printLayers(self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench: self %-22s %10.4f s\n", k, self[k].Seconds())
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readChars is the process's read-byte counter (rchar in /proc/self/io),
// or 0 where the file does not exist.
func readChars() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// jitter returns the virtual quantum of each round: base ±5%, drawn from
// the seed, in whole milliseconds. Varying the quantum keeps virtual-time
// metrics off a fixed grid, so they differ by seed while their medians
// stay put.
type jitter struct {
	base time.Duration
	rng  *rand.Rand
}

func newJitter(base time.Duration, seed int64) *jitter {
	return &jitter{base: base, rng: rand.New(rand.NewSource(seed*7919 + 17))}
}

func (j *jitter) next() time.Duration {
	d := time.Duration(float64(j.base) * (0.95 + 0.1*j.rng.Float64()))
	return d.Truncate(time.Millisecond)
}
