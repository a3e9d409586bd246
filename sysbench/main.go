// Command sysbench is the LessLog system benchmark: one seeded, closed-loop
// load through the public gateway API into a 16-peer in-process fabric
// with the WAL on and a modeled RTT on every RPC. See README.md for the
// workloads, every metric and its source.
//
// Usage (normally through run.py, which builds this program first):
//
//	sysbench --workload kv-8020 --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with tracing on and prints the per-layer metrics. The last line of
// standard output is the JSON result; the full env-stamped record is also
// written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"lesslog/internal/wal"
)

// setupRepeats is how many times an end-to-end run sets the fabric up;
// setup_s is the median, and the last setup is the one measured.
const setupRepeats = 5

// clients is the number of closed-loop client workers. One client keeps
// a core free for the fabric, so the latency tails measure the program
// rather than the scheduler (two clients on two cores made them swing by a
// third between runs), and it never has two of its own updates to one
// name in flight. That race is a known defect; raceProbe measures it on
// its own in the traced run.
const clients = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the env-stamped result written under --out for the comparator.
type record struct {
	Env      envStamp       `json:"env"`
	Result   result         `json:"result"`
	Failures map[string]int `json:"failures"`
	// DupVersionAcks counts writes acknowledged with a version already
	// acknowledged for the same name with another payload.
	DupVersionAcks int            `json:"dup_version_acks"`
	Samples        map[string]int `json:"samples"`
	// Slices holds each end-to-end metric's per-slice values.
	Slices   map[string][]float64 `json:"slices,omitempty"`
	Notes    []string             `json:"notes,omitempty"`
	Settings map[string]string    `json:"settings"`
}

type envStamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Fsync      string `json:"fsync"`
	RTTModel   string `json:"rtt_model"`
	Workers    int    `json:"workers"`
	Time       string `json:"time"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wlName  = flag.String("workload", "", "workload: kv-8020, bulk-stream or ingest-durable")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir  = flag.String("out", ".bench_build/results", "directory for env-stamped result records")
		dataDir = flag.String("data", ".bench_build/data", "working directory for the fabric's data dirs")
		commit  = flag.String("commit", "unknown", "commit of the code under test, for the env stamp")
		source  = flag.String("source", "unknown", "digest of the source tree, for the env stamp")
	)
	flag.Parse()
	w, err := buildWorkload(*wlName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sysbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	workers := clients
	root := filepath.Join(*dataDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(root)
	b := &bench{
		w: w, seed: *seed, workers: workers, root: root, out: *outDir,
		d:    time.Duration(*seconds) * time.Second,
		pool: newPool(*seed, w.maxSize()+mib),
	}
	var rec record
	if *trace == 0 {
		rec, err = b.endToEnd()
	} else {
		rec, err = b.traced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysbench:", err)
		return 1
	}
	rec.Env = envStamp{
		Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds,
		Commit: *commit, Source: *source,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Kernel: readTrim("/proc/sys/kernel/osrelease"),
		Fsync: w.fsync.String(), RTTModel: fmt.Sprintf("%v per RPC via transport.Faults{Delay}", modeledRTT),
		Workers: workers, Time: time.Now().UTC().Format(time.RFC3339),
	}
	rec.Settings = b.settings(*trace == 1)
	if err := writeRecord(*outDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "sysbench: write record:", err)
		return 1
	}
	report(rec)
	return 0
}

// bench holds one invocation's inputs.
type bench struct {
	w       *workload
	seed    uint64
	workers int
	root    string
	out     string
	d       time.Duration
	pool    []byte
}

func (b *bench) newRunner(traced bool) *runner {
	return &runner{w: b.w, seed: b.seed, workers: b.workers, or: newOracle(b.pool), traced: traced}
}

// setup boots a fabric in dir and preloads it, returning the runner that
// owns its oracle.
func (b *bench) setup(dir string, tc traceCfg, traced bool) (*fabric, *runner, error) {
	r := b.newRunner(traced)
	f, err := bootFabric(b.w, dir, tc)
	if err != nil {
		return nil, nil, err
	}
	r.preloaded = r.preloadItems()
	if err := f.preload(r.preloaded, r.or); err != nil {
		f.close()
		return nil, nil, err
	}
	return f, r, nil
}

// endToEnd sets up setupRepeats times, measures the last setup for the
// run length, and reports the end-to-end metrics.
func (b *bench) endToEnd() (record, error) {
	var (
		setups []float64
		f      *fabric
		r      *runner
		err    error
	)
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
			runtime.GC()
		}
		t0 := time.Now()
		f, r, err = b.setup(filepath.Join(b.root, fmt.Sprintf("setup-%d", i)), traceCfg{}, false)
		if err != nil {
			return record{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	win := r.measure(f, b.d, nil)
	f.close()
	rec := windowRecord(win)
	rec.Result.Metrics, rec.Slices = e2eMetrics(win, median(setups))
	rec.Slices["setup_s"] = setups
	return rec, nil
}

// windowRecord fills the counts every record carries.
func windowRecord(wins ...*window) record {
	rec := record{Failures: map[string]int{}, Samples: map[string]int{}}
	rec.Result.Correct = true
	for _, win := range wins {
		rec.Result.Attempted += win.sum(func(s *workerStats) int { return s.attempted })
		rec.Result.Failed += win.sum(func(s *workerStats) int { return s.failed })
		for _, s := range win.workers {
			for k, v := range s.fails {
				rec.Failures[k] += v
			}
		}
		rec.DupVersionAcks += win.dupVersions
		for _, o := range win.records() {
			if o.write {
				rec.Samples["write"]++
			} else {
				rec.Samples["read"]++
			}
		}
	}
	for _, c := range outputFailures {
		if rec.Failures[c] > 0 {
			rec.Result.Correct = false
		}
	}
	for class, n := range rec.Samples {
		if beyond := n / 100; beyond < 10 {
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s p99 rests on %d samples (%d beyond it, fewer than 10)", class, n, beyond))
		}
	}
	sort.Strings(rec.Notes)
	return rec
}

// e2eMetrics computes the end-to-end metrics of one window. Operations
// per second and latency quantiles are medians over the window's time
// slices, so a burst of noise from outside the program moves one slice,
// not the result (see sliceQuantile). Goodput is taken over the whole
// window: a slice holds only a few of bulk-stream's largest transfers, so
// its bytes swing with how many land in it. Allocation is taken over the
// whole window too, since a GC cycle comes only every several seconds. The per-slice values are
// returned too, CPU per byte among them, which only the traced run reports
// (see cpuPerGiB).
func e2eMetrics(win *window, setupS float64) (map[string]metric, map[string][]float64) {
	recs := win.records()
	per := map[string][]float64{}
	for i := 0; i < slices; i++ {
		a, b := win.marks[i], win.marks[i+1]
		var okOps, payload float64
		for _, o := range recs {
			if o.end >= a.at && (o.end < b.at || i == slices-1) {
				okOps++
				payload += float64(o.bytes)
			}
		}
		sec := (b.at - a.at).Seconds()
		per["ops_per_s"] = append(per["ops_per_s"], okOps/sec)
		per["goodput_mib_s"] = append(per["goodput_mib_s"], payload/mib/sec)
		per["cpu_s_per_gib"] = append(per["cpu_s_per_gib"], ratio((b.cpu-a.cpu).Seconds(), payload/(1<<30)))
		per["alloc_bytes_per_byte"] = append(per["alloc_bytes_per_byte"], ratio(float64(b.alloc-a.alloc), payload))
	}
	var payload float64
	for _, o := range recs {
		payload += float64(o.bytes)
	}
	reads, writes := win.byClass()
	first, last := win.marks[0], win.marks[slices]
	return map[string]metric{
		"setup_s":              {setupS, "s"},
		"ops_per_s":            {median(per["ops_per_s"]), "1/s"},
		"goodput_mib_s":        {payload / mib / (last.at - first.at).Seconds(), "MiB/s"},
		"read_p50_ms":          {sliceQuantile(reads, last.at, 0.50), "ms"},
		"read_p90_ms":          {sliceQuantile(reads, last.at, 0.90), "ms"},
		"write_p50_ms":         {sliceQuantile(writes, last.at, 0.50), "ms"},
		"write_p90_ms":         {sliceQuantile(writes, last.at, 0.90), "ms"},
		"alloc_bytes_per_byte": {ratio(float64(last.alloc-first.alloc), payload), "B/B"},
		"peak_rss_mib":         {peakRSSMiB(), "MiB"},
	}, per
}

// cpuPerGiB is the process CPU time (user + system) per GiB of payload
// over the whole window. It is a per-layer metric, not an end-to-end one:
// most of kv-8020's CPU goes to loopback syscalls and scheduler wake-ups,
// whose cost moves with the host: on a shared 2-vCPU host, with the code
// unchanged, it spread by 0.29 of its median over five seeds, past any
// bound a gate could hold it to.
func cpuPerGiB(win *window) float64 {
	var payload float64
	for _, o := range win.records() {
		payload += float64(o.bytes)
	}
	first, last := win.marks[0], win.marks[slices]
	return ratio((last.cpu - first.cpu).Seconds(), payload/(1<<30))
}

// minBeyond is the fewest samples a time slice must hold beyond the
// quantile taken in it, on average.
const minBeyond = 10

// sliceQuantile is the median over equal time slices of [0, span) of the
// q-quantile of the latencies that completed in each slice. The window is
// cut into as many slices as leave minBeyond samples beyond the quantile
// per slice, at most slices and at least one (the whole window).
func sliceQuantile(recs []opRec, span time.Duration, q float64) float64 {
	k := min(max(int(float64(len(recs))*(1-q))/minBeyond, 1), slices)
	parts := make([][]float64, k)
	for _, o := range recs {
		i := min(max(int(int64(k)*int64(o.end)/int64(span)), 0), k-1)
		parts[i] = append(parts[i], o.ms)
	}
	qs := make([]float64, 0, k)
	for _, p := range parts {
		if len(p) > 0 {
			qs = append(qs, quantile(p, q))
		}
	}
	return median(qs)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settings lists every setting that differs from the deployed defaults.
func (b *bench) settings(traced bool) map[string]string {
	s := map[string]string{
		"fabric":   fmt.Sprintf("%d in-process peers, m=%d b=%d, WAL on (-data-dir), deployed defaults otherwise", fabricPeers, fabricM, fabricB),
		"rtt":      fmt.Sprintf("%v delay on every gateway and peer RPC (transport.Faults)", modeledRTT),
		"clients":  fmt.Sprintf("%d closed-loop worker on %d CPUs calling gateway.Get/Insert/Update/Delete in process", b.workers, runtime.NumCPU()),
		"fsync":    b.w.fsync.String(),
		"preload":  fmt.Sprintf("%d shared names + %d per worker, %d concurrent inserts through the gateway", len(b.w.shared), len(b.w.ephemeral), preloadWorkers),
		"setup":    fmt.Sprintf("end-to-end runs set up %d times and report the median", setupRepeats),
		"warmup":   fmt.Sprintf("%v of the workload before every measured window (checked and counted, not timed)", b.w.warmup),
		"gw_cache": "deployed default (4096 entries, 2s TTL)",
	}
	if b.w.cacheSize < 0 {
		s["gw_cache"] = "disabled (-cache-size -1)"
	}
	if b.w.cacheTTL > 0 {
		s["gw_cache"] = fmt.Sprintf("4096 entries, -cache-ttl %v (non-default; the default is 2s)", b.w.cacheTTL)
	}
	if b.w.fsync != wal.FsyncInterval {
		s["fsync"] += " (non-default; deployed default is interval)"
	}
	if b.w.maintainEvery > 0 {
		s["maintenance"] = fmt.Sprintf("MaintainOnce on every peer each %d completed ops, threshold %d, evict-below %d (lesslogd defaults; lesslogd runs it on a timer instead)",
			b.w.maintainEvery, b.w.threshold, b.w.evictBelow)
	}
	if traced {
		s["tracing"] = fmt.Sprintf("untraced reference window then traced window, %v each after the warm-up; TraceSampleEvery=1, TraceRingSize=%d on gateway and peers", b.d/3, traceRing)
	}
	return s
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Env.Workload, rec.Env.Seed, rec.Env.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// report prints the human-readable lines and, last, the JSON result.
func report(rec record) {
	env, _ := json.Marshal(rec.Env)
	fmt.Printf("env %s\n", env)
	keys := make([]string, 0, len(rec.Settings))
	for k := range rec.Settings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("setting %s: %s\n", k, rec.Settings[k])
	}
	fmt.Printf("ops attempted=%d failed=%d failures=%v dup_version_acks=%d samples=%v\n",
		rec.Result.Attempted, rec.Result.Failed, rec.Failures, rec.DupVersionAcks, rec.Samples)
	for _, n := range rec.Notes {
		fmt.Printf("note %s\n", n)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Printf("metric %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	last, _ := json.Marshal(rec.Result)
	fmt.Println(string(last))
}
