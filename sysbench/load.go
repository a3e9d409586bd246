package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lesslog/internal/gateway"
)

// payloadRef names the pool bytes one write sent.
type payloadRef struct{ off, n int }

// oracle is the benchmark's record of what was written: per name, the
// payload behind every acknowledged version, writes still in flight (or
// whose outcome is unknown), and the floor — the highest version the
// gateway acknowledged. Every read is checked against it.
type oracle struct {
	pool  []byte
	mu    sync.Mutex
	names map[string]*nameState
	// dupVersions counts acknowledgements that reused a version already
	// acknowledged for the same name with another payload.
	dupVersions int
}

type nameState struct {
	// versions maps each acknowledged version to the payloads acknowledged
	// with it: two concurrent updates can be stamped with one version.
	versions map[uint64][]payloadRef
	pending  []payloadRef
	floor    uint64
	gone     bool // the last acknowledged write was a delete
}

func newOracle(pool []byte) *oracle {
	return &oracle{pool: pool, names: map[string]*nameState{}}
}

func (o *oracle) bytes(r payloadRef) []byte { return o.pool[r.off : r.off+r.n] }

func (o *oracle) stateLocked(name string) *nameState {
	s := o.names[name]
	if s == nil {
		s = &nameState{versions: map[uint64][]payloadRef{}}
		o.names[name] = s
	}
	return s
}

// begin registers a write about to be sent. It stays pending until
// acknowledged; a write that fails stays pending for good, since it may
// have applied.
func (o *oracle) begin(name string, r payloadRef) {
	o.mu.Lock()
	s := o.stateLocked(name)
	s.pending = append(s.pending, r)
	o.mu.Unlock()
}

func (o *oracle) ack(name string, version uint64, r payloadRef) {
	o.mu.Lock()
	s := o.stateLocked(name)
	if len(s.versions[version]) > 0 {
		o.dupVersions++
	}
	s.versions[version] = append(s.versions[version], r)
	for i, p := range s.pending {
		if p == r {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.floor = max(s.floor, version)
	s.gone = false
	o.mu.Unlock()
}

func (o *oracle) ackDelete(name string) {
	o.mu.Lock()
	o.stateLocked(name).gone = true
	o.mu.Unlock()
}

// expect snapshots what a read starting now must see: a version at or
// above floor, or no file at all when gone.
func (o *oracle) expect(name string) (floor uint64, gone bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stateLocked(name)
	return s.floor, s.gone
}

// check classifies one read against the snapshot taken when it started;
// "" means correct.
func (o *oracle) check(name string, floor uint64, gone bool, res gateway.Result, err error) string {
	if err != nil {
		if gone && errors.Is(err, gateway.ErrFault) {
			return ""
		}
		return classify(err)
	}
	if gone {
		return "resurrected"
	}
	if res.Version < floor {
		return "stale"
	}
	o.mu.Lock()
	s := o.stateLocked(name)
	cands := append([]payloadRef(nil), s.versions[res.Version]...)
	if len(cands) == 0 {
		cands = append(cands, s.pending...)
	}
	var others []payloadRef
	for v, refs := range s.versions {
		if v != res.Version {
			others = append(others, refs...)
		}
	}
	o.mu.Unlock()
	for _, c := range cands {
		if bytes.Equal(res.Data, o.bytes(c)) {
			return ""
		}
	}
	for _, c := range others {
		if bytes.Equal(res.Data, o.bytes(c)) {
			return "wrong_version"
		}
	}
	return "wrong_bytes"
}

// outputFailures are the failure classes that mean the program returned
// wrong data, as opposed to refusing or failing an operation.
var outputFailures = []string{"wrong_bytes", "wrong_version", "stale", "resurrected"}

// classify names the cause of a failed operation.
func classify(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, gateway.ErrOverloaded):
		return "shed"
	case strings.Contains(err.Error(), "update found no copy"):
		return "update_no_copy"
	case errors.Is(err, gateway.ErrFault):
		return "not_found"
	case errors.Is(err, gateway.ErrStaleRead):
		return "stale"
	case errors.As(err, &ne), errors.Is(err, net.ErrClosed):
		return "transport"
	}
	return "fabric"
}

// mutation is one acknowledged write, kept in traced runs so the store
// and WAL layers can replay the workload's own mutation stream. timed
// marks writes started inside the measured window.
type mutation struct {
	kind    opKind
	name    string
	version uint64
	ref     payloadRef
	timed   bool
}

// opRec is one successful operation: when it completed (since the
// window started), its class, latency and payload bytes moved.
type opRec struct {
	end   time.Duration
	write bool
	ms    float64
	bytes int
}

// workerStats is what one closed-loop worker measured.
type workerStats struct {
	attempted, failed int
	fails             map[string]int
	recs              []opRec

	// Traced runs only: Get latency split by Result.Source, fabric fills
	// per name, the acknowledged mutations, and the benchmark's spans.
	hitUS, fillMS []float64
	gets          int
	fillsByName   map[string]int
	muts          []mutation
	spans         spanLog
}

// slices is how many equal time slices a window is cut into; throughput
// is the median over the slices, so a burst of noise from outside the
// program moves at most one or two of them.
const slices = 5

// gcLead is how long before the window opens the forced GC starts; every
// workload's warm-up is longer.
const gcLead = 2 * time.Second

// mark is the process state at one slice boundary.
type mark struct {
	at    time.Duration // since the window started
	cpu   time.Duration
	alloc uint64
	loads []uint64
}

// window is one measured run of the workload.
type window struct {
	workers []*workerStats
	marks   []mark // slices+1 boundaries; the last is taken once every worker returned
	placed  int    // replicas MaintainOnce placed inside the window
	// dupVersions is the oracle's count of acknowledgements that reused
	// an acknowledged version with another payload.
	dupVersions int
}

func (w *window) sum(f func(*workerStats) int) int {
	n := 0
	for _, s := range w.workers {
		n += f(s)
	}
	return n
}

// records returns every successful operation of the window.
func (w *window) records() []opRec {
	var out []opRec
	for _, s := range w.workers {
		out = append(out, s.recs...)
	}
	return out
}

// byClass splits the window's successful operations into reads and writes.
func (w *window) byClass() (reads, writes []opRec) {
	for _, o := range w.records() {
		if o.write {
			writes = append(writes, o)
		} else {
			reads = append(reads, o)
		}
	}
	return reads, writes
}

func (w *window) collect(f func(*workerStats) []float64) []float64 {
	var out []float64
	for _, s := range w.workers {
		out = append(out, f(s)...)
	}
	return out
}

// peerLoads returns each peer's holder load so far: gets and fetch chunks
// it served from its own store.
func peerLoads(f *fabric) []uint64 {
	out := make([]uint64, len(f.peers))
	for i, p := range f.peers {
		st := p.Stats()
		out[i] = st.Served.Load() + st.ChunksServed.Load()
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runner drives one workload against one fabric.
type runner struct {
	w       *workload
	seed    uint64
	workers int
	or      *oracle
	traced  bool
	// preloaded is every name the setup inserted; ephemeral holds each
	// worker's preloaded delete targets.
	preloaded []preloadItem
	ephemeral [][]string
}

// preloadItems lists every name the setup inserts, with seeded payloads,
// and records each worker's delete targets among them.
func (r *runner) preloadItems() []preloadItem {
	g := newGenerator(r.w, r.seed^0x7072656c6f6164, -1, len(r.or.pool))
	pick := func(size int) payloadRef {
		return payloadRef{off: g.rng.Intn(len(r.or.pool) - size + 1), n: size}
	}
	var items []preloadItem
	for _, o := range r.w.shared {
		items = append(items, preloadItem{name: o.name, ref: pick(o.size)})
	}
	r.ephemeral = make([][]string, r.workers)
	for wk := 0; wk < r.workers; wk++ {
		for i, size := range r.w.ephemeral {
			name := fmt.Sprintf("%s/w%d/p%03d", r.w.name, wk, i)
			r.ephemeral[wk] = append(r.ephemeral[wk], name)
			items = append(items, preloadItem{name: name, ref: pick(size)})
		}
	}
	return items
}

// measure runs the closed loop for the workload's warm-up and then for d:
// r.workers workers each issue their next operation only once the
// previous one returned. Only operations started after the warm-up are
// timed; every operation is checked and counted. atStart runs when the
// measured window opens.
func (r *runner) measure(f *fabric, d time.Duration, atStart func()) *window {
	win := &window{workers: make([]*workerStats, r.workers)}
	var (
		opsDone atomic.Int64
		ticks   = make(chan struct{}, 1)
		mwg     sync.WaitGroup
	)
	start := time.Now().Add(r.w.warmup)
	if r.w.maintainEvery > 0 {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			for range ticks {
				for _, p := range f.peers {
					if _, ok := p.MaintainOnce(r.w.threshold, r.w.evictBelow); ok && !time.Now().Before(start) {
						win.placed++
					}
				}
			}
		}()
	}
	snap := func() mark {
		return mark{at: time.Since(start), cpu: cpuTime(), alloc: totalAlloc(), loads: peerLoads(f)}
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < r.workers; i++ {
		st := &workerStats{fails: map[string]int{}}
		if r.traced {
			st.fillsByName = map[string]int{}
			st.spans = spanLog{base: start}
		}
		win.workers[i] = st
		gen := newGenerator(r.w, r.seed, i, len(r.or.pool))
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.worker(f.gw, id, gen, start, deadline, st, func() {
				if n := opsDone.Add(1); r.w.maintainEvery > 0 && n%int64(r.w.maintainEvery) == 0 {
					select {
					case ticks <- struct{}{}:
					default:
					}
				}
			})
		}(i)
	}
	// Every window opens right after a full GC, so each run starts from the
	// same heap state; otherwise kv-8020, which allocates slowly, would see
	// either zero or one GC cycle in its window and its CPU per byte would
	// swing with that.
	time.Sleep(time.Until(start.Add(-gcLead)))
	runtime.GC()
	time.Sleep(time.Until(start))
	if atStart != nil {
		atStart()
	}
	win.marks = append(win.marks, snap())
	for i := 1; i < slices; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / slices)))
		win.marks = append(win.marks, snap())
	}
	wg.Wait()
	win.marks = append(win.marks, snap())
	close(ticks)
	mwg.Wait()
	r.or.mu.Lock()
	win.dupVersions = r.or.dupVersions
	r.or.mu.Unlock()
	return win
}

// worker runs one closed-loop client until the deadline.
func (r *runner) worker(gw *gateway.Gateway, id int, gen *generator, start, deadline time.Time, st *workerStats, done func()) {
	shared := r.w.shared
	eph := append([]string(nil), r.ephemeral[id]...)
	last := shared[id%len(shared)].name
	seq := 0
	sp := &st.spans
	for time.Now().Before(deadline) {
		o := gen.op()
		if o.kind == opDelete && len(eph) == 0 {
			o.kind = opInsert // every earlier insert failed; nothing to delete
			o.size = r.w.ephemeral[0]
			o.off = 0
		}
		st.attempted++
		var (
			class string
			d     time.Duration
		)
		timed := !time.Now().Before(start)
		sp.on = r.traced && timed
		root := sp.start("op."+opName(o.kind), -1)
		switch o.kind {
		case opRead, opRYWRead:
			name := last
			if o.kind == opRead {
				name = shared[o.obj].name
			}
			floor, gone := r.or.expect(name)
			call := sp.start("gateway.Get", root)
			t0 := time.Now()
			res, err := gw.Get(name)
			d = time.Since(t0)
			sp.end(call)
			vs := sp.start("bench.verify", root)
			class = r.or.check(name, floor, gone, res, err)
			sp.end(vs)
			if class == "" && timed {
				st.recs = append(st.recs, opRec{end: time.Since(start), ms: ms(d), bytes: len(res.Data)})
			}
			if r.traced && timed && err == nil {
				st.gets++
				switch res.Source {
				case gateway.SourceCache:
					st.hitUS = append(st.hitUS, float64(d)/1e3)
				case gateway.SourceFabric:
					st.fillMS = append(st.fillMS, ms(d))
					st.fillsByName[name]++
				}
			}
		default:
			var (
				name    string
				ref     payloadRef
				wr      gateway.WriteResult
				err     error
				spanTag string
			)
			switch o.kind {
			case opUpdate:
				name, spanTag = shared[o.obj].name, "gateway.Update"
			case opInsert:
				name, spanTag = fmt.Sprintf("%s/w%d/e%07d", r.w.name, id, seq), "gateway.Insert"
				seq++
			case opDelete:
				name, spanTag = eph[0], "gateway.Delete"
				eph = eph[1:]
			}
			if o.kind != opDelete {
				ref = payloadRef{off: o.off, n: o.size}
				r.or.begin(name, ref)
			}
			call := sp.start(spanTag, root)
			t0 := time.Now()
			switch o.kind {
			case opUpdate:
				wr, err = gw.Update(name, r.or.bytes(ref))
			case opInsert:
				wr, err = gw.Insert(name, r.or.bytes(ref))
			case opDelete:
				wr, err = gw.Delete(name)
			}
			d = time.Since(t0)
			sp.end(call)
			if err != nil {
				class = classify(err)
			} else {
				last = name
				if o.kind == opDelete {
					r.or.ackDelete(name)
				} else {
					r.or.ack(name, wr.Version, ref)
				}
				if o.kind == opInsert {
					eph = append(eph, name)
				}
				if timed {
					st.recs = append(st.recs, opRec{end: time.Since(start), write: true, ms: ms(d), bytes: ref.n})
				}
				if r.traced {
					st.muts = append(st.muts, mutation{kind: o.kind, name: name, version: wr.Version, ref: ref, timed: timed})
				}
			}
		}
		sp.end(root)
		if class != "" {
			st.failed++
			st.fails[class]++
		}
		done()
	}
}

func opName(k opKind) string {
	switch k {
	case opRead:
		return "read"
	case opRYWRead:
		return "ryw_read"
	case opUpdate:
		return "update"
	case opInsert:
		return "insert"
	}
	return "delete"
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one timed call the benchmark made, in a traced run.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog records spans when on; off, every call is a no-op, so the
// end-to-end runs pay nothing for it.
type spanLog struct {
	on    bool
	base  time.Time
	spans []span
}

func (l *spanLog) start(name string, parent int) int {
	if !l.on {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: int64(time.Since(l.base))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if i >= 0 {
		l.spans[i].End = int64(time.Since(l.base))
	}
}
