package main

// The traced run: the workload runs once untraced (the reference for
// tracing overhead) and once with the program's trace plane sampling every
// request and the benchmark's own spans on. Every per-layer number is read
// from outside the program: counters and histograms the layers publish,
// and timed calls into each layer's public functions.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lesslog/internal/gateway"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/metrics"
	"lesslog/internal/msg"
	"lesslog/internal/replication"
	"lesslog/internal/store"
	"lesslog/internal/stream"
	"lesslog/internal/tracering"
	"lesslog/internal/transport"
	"lesslog/internal/wal"
	ratework "lesslog/internal/workload"
	"lesslog/internal/xrand"
)

// traceRing is the trace ring size per peer and gateway in traced runs:
// room for every entry request a traced window issues.
const traceRing = 1 << 14

// Probe sizes: how many names the stream probe moves, and how many
// mutations the WAL probe replays at most.
const (
	streamProbeNames = 48
	walProbeMax      = 2000
)

// layerSnap is every counter and histogram the layers publish, summed
// over the gateway and all peers.
type layerSnap struct {
	gw   gateway.CountersSnapshot
	lat  map[string]metrics.HistogramSnapshot
	tr   transport.CountersSnapshot
	peer peerCounters
}

type peerCounters struct {
	forwards, relayed, fanout, pulls, atHolder, remote uint64
}

func snapLayers(f *fabric) layerSnap {
	s := layerSnap{gw: f.gw.StatSnapshot().Counters, lat: map[string]metrics.HistogramSnapshot{}}
	add := func(tr *transport.Transport) {
		for k, h := range tr.LatencySnapshots() {
			cur := s.lat[k]
			cur.Merge(&h)
			s.lat[k] = cur
		}
		c := tr.Counters().Snapshot()
		s.tr.Dials += c.Dials
		s.tr.Reuses += c.Reuses
		s.tr.Retries += c.Retries
		s.tr.Timeouts += c.Timeouts
	}
	add(f.gw.Transport())
	for _, p := range f.peers {
		add(p.Transport())
		st := p.Stats()
		s.peer.forwards += st.Forwards.Load()
		s.peer.relayed += st.RelayedBytes.Load()
		s.peer.fanout += st.FanoutBytes.Load()
		s.peer.pulls += st.NotifyPulls.Load()
		s.peer.atHolder += st.WritesAtHolder.Load()
		s.peer.remote += st.WritesRemote.Load()
	}
	return s
}

// latDelta returns kind k's latency histogram between two snapshots.
func latDelta(a, b layerSnap, k string) metrics.HistogramSnapshot {
	d := b.lat[k]
	old := a.lat[k]
	d.Count -= old.Count
	d.Sum -= old.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= old.Buckets[i]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// imbalance is max over mean of the per-peer load growth from a to b.
func imbalance(a, b []uint64) float64 {
	var sum, mx float64
	for i := range b {
		d := float64(b[i] - a[i])
		sum += d
		mx = max(mx, d)
	}
	return ratio(mx, sum/float64(len(b)))
}

// traced runs the reference and traced windows and reports the per-layer
// metrics.
func (b *bench) traced() (record, error) {
	part := b.d / 3
	f, r, err := b.setup(filepath.Join(b.root, "reference"), traceCfg{}, false)
	if err != nil {
		return record{}, err
	}
	ref := r.measure(f, part, nil)
	f.close()
	runtime.GC()

	f, r, err = b.setup(filepath.Join(b.root, "traced"), traceCfg{every: 1, ring: traceRing}, true)
	if err != nil {
		return record{}, err
	}
	userBytes := int64(0)
	for _, it := range r.preloaded {
		userBytes += int64(it.ref.n)
	}
	var before layerSnap
	win := r.measure(f, part, func() { before = snapLayers(f) })
	after := snapLayers(f)
	for _, s := range win.workers {
		for _, m := range s.muts {
			userBytes += int64(m.ref.n)
		}
	}
	diskBytes := f.diskBytes()

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// End to end, traced and untraced, and the overhead between them.
	refM, _ := e2eMetrics(ref, 0)
	trM, _ := e2eMetrics(win, 0)
	failed := float64(win.sum(func(s *workerStats) int { return s.failed }))
	put("error_rate", ratio(failed, float64(win.sum(func(s *workerStats) int { return s.attempted }))), "ratio")
	put("cpu_s_per_gib", cpuPerGiB(ref), "s/GiB")
	refReads, refWrites := ref.byClass()
	put("read_p99_ms", sliceQuantile(refReads, ref.marks[slices].at, 0.99), "ms")
	put("write_p99_ms", sliceQuantile(refWrites, ref.marks[slices].at, 0.99), "ms")
	put("trace.ops_per_s_untraced", refM["ops_per_s"].Value, "1/s")
	put("trace.ops_per_s_traced", trM["ops_per_s"].Value, "1/s")
	put("trace.overhead_ops_pct", 100*ratio(refM["ops_per_s"].Value-trM["ops_per_s"].Value, refM["ops_per_s"].Value), "%")
	put("trace.overhead_read_p50_pct", 100*ratio(trM["read_p50_ms"].Value-refM["read_p50_ms"].Value, refM["read_p50_ms"].Value), "%")
	put("trace.overhead_write_p50_pct", 100*ratio(trM["write_p50_ms"].Value-refM["write_p50_ms"].Value, refM["write_p50_ms"].Value), "%")

	// gateway: its counters, and Get calls timed and split by Result.Source.
	gets := float64(win.sum(func(s *workerStats) int { return s.gets }))
	gd := func(f func(gateway.CountersSnapshot) uint64) float64 { return float64(f(after.gw) - f(before.gw)) }
	misses := gd(func(c gateway.CountersSnapshot) uint64 { return c.Misses })
	put("gateway.hit_ratio", ratio(gd(func(c gateway.CountersSnapshot) uint64 { return c.Hits }), gets), "ratio")
	put("gateway.coalesced_ratio", ratio(gd(func(c gateway.CountersSnapshot) uint64 { return c.Coalesced }), gets), "ratio")
	put("gateway.shed", gd(func(c gateway.CountersSnapshot) uint64 { return c.Shed }), "count")
	put("gateway.locates_per_miss", ratio(gd(func(c gateway.CountersSnapshot) uint64 { return c.Locates }), misses), "ratio")
	put("gateway.get_hit_us_p50", quantile(win.collect(func(s *workerStats) []float64 { return s.hitUS }), 0.5), "us")
	fills := win.collect(func(s *workerStats) []float64 { return s.fillMS })
	put("gateway.get_fill_ms_p50", quantile(fills, 0.5), "ms")
	put("gateway.get_fill_ms_p99", quantile(fills, 0.99), "ms")

	// routehint: the gateway's hint cache outcomes.
	hintHits := gd(func(c gateway.CountersSnapshot) uint64 { return c.HintHits })
	hintStale := gd(func(c gateway.CountersSnapshot) uint64 { return c.HintStale })
	put("routehint.hit_ratio", ratio(hintHits, misses), "ratio")
	put("routehint.stale_ratio", ratio(hintStale, hintHits+hintStale), "ratio")

	// transport: per-kind RPC latency and counters, gateway and peers.
	q := func(kind string, p float64) float64 {
		h := latDelta(before, after, kind)
		return h.Quantile(p) / 1e6
	}
	put("transport.locate_set_ms_p50", q(msg.KindLocateSet.String(), 0.5), "ms")
	put("transport.fetch_ms_p50", q(msg.KindFetch.String(), 0.5), "ms")
	put("transport.fetch_ms_p99", q(msg.KindFetch.String(), 0.99), "ms")
	put("transport.update_ms_p50", q(msg.KindUpdate.String(), 0.5), "ms")
	put("transport.put_ms_p50", q(msg.KindPut.String(), 0.5), "ms")
	put("transport.retries", float64(after.tr.Retries-before.tr.Retries), "count")
	put("transport.timeouts", float64(after.tr.Timeouts-before.tr.Timeouts), "count")
	reuses := float64(after.tr.Reuses - before.tr.Reuses)
	put("transport.reuse_ratio", ratio(reuses, reuses+float64(after.tr.Dials-before.tr.Dials)), "ratio")

	// netnode: peer stats.
	updates := 0
	for _, s := range win.workers {
		for _, mu := range s.muts {
			if mu.kind == opUpdate && mu.timed {
				updates++
			}
		}
	}
	pd := func(f func(peerCounters) uint64) float64 { return float64(f(after.peer) - f(before.peer)) }
	put("netnode.hops_per_fill", ratio(pd(func(c peerCounters) uint64 { return c.forwards }), float64(len(fills))), "ratio")
	put("netnode.relayed_bytes", pd(func(c peerCounters) uint64 { return c.relayed }), "bytes")
	put("netnode.fanout_bytes_per_update", ratio(pd(func(c peerCounters) uint64 { return c.fanout }), float64(updates)), "bytes")
	put("netnode.notify_pulls", pd(func(c peerCounters) uint64 { return c.pulls }), "count")
	atHolder := pd(func(c peerCounters) uint64 { return c.atHolder })
	put("netnode.writes_at_holder_ratio", ratio(atHolder, atHolder+pd(func(c peerCounters) uint64 { return c.remote })), "ratio")
	first, mid, last := win.marks[0], win.marks[(slices+1)/2], win.marks[slices]
	put("netnode.load_max_over_mean", imbalance(first.loads, last.loads), "ratio")

	// replication: placements by MaintainOnce, the imbalance over the
	// last slices of the window, and the loadsim prediction beside it.
	put("replication.replicas_placed", float64(win.placed), "count")
	put("replication.load_max_over_mean_after", imbalance(mid.loads, last.loads), "ratio")
	put("replication.loadsim_predicted", b.loadsimPrediction(win), "count")

	sp := &spanLog{on: true, base: time.Now()}
	for k, v := range b.streamProbe(f, r, sp) {
		put(k, v.Value, v.Unit)
	}
	for k, v := range traceSelfTimes(f) {
		put(k, v.Value, v.Unit)
	}
	for k, v := range b.raceProbe(f, r, sp) {
		put(k, v.Value, v.Unit)
	}
	f.close()

	muts := win.mutations()
	for k, v := range b.msgProbe(sp) {
		put(k, v.Value, v.Unit)
	}
	put("store.apply_us_p50", b.storeProbe(r, muts, sp), "us")
	walM, err := b.walProbe(muts, sp)
	if err != nil {
		return record{}, err
	}
	for k, v := range walM {
		put(k, v.Value, v.Unit)
	}
	put("wal.disk_bytes_per_user_byte", ratio(float64(diskBytes), float64(userBytes)), "B/B")

	if err := b.writeSpans(win, sp); err != nil {
		return record{}, err
	}

	rec := windowRecord(ref, win)
	rec.Result.Metrics = m
	return rec, nil
}

// mutations flattens the acknowledged mutations in worker order.
func (w *window) mutations() []mutation {
	var out []mutation
	for _, s := range w.workers {
		out = append(out, s.muts...)
	}
	return out
}

// loadsimPrediction is the paper tie-in: the replica count
// internal/loadsim predicts for the workload's hottest name, given the
// per-window rate at which the window's fabric fills reached it, the
// same 80/20 locality and seed, and MaintainOnce's threshold as the
// overload cap. Reported next to the live placements, never gated on.
func (b *bench) loadsimPrediction(win *window) float64 {
	if b.w.maintainEvery == 0 {
		return 0
	}
	windows := float64(len(win.records())) / float64(b.w.maintainEvery)
	fills := map[string]int{}
	for _, s := range win.workers {
		for k, v := range s.fillsByName {
			fills[k] += v
		}
	}
	hot, n := "", 0
	for k, v := range fills {
		if v > n || (v == n && k < hot) {
			hot, n = k, v
		}
	}
	if hot == "" || windows == 0 {
		return 0
	}
	live := liveness.NewAllLive(fabricM, fabricPeers)
	sim := loadsim.New(loadsim.Config{
		M: fabricM, B: fabricB,
		Target: hashring.Default.Target(hot, fabricM),
		Cap:    float64(b.w.threshold),
		Live:   live,
		Rates:  ratework.Locality(float64(n)/windows, 0.8, 0.2, live, xrand.New(b.seed)),
		Seed:   b.seed,
	})
	res, _ := sim.Balance(replication.LessLog{}, 0) // ErrStuck still reports what was placed
	return float64(res.ReplicasCreated)
}

// timingDoer is the stream probe's transport: it times every chunk RPC
// and notes which holders a transfer fetched from.
type timingDoer struct {
	tr    *transport.Transport
	mu    sync.Mutex
	rpcMS []float64
	addrs map[string]bool
}

func (t *timingDoer) note(addr string, kind msg.Kind, d time.Duration) {
	if kind != msg.KindFetch && kind != msg.KindPut {
		return
	}
	t.mu.Lock()
	t.rpcMS = append(t.rpcMS, ms(d))
	if kind == msg.KindFetch {
		t.addrs[addr] = true
	}
	t.mu.Unlock()
}

func (t *timingDoer) Do(addr string, req *msg.Request) (*msg.Response, error) {
	t0 := time.Now()
	resp, err := t.tr.Do(addr, req)
	t.note(addr, req.Kind, time.Since(t0))
	return resp, err
}

func (t *timingDoer) DoTimeout(addr string, req *msg.Request, rpcTO time.Duration) (*msg.Response, error) {
	t0 := time.Now()
	resp, err := t.tr.DoTimeout(addr, req, rpcTO)
	t.note(addr, req.Kind, time.Since(t0))
	return resp, err
}

// streamProbe drives a benchmark-owned stream.Fetcher and stream.Uploader
// against the live fabric with the workload's names: locate the replica
// set, fetch it striped (bytes checked), then upload a new version to a
// holder.
func (b *bench) streamProbe(f *fabric, r *runner, sp *spanLog) map[string]metric {
	tr := transport.New(transport.Config{}, rttFaults())
	defer tr.Close()
	td := &timingDoer{tr: tr, addrs: map[string]bool{}}
	fetcher := stream.New(td, stream.Config{})
	up := stream.NewUploader(td, stream.Config{})
	rng := xrand.New(b.seed ^ 0x73747265616d)

	var names []string
	if b.w.cacheSize < 0 { // bulk: one object of each size class
		for _, g := range b.w.groups {
			names = append(names, b.w.shared[g[0]].name)
		}
	} else {
		for i := 0; i < streamProbeNames; i++ {
			names = append(names, b.w.shared[rng.Intn(len(b.w.shared))].name)
		}
	}
	var fetchMS, fetchMiB, upMS, upMiB, width float64
	errs, transfers := 0, 0
	for i, name := range names {
		resp, err := td.Do(f.peers[i%len(f.peers)].Addr(), &msg.Request{Kind: msg.KindLocateSet, Name: name})
		if err != nil || !resp.OK {
			errs++
			continue
		}
		hs, err := msg.DecodeHolders(resp.Data)
		if err != nil || len(hs) == 0 {
			errs++
			continue
		}
		srcs := make([]stream.Source, len(hs))
		for j, h := range hs {
			srcs[j] = stream.Source{PID: h.PID, Addr: h.Addr}
		}
		td.mu.Lock()
		clear(td.addrs)
		td.mu.Unlock()
		s := sp.start("stream.Fetch", -1)
		t0 := time.Now()
		data, ver, err := fetcher.Fetch(name, 0, srcs)
		d := time.Since(t0)
		sp.end(s)
		if err != nil || r.or.check(name, 0, false, gateway.Result{Data: data, Version: ver}, nil) != "" {
			errs++
			continue
		}
		transfers++
		fetchMS += ms(d)
		fetchMiB += float64(len(data)) / mib
		td.mu.Lock()
		width += float64(len(td.addrs))
		td.mu.Unlock()

		ref := payloadRef{off: rng.Intn(len(b.pool) - len(data) + 1), n: len(data)}
		r.or.begin(name, ref)
		s = sp.start("stream.Put", -1)
		t0 = time.Now()
		presp, err := up.Put(hs[0].Addr, name, r.or.bytes(ref), msg.PutUpdate)
		d = time.Since(t0)
		sp.end(s)
		if err != nil {
			errs++
			continue
		}
		r.or.ack(name, presp.Version, ref)
		upMS += ms(d)
		upMiB += float64(ref.n) / mib
	}
	return map[string]metric{
		"stream.fetch_ms_per_mib":  {ratio(fetchMS, fetchMiB), "ms/MiB"},
		"stream.upload_ms_per_mib": {ratio(upMS, upMiB), "ms/MiB"},
		"stream.chunk_rpc_ms_p50":  {quantile(td.rpcMS, 0.5), "ms"},
		"stream.chunk_retries":     {float64(fetcher.Stats().ChunkRetries.Load()), "count"},
		"stream.stripe_width":      {ratio(width, float64(transfers)), "holders"},
		"stream.errors":            {float64(errs), "count"},
	}
}

// racePairs is how many pairs of concurrent updates raceProbe sends, and
// raceNames how many of the workload's smallest shared names it cycles
// through.
const (
	racePairs = 200
	raceNames = 16
)

// raceProbe measures the known concurrent-update defect on its own, since
// the workload's single client never races itself: two goroutines update
// one shared name through the gateway at the same moment, racePairs times,
// and a checked read of the name follows each pair. It reports how many
// updates failed with "update found no copy" or otherwise, how many pairs
// were both acknowledged with one version, and how many reads failed.
func (b *bench) raceProbe(f *fabric, r *runner, sp *spanLog) map[string]metric {
	size := b.w.shared[0].size
	for _, o := range b.w.shared {
		size = min(size, o.size)
	}
	var names []string
	for _, o := range b.w.shared {
		if o.size == size && len(names) < raceNames {
			names = append(names, o.name)
		}
	}
	rng := xrand.New(b.seed ^ 0x72616365)
	var noCopy, otherFail, dup, readFail int
	for i := 0; i < racePairs; i++ {
		name := names[i%len(names)]
		var (
			refs  [2]payloadRef
			res   [2]gateway.WriteResult
			errs  [2]error
			wg    sync.WaitGroup
			start = make(chan struct{})
		)
		s := sp.start("race.pair", -1)
		for k := range refs {
			refs[k] = payloadRef{off: rng.Intn(len(b.pool) - size + 1), n: size}
			r.or.begin(name, refs[k])
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				res[k], errs[k] = f.gw.Update(name, r.or.bytes(refs[k]))
			}(k)
		}
		close(start)
		wg.Wait()
		sp.end(s)
		for k, err := range errs {
			switch {
			case err == nil:
				r.or.ack(name, res[k].Version, refs[k])
			case classify(err) == "update_no_copy":
				noCopy++
			default:
				otherFail++
			}
		}
		if errs[0] == nil && errs[1] == nil && res[0].Version == res[1].Version {
			dup++
		}
		floor, gone := r.or.expect(name)
		got, err := f.gw.Get(name)
		if r.or.check(name, floor, gone, got, err) != "" {
			readFail++
		}
	}
	return map[string]metric{
		"race.update_pairs":          {racePairs, "count"},
		"race.update_no_copy":        {float64(noCopy), "count"},
		"race.update_other_failures": {float64(otherFail), "count"},
		"race.dup_version_acks":      {float64(dup), "count"},
		"race.read_failures":         {float64(readFail), "count"},
	}
}

// traceActions are the hop actions whose self time the traced run reports.
var traceActions = []msg.HopAction{msg.HopForward, msg.HopServe, msg.HopLocate, msg.HopFanout, msg.HopDeliver}

// traceSelfTimes reads the trace rings of the gateway and every peer and
// reports each hop action's median self time: the hop's duration minus
// the durations of the hops parented on it. A hop shorter than its
// children did not enclose them — a forward hop is stamped before the
// request moves on — so its own duration is already its self time.
func traceSelfTimes(f *fabric) map[string]metric {
	snaps := []tracering.Snapshot{f.gw.TraceSnapshot()}
	for _, p := range f.peers {
		snaps = append(snaps, p.TraceSnapshot())
	}
	self := map[msg.HopAction][]float64{}
	var recorded, kept float64
	for _, s := range snaps {
		recorded += float64(s.Recorded)
		kept += float64(len(s.Recent))
		for _, t := range s.Recent {
			for i, h := range t.Hops {
				var children time.Duration
				for j, c := range t.Hops {
					if j != i && c.Parent == h.PID {
						children += c.Dur
					}
				}
				d := h.Dur
				if children <= d {
					d -= children
				}
				self[h.Action] = append(self[h.Action], float64(d)/1e3)
			}
		}
	}
	out := map[string]metric{
		"trace.traces":         {kept, "count"},
		"trace.traces_dropped": {recorded - kept, "count"},
	}
	for _, a := range traceActions {
		out["trace.self_us_p50."+a.String()] = metric{quantile(self[a], 0.5), "us"}
	}
	return out
}

// msgProbe encodes and decodes frames through msg's framed read/write
// path: a get request and a response carrying the payload, at 4 KiB, at
// 1 MiB, and over the workload's own payload sizes (capped at the 1 MiB
// chunk size bulk payloads move in).
func (b *bench) msgProbe(sp *spanLog) map[string]metric {
	var buf bytes.Buffer
	req := &msg.Request{Kind: msg.KindGet, Name: "bench/frame"}
	roundtrip := func(n int) error {
		buf.Reset()
		if err := msg.WriteRequest(&buf, req); err != nil {
			return err
		}
		if _, err := msg.ReadRequest(&buf); err != nil {
			return err
		}
		if err := msg.WriteResponse(&buf, &msg.Response{OK: true, Version: 7, Data: b.pool[:n]}); err != nil {
			return err
		}
		_, err := msg.ReadResponse(&buf)
		return err
	}
	timed := func(n, iters int) float64 {
		var us []float64
		for i := 0; i < iters; i++ {
			s := sp.start("msg.roundtrip", -1)
			t0 := time.Now()
			if err := roundtrip(n); err != nil {
				return -1
			}
			us = append(us, float64(time.Since(t0))/1e3)
			sp.end(s)
		}
		return quantile(us, 0.5)
	}
	out := map[string]metric{
		"msg.roundtrip_us_4k": {timed(4*kib, 4000), "us"},
		"msg.roundtrip_us_1m": {timed(mib, 60), "us"},
	}
	var moved uint64
	alloc0 := totalAlloc()
	for _, o := range b.w.shared {
		n := min(o.size, stream.DefaultChunkSize)
		if err := roundtrip(n); err != nil {
			break
		}
		moved += uint64(n)
	}
	out["msg.alloc_bytes_per_byte"] = metric{ratio(float64(totalAlloc()-alloc0), float64(moved)), "B/B"}
	return out
}

// storeProbe replays the preload and the window's mutations into a
// store.NewSharded and times each applied mutation.
func (b *bench) storeProbe(r *runner, muts []mutation, sp *spanLog) float64 {
	s := store.NewSharded(0)
	for _, it := range r.preloaded {
		s.Put(store.File{Name: it.name, Data: r.or.bytes(it.ref), Version: 1}, store.Inserted)
	}
	var us []float64
	now := time.Now()
	for _, m := range muts {
		data := r.or.bytes(m.ref)
		sg := sp.start("store.apply", -1)
		t0 := time.Now()
		switch m.kind {
		case opInsert:
			s.Put(store.File{Name: m.name, Data: data, Version: m.version}, store.Inserted)
		case opUpdate:
			if !s.Update(m.name, data, m.version) {
				s.Put(store.File{Name: m.name, Data: data, Version: m.version}, store.Inserted)
			}
		case opDelete:
			f, _ := s.Peek(m.name)
			s.Tombstone(m.name, f.Version+1, now)
		}
		us = append(us, float64(time.Since(t0))/1e3)
		sp.end(sg)
	}
	return quantile(us, 0.5)
}

// walProbe appends the window's mutations (at most walProbeMax) to a
// benchmark-owned WAL engine with the workload's fsync policy, from as
// many goroutines as there are workers, then times explicit syncs and a
// recovery replay.
func (b *bench) walProbe(muts []mutation, sp *spanLog) (map[string]metric, error) {
	if len(muts) > walProbeMax {
		muts = muts[:walProbeMax]
	}
	opts := wal.Options{Dir: filepath.Join(b.root, "walprobe"), Fsync: b.w.fsync}
	eng, _, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	now := time.Now()
	appendUS := make([][]float64, b.workers)
	var wg sync.WaitGroup
	for g := 0; g < b.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(muts); i += b.workers {
				m := muts[i]
				t0 := time.Now()
				if m.kind == opDelete {
					eng.PersistTombstone(m.name, m.version+1, now)
				} else {
					eng.PersistPut(store.File{Name: m.name, Data: b.pool[m.ref.off : m.ref.off+m.ref.n], Version: m.version}, store.Inserted)
				}
				appendUS[g] = append(appendUS[g], float64(time.Since(t0))/1e3)
			}
		}(g)
	}
	wg.Wait()
	var all []float64
	for _, a := range appendUS {
		all = append(all, a...)
	}
	st := eng.Stats()
	syncsPerWrite := ratio(float64(st.Syncs.Load()), float64(st.Appends.Load()))

	var syncMS []float64
	for i := 0; i < 32; i++ {
		eng.PersistPut(store.File{Name: fmt.Sprintf("sync/%02d", i), Data: b.pool[:4*kib], Version: 1}, store.Inserted)
		s := sp.start("wal.Sync", -1)
		t0 := time.Now()
		if err := eng.Sync(); err != nil {
			eng.Close()
			return nil, fmt.Errorf("wal probe sync: %w", err)
		}
		syncMS = append(syncMS, ms(time.Since(t0)))
		sp.end(s)
	}
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("wal probe close: %w", err)
	}
	s := sp.start("wal.Open", -1)
	t0 := time.Now()
	eng, _, err = wal.Open(opts)
	recoverS := time.Since(t0).Seconds()
	sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("wal probe recover: %w", err)
	}
	eng.Close()
	os.RemoveAll(opts.Dir)
	return map[string]metric{
		"wal.append_us_p50":   {quantile(all, 0.5), "us"},
		"wal.sync_ms_p99":     {quantile(syncMS, 0.99), "ms"},
		"wal.syncs_per_write": {syncsPerWrite, "ratio"},
		"wal.recover_s":       {recoverS, "s"},
	}, nil
}

// writeSpans writes the traced run's spans next to the result records.
func (b *bench) writeSpans(win *window, probes *spanLog) error {
	out := map[string][]span{"probes": probes.spans}
	for i, s := range win.workers {
		out[fmt.Sprintf("worker-%d", i)] = s.spans.spans
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed)), data, 0o644)
}
