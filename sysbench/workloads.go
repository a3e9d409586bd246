package main

import (
	"fmt"
	"time"

	"lesslog/internal/wal"
	"lesslog/internal/xrand"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// opKind is one client operation class.
type opKind uint8

const (
	opRead    opKind = iota // Get of a preloaded (shared) name
	opRYWRead               // Get of the name this worker wrote last
	opUpdate                // Update of a shared name
	opInsert                // Insert of a fresh per-worker name
	opDelete                // Delete of this worker's oldest inserted name
)

// slot is one operation in a workload's block: its kind, which group of
// shared names it draws from, and the payload size it writes.
type slot struct {
	kind  opKind
	group int
	size  int
}

// object is one preloaded name.
type object struct {
	name string
	size int
}

// workload is one traffic mix. Every worker replays an endless sequence of
// blocks; a block holds exactly the slots listed, shuffled by the seed, so
// every seed runs the same mix and only the order, the names drawn and the
// payload bytes change — which keeps the figures comparable across seeds.
type workload struct {
	name string
	// Deployed settings this workload changes (recorded with every result).
	fsync     wal.Policy
	cacheSize int           // gateway.Config.CacheSize: 0 is the deployed default, -1 disables the cache
	cacheTTL  time.Duration // gateway.Config.CacheTTL: 0 is the deployed default
	// maintainEvery > 0 makes the benchmark call Peer.MaintainOnce on
	// every peer after that many completed operations.
	maintainEvery int
	threshold     uint64
	evictBelow    uint64
	// warmup runs the workload, checked but untimed, before the measured
	// window, so the caches reach their steady state first.
	warmup time.Duration

	shared    []object
	groups    [][]int // indexes into shared, per slot group
	block     []slot
	ephemeral []int // sizes of the per-worker names preloaded for delete slots
}

// maxSize returns the largest payload the workload writes.
func (w *workload) maxSize() int {
	m := 0
	for _, o := range w.shared {
		m = max(m, o.size)
	}
	for _, s := range w.block {
		m = max(m, s.size)
	}
	return m
}

func repeat(n int, s slot) []slot {
	out := make([]slot, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// buildWorkload returns the named workload for seed, or an error for an
// unknown name.
func buildWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "kv-8020":
		return kv8020(seed), nil
	case "bulk-stream":
		return bulkStream(), nil
	case "ingest-durable":
		return ingestDurable(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kv-8020, bulk-stream or ingest-durable)", name)
}

// kv8020: 16384 names of 4 KiB, 80% of operations on a seeded hot 20% of
// the names (the paper's §6 80/20 locality), 90% reads. 16384 names is
// four times the gateway cache and the route-hint cache (4096 entries
// each): repeat reads within the cache TTL are served from the cache, and
// every other read pays a locate-set walk plus a one-chunk fetch.
func kv8020(seed uint64) *workload {
	const names = 16384
	w := &workload{
		name:     "kv-8020",
		fsync:    wal.FsyncInterval,
		cacheTTL: kvCacheTTL,
		// Until every hot name has been read once, the cache is still
		// filling and reads drift from fabric fills to cache hits.
		warmup:        10 * time.Second,
		maintainEvery: 2048,
		threshold:     kvThreshold,
		evictBelow:    1,
		ephemeral:     []int{4 * kib},
	}
	for i := 0; i < names; i++ {
		w.shared = append(w.shared, object{name: fmt.Sprintf("kv/%05d", i), size: 4 * kib})
	}
	perm := xrand.New(seed ^ 0x686f74).Perm(names)
	hot := names / 5
	w.groups = [][]int{perm[:hot], perm[hot:]}
	const hotG, coldG = 0, 1
	w.block = append(w.block, repeat(72, slot{kind: opRead, group: hotG})...)
	w.block = append(w.block, repeat(18, slot{kind: opRead, group: coldG})...)
	w.block = append(w.block, repeat(6, slot{kind: opUpdate, group: hotG, size: 4 * kib})...)
	w.block = append(w.block, repeat(2, slot{kind: opUpdate, group: coldG, size: 4 * kib})...)
	w.block = append(w.block, slot{kind: opInsert, size: 4 * kib}, slot{kind: opDelete})
	return w
}

// kvCacheTTL keeps hot names in the gateway cache, as kv-8020 intends. At
// the 2s default a hot name, read about every 6.5s, has always expired:
// every hot read is a fabric fill, and the read median sits on the edge
// between direct fetches off a route hint and locate-set walks, where it
// swings with the speed of the host. With a TTL this long the cache's
// 4096-entry LRU decides what stays, and its hit ratio no longer depends
// on how fast the run goes.
const kvCacheTTL = 60 * time.Second

// kvThreshold is the per-window serve count past which MaintainOnce places
// a replica in kv-8020: the deployed default (lesslogd -threshold 100).
// With the hot 20% spread over 3277 names, no name comes near it in a
// window of 2048 operations, so this load is balanced without replicas;
// the traced run reports the placements and the loadsim prediction as
// measured.
const kvThreshold = 100

// bulkStream: 24 objects of 1–64 MiB, 70% reads and 30% updates, gateway
// cache disabled. Every read takes a locate-set walk plus a chunked fetch
// striped across the replicas; every update propagates by notify/pull.
func bulkStream() *workload {
	w := &workload{name: "bulk-stream", fsync: wal.FsyncInterval, cacheSize: -1, warmup: 3 * time.Second}
	// Per 200 operations; 1 MiB objects carry most operations and the
	// larger classes most bytes (3.16 MiB per operation on average). The
	// 64 MiB object takes 2% of the reads and 1.7% of the updates, so
	// each p99 falls inside that class rather than on the edge between
	// two classes, where it would swing with a few samples; each p90
	// falls well inside the 4 MiB class for the same reason.
	classes := []struct {
		size, objects, reads, updates int
	}{
		{1 * mib, 16, 112, 52},
		{4 * mib, 5, 20, 5},
		{16 * mib, 2, 5, 2},
		{64 * mib, 1, 3, 1},
	}
	for g, c := range classes {
		var idx []int
		for i := 0; i < c.objects; i++ {
			idx = append(idx, len(w.shared))
			w.shared = append(w.shared, object{name: fmt.Sprintf("bulk/%dm-%02d", c.size/mib, i), size: c.size})
		}
		w.groups = append(w.groups, idx)
		w.block = append(w.block, repeat(c.reads, slot{kind: opRead, group: g})...)
		w.block = append(w.block, repeat(c.updates, slot{kind: opUpdate, group: g, size: c.size})...)
	}
	return w
}

// ingestDurable: 80% writes of 4–64 KiB under -fsync always — updates to
// 1024 shared names, and insert/delete pairs on per-worker names — with
// the remaining 20% reading back the name the worker wrote last.
func ingestDurable() *workload {
	sizes := []int{4 * kib, 8 * kib, 16 * kib, 32 * kib, 64 * kib}
	w := &workload{name: "ingest-durable", fsync: wal.FsyncAlways, warmup: 3 * time.Second}
	var all []int
	for i := 0; i < 1024; i++ {
		all = append(all, i)
		w.shared = append(w.shared, object{name: fmt.Sprintf("in/%04d", i), size: sizes[i%len(sizes)]})
	}
	w.groups = [][]int{all}
	w.block = append(w.block, repeat(20, slot{kind: opRYWRead})...)
	for i := 0; i < 40; i++ {
		w.block = append(w.block, slot{kind: opUpdate, size: sizes[i%len(sizes)]})
	}
	for i := 0; i < 20; i++ {
		w.block = append(w.block, slot{kind: opInsert, size: sizes[i%len(sizes)]}, slot{kind: opDelete})
	}
	for i := 0; i < 20; i++ {
		w.ephemeral = append(w.ephemeral, sizes[i%len(sizes)])
	}
	return w
}

// op is one generated operation. obj indexes w.shared for reads and
// updates; off/size select the payload pool bytes a write sends.
type op struct {
	kind      opKind
	obj       int
	off, size int
}

// generator yields one worker's operation sequence, a pure function of
// (workload, seed, worker).
type generator struct {
	w       *workload
	rng     *xrand.Rand
	poolLen int
	block   []slot
	next    int
}

func newGenerator(w *workload, seed uint64, worker, poolLen int) *generator {
	return &generator{
		w:       w,
		rng:     xrand.New(seed*0x9e3779b97f4a7c15 + uint64(worker)*0xbf58476d1ce4e5b9 + 1),
		poolLen: poolLen,
	}
}

func (g *generator) op() op {
	if g.next == len(g.block) {
		g.block = append(g.block[:0], g.w.block...)
		for i := len(g.block) - 1; i > 0; i-- {
			j := g.rng.Intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
		g.next = 0
	}
	s := g.block[g.next]
	g.next++
	o := op{kind: s.kind, obj: -1, size: s.size}
	if s.kind == opRead || s.kind == opUpdate {
		grp := g.w.groups[s.group]
		o.obj = grp[g.rng.Intn(len(grp))]
	}
	if s.size > 0 {
		o.off = g.rng.Intn(g.poolLen - s.size + 1)
	}
	return o
}

// newPool returns the seeded random bytes every payload is a slice of.
// Writes send pool[off:off+size]; the pool is never modified, so the
// program may keep references to what it was handed, and a read is
// checked by comparing against the slice its version was written from.
func newPool(seed uint64, size int) []byte {
	rng := xrand.New(seed ^ 0x706f6f6c)
	b := make([]byte, size+8)
	for i := 0; i < size; i += 8 {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	return b[:size]
}
