package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/gateway"
	"lesslog/internal/netnode"
	"lesslog/internal/transport"
)

// The fabric every workload runs on: 16 in-process peers (m=4, b=1) with
// the WAL on, a gateway in front, and a modeled RTT on every RPC.
const (
	fabricM     = 4
	fabricB     = 1
	fabricPeers = 16
	modeledRTT  = 500 * time.Microsecond
	// preloadWorkers bounds concurrent inserts while preloading.
	preloadWorkers = 64
)

// rttFaults injects the modeled RTT into every outbound RPC of one
// transport, the same model the package benches use.
func rttFaults() *transport.Faults {
	return transport.NewFaults().Add(transport.Rule{Delay: modeledRTT})
}

type fabric struct {
	dir   string
	peers []*netnode.Peer
	gw    *gateway.Gateway
}

// trace settings for one fabric: every 0 keeps the program defaults.
type traceCfg struct {
	every, ring int
}

func bootFabric(w *workload, dir string, tc traceCfg) (*fabric, error) {
	f := &fabric{dir: dir}
	addrs := make(map[bitops.PID]string, fabricPeers)
	entry := make([]string, 0, fabricPeers)
	for i := 0; i < fabricPeers; i++ {
		p, err := netnode.Listen(netnode.Config{
			PID: bitops.PID(i), M: fabricM, B: fabricB,
			DataDir:          filepath.Join(dir, fmt.Sprintf("peer-%02d", i)),
			Fsync:            w.fsync,
			Faults:           rttFaults(),
			TraceSampleEvery: tc.every,
			TraceRingSize:    tc.ring,
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("boot peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
		addrs[bitops.PID(i)] = p.Addr()
		entry = append(entry, p.Addr())
	}
	for _, p := range f.peers {
		p.SetAddrs(addrs)
	}
	gw, err := gateway.New(gateway.Config{
		Peers:            entry,
		Faults:           rttFaults(),
		CacheSize:        w.cacheSize,
		CacheTTL:         w.cacheTTL,
		TraceSampleEvery: tc.every,
		TraceRingSize:    tc.ring,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("boot gateway: %w", err)
	}
	f.gw = gw
	return f, nil
}

// close stops the gateway and every peer and removes the data dirs.
func (f *fabric) close() {
	if f.gw != nil {
		f.gw.Close()
	}
	for _, p := range f.peers {
		p.Close()
	}
	os.RemoveAll(f.dir)
}

// diskBytes sums the sizes of every file under the fabric's data dirs.
func (f *fabric) diskBytes() int64 {
	var n int64
	filepath.WalkDir(f.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// preloadItem is one name inserted before measurement.
type preloadItem struct {
	name string
	ref  payloadRef
}

// preload inserts every item through the gateway and acknowledges each in
// the oracle. Any failure aborts the run: a fabric that cannot take its
// preload has nothing to measure.
func (f *fabric) preload(items []preloadItem, or *oracle) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan preloadItem)
	for i := 0; i < preloadWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				wr, err := f.gw.Insert(it.name, or.bytes(it.ref))
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("preload %s: %w", it.name, err)
					}
					mu.Unlock()
					continue
				}
				or.ack(it.name, wr.Version, it.ref)
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
	return first
}
