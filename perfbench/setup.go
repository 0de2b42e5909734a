package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/persist"
	"sofos/internal/server"
)

// Production defaults the served system keeps: the sofos-serve flag
// defaults (dataset seed 1, aggvalues selection of k=3 views, workers =
// GOMAXPROCS, block codec, heap storage, obs on, cache 4096, MaxConcurrent
// 2×GOMAXPROCS, -wal-sync=always on durable servers).
const (
	datasetSeed = 1
	selectModel = "aggvalues"
	selectK     = 3
)

// setupTimes splits one boot into the phases setup_s covers.
type setupTimes struct {
	build, newSys, models, greedy, materialize, checkpoint time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.build + t.newSys + t.models + t.greedy + t.materialize + t.checkpoint
}

// booted is one production server behind a loopback listener.
type booted struct {
	srv   *server.Server
	addr  string // loopback host:port
	ln    net.Listener
	hs    *http.Server
	done  chan struct{}
	dir   *persist.Dir // nil unless durable
	log   *persist.Log // nil unless durable
	times setupTimes
}

// buildSystem runs the sofos-serve fresh-boot path: dataset generation,
// core.NewWithOptions, analytic cost models, greedy selection and
// materialization.
func buildSystem(dataset string, scale int) (*core.System, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	g, f, err := datasets.BuildWithFacet(dataset, scale, datasetSeed)
	if err != nil {
		return nil, t, err
	}
	t.build = time.Since(start)
	start = time.Now()
	sys, err := core.NewWithOptions(g, f, core.Options{})
	if err != nil {
		return nil, t, err
	}
	t.newSys = time.Since(start)
	start = time.Now()
	models, err := sys.AnalyticModels(datasetSeed)
	if err != nil {
		return nil, t, err
	}
	t.models = time.Since(start)
	var picked cost.Model
	for _, m := range models {
		if m.Name() == selectModel {
			picked = m
		}
	}
	if picked == nil {
		return nil, t, fmt.Errorf("cost model %q missing", selectModel)
	}
	start = time.Now()
	sel, err := sys.SelectViews(picked, selectK)
	if err != nil {
		return nil, t, err
	}
	t.greedy = time.Since(start)
	start = time.Now()
	if _, err := sys.Materialize(sel); err != nil {
		return nil, t, err
	}
	t.materialize = time.Since(start)
	return sys, t, nil
}

// boot builds a system and serves it on a loopback port. A non-empty
// dataDir makes the server durable (WAL with fsync before every ack) and
// writes the boot checkpoint, as sofos-serve does on a fresh data dir.
func boot(dataset string, scale int, dataDir string) (*booted, error) {
	sys, t, err := buildSystem(dataset, scale)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{SelectionSeed: datasetSeed}
	var (
		dir *persist.Dir
		log *persist.Log
	)
	if dataDir != "" {
		if dir, err = persist.Open(dataDir); err != nil {
			return nil, err
		}
		if log, err = persist.OpenLog(dir.WALDir(), persist.SyncAlways); err != nil {
			return nil, err
		}
		cfg.Durability = &server.Durability{Dir: dir, Log: log, Dataset: dataset, Scale: scale, Seed: datasetSeed}
	}
	srv := server.New(sys, cfg)
	if dir != nil {
		start := time.Now()
		if _, err := srv.Checkpoint(); err != nil {
			return nil, fmt.Errorf("boot checkpoint: %w", err)
		}
		t.checkpoint = time.Since(start)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &booted{
		srv:   srv,
		addr:  ln.Addr().String(),
		ln:    ln,
		hs:    &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done:  make(chan struct{}),
		dir:   dir,
		log:   log,
		times: t,
	}
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return b, nil
}

// close stops the listener, waits for the serve loop, and closes the WAL.
func (b *booted) close() {
	_ = b.hs.Close()
	<-b.done
	if b.log != nil {
		_ = b.log.Close()
	}
}

// bootKeep boots n times and keeps the last keep servers; setup_s is the
// median over the boots, so one slow boot does not move it. Every other
// server is closed, and its data dir removed, before the next boot.
func bootKeep(n, keep int, dataset string, scale int, work string) ([]*booted, []setupTimes, error) {
	var (
		times []setupTimes
		kept  []*booted
	)
	for i := 0; i < n; i++ {
		dataDir := ""
		if work != "" {
			dataDir = filepath.Join(work, fmt.Sprintf("data-%d", i))
		}
		runtime.GC()
		b, err := boot(dataset, scale, dataDir)
		if err != nil {
			for _, k := range kept {
				k.close()
			}
			return nil, nil, err
		}
		times = append(times, b.times)
		if i >= n-keep {
			kept = append(kept, b)
			continue
		}
		b.close()
		if dataDir != "" {
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, nil, err
			}
		}
	}
	return kept, times, nil
}
