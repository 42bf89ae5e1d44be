// Package fleet runs a sweep's cells (experiment.Cell) in this process
// on a GOMAXPROCS-bounded pool and caches their results in a
// content-addressed store keyed by the canonical run fingerprint (Store),
// making re-runs cache hits and golden comparisons exact byte-compares.
//
// Determinism contract: every cell executes through
// experiment.ExecuteCell, the same path the golden corpus pins, and owns
// its engine and seeded RNG; results are assembled index-aligned with the
// input cells, so pool size and completion order never change the output.
package fleet

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
)

// Options configure Run. The zero value runs every cell with no cache
// and no progress output.
type Options struct {
	// Store, when non-nil, is consulted before execution (hits skip it
	// entirely) and receives every executed result.
	Store *Store
	// Progress, when non-nil, receives one line per executed cell.
	Progress io.Writer
}

// Report summarizes one Run for progress output and the store smoke
// gate. It carries the nondeterministic facts (timing, cache behaviour)
// that must stay out of CellResult.
type Report struct {
	Cells     int     `json:"cells"`
	CacheHits int     `json:"cache_hits"`
	Executed  int     `json:"executed"`
	WallSec   float64 `json:"wall_sec"`
}

// executeCell is the cell executor; tests substitute failing ones.
var executeCell = experiment.ExecuteCell

// Run executes the cells and returns their results in input order. It
// fingerprints every cell first (a malformed cell fails before anything
// runs), takes store hits, and executes the misses on
// experiment.ParallelFor's GOMAXPROCS-bounded pool, storing each result.
// A cell error or panic aborts the run: cells not yet started are
// skipped and the error names the failing cell's index.
func Run(cells []experiment.Cell, opt Options) (results []*experiment.CellResult, rep Report, err error) {
	t0 := time.Now()
	rep.Cells = len(cells)
	defer func() { rep.WallSec = time.Since(t0).Seconds() }()

	fps := make([]string, len(cells))
	for i, c := range cells {
		if fps[i], err = c.Fingerprint(); err != nil {
			return nil, rep, fmt.Errorf("fleet: cell %d: %w", i, err)
		}
	}
	results = make([]*experiment.CellResult, len(cells))
	if opt.Store != nil {
		for i, fp := range fps {
			if res, ok := opt.Store.Get(fp); ok {
				results[i] = res
				rep.CacheHits++
			}
		}
	}

	var (
		mu      sync.Mutex
		aborted atomic.Bool
		cellErr error
	)
	logf := func(format string, args ...any) {
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "fleet: "+format+"\n", args...)
		}
	}
	if rep.CacheHits > 0 {
		logf("%d/%d cells already in store", rep.CacheHits, len(cells))
	}
	defer func() {
		if p := recover(); p != nil {
			results, err = nil, fmt.Errorf("fleet: cell sweep aborted: %v", p)
		}
	}()
	// Hits are filled before the pool starts and each miss index is
	// written by exactly one pool goroutine, so results needs no lock.
	experiment.ParallelFor(len(cells), 0, func(i int) {
		if results[i] != nil || aborted.Load() {
			return
		}
		done := false
		defer func() {
			if !done {
				aborted.Store(true) // an error or panic: start no new cells
			}
		}()
		start := time.Now()
		res, err := executeCell(cells[i])
		if err != nil {
			mu.Lock()
			if cellErr == nil {
				cellErr = fmt.Errorf("fleet: cell %d (%s): %w", i, cells[i], err)
			}
			mu.Unlock()
			return
		}
		if opt.Store != nil {
			if err := opt.Store.Put(res); err != nil {
				logf("store put failed (continuing): %v", err)
			}
		}
		results[i] = res
		mu.Lock()
		rep.Executed++
		s := res.Summary
		logf("[%d/%d] %s in %.2fs: generated=%d delivered=%d forwarded=%d",
			rep.CacheHits+rep.Executed, len(cells), res.Cell, time.Since(start).Seconds(),
			s.Generated, s.Delivered, s.Forwarding)
		mu.Unlock()
		done = true
	})
	if cellErr != nil {
		return nil, rep, cellErr
	}
	return results, rep, nil
}
