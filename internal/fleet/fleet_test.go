package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
)

func resultsFingerprint(t *testing.T, results []*experiment.CellResult) string {
	t.Helper()
	fp, err := experiment.FingerprintJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// smallCells is a cheap three-cell sweep.
func smallCells() []experiment.Cell {
	return experiment.SweepCells([]string{"DNET"}, experiment.Tiny, []string{"DTN-FLOW", "PROPHET", "SimBet"}, 1, 0)
}

// withExecutor swaps the cell executor for the duration of a test.
func withExecutor(t *testing.T, exec func(experiment.Cell) (*experiment.CellResult, error)) {
	t.Helper()
	orig := executeCell
	executeCell = exec
	t.Cleanup(func() { executeCell = orig })
}

// TestFleetGoldenByteMatch runs the golden corpus cells through Run and
// checks the assembled per-scenario results byte-match the checked-in
// corpus files that the single-process TestGoldenRuns pins.
func TestFleetGoldenByteMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full golden corpus")
	}
	results, rep, err := Run(experiment.GoldenCells(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != rep.Cells || rep.CacheHits != 0 {
		t.Errorf("report %+v: want every cell executed", rep)
	}
	for scenario, got := range experiment.MergeByScenario(results) {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, '\n')
		path := filepath.Join("..", "experiment", "testdata", "golden", scenario+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with scripts/golden.sh)", err)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s: Run corpus is not byte-identical to %s", scenario, path)
		}
	}
}

// TestFleetCacheHits runs the same sweep twice against one store: the
// second run must complete entirely from cache with byte-identical
// results.
func TestFleetCacheHits(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := smallCells()

	res1, rep1, err := Run(cells, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHits != 0 || rep1.Executed != len(cells) {
		t.Errorf("first run: %d hits / %d executed, want 0 / %d", rep1.CacheHits, rep1.Executed, len(cells))
	}

	var progress bytes.Buffer
	res2, rep2, err := Run(cells, Options{Store: store, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != len(cells) || rep2.Executed != 0 {
		t.Errorf("second run: %d hits / %d executed, want %d / 0", rep2.CacheHits, rep2.Executed, len(cells))
	}
	if !strings.Contains(progress.String(), "3/3 cells already in store") {
		t.Errorf("warm run progress = %q", progress.String())
	}
	if resultsFingerprint(t, res1) != resultsFingerprint(t, res2) {
		t.Error("cached results are not byte-identical to executed ones")
	}
}

// TestFleetGOMAXPROCSInvariance runs the golden cells with the pool
// bounded to 1, 2 and 8 goroutines: the assembled results must not
// depend on the pool size or completion order.
func TestFleetGOMAXPROCSInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cells := experiment.GoldenCells()
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		results, _, err := Run(cells, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := resultsFingerprint(t, results)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS=%d: results differ from GOMAXPROCS=1", procs)
		}
	}
}

// TestFleetCellErrorAborts fails one cell and expects the run to abort
// naming that cell, without storing or returning partial results.
func TestFleetCellErrorAborts(t *testing.T) {
	cells := smallCells()
	withExecutor(t, func(c experiment.Cell) (*experiment.CellResult, error) {
		if c == cells[1] {
			return nil, errors.New("boom")
		}
		return experiment.ExecuteCell(c)
	})
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := Run(cells, Options{Store: store})
	if err == nil || !strings.Contains(err.Error(), "cell 1 ") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v; want an error naming cell 1", err)
	}
	if results != nil {
		t.Error("aborted run returned results")
	}
	fp, _ := cells[1].Fingerprint()
	if _, ok := store.Get(fp); ok {
		t.Error("failed cell reached the store")
	}
}

// TestFleetCellPanicAborts panics inside one cell: Run must return an
// error naming the cell instead of crashing, and start no further cells.
func TestFleetCellPanicAborts(t *testing.T) {
	cells := experiment.GoldenCells()
	var calls atomic.Int32
	withExecutor(t, func(c experiment.Cell) (*experiment.CellResult, error) {
		calls.Add(1)
		if c == cells[0] {
			panic("cell exploded")
		}
		return experiment.ExecuteCell(c)
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, _, err := Run(cells, Options{})
	if err == nil || !strings.Contains(err.Error(), "run 0 panicked: cell exploded") {
		t.Fatalf("Run = %v; want the panic of cell 0", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d cells started after a panic on the only worker, want 1", n)
	}
}

// TestFleetMalformedCellFailsFast checks a malformed cell is rejected,
// with its index, before any cell executes.
func TestFleetMalformedCellFailsFast(t *testing.T) {
	var calls atomic.Int32
	withExecutor(t, func(c experiment.Cell) (*experiment.CellResult, error) {
		calls.Add(1)
		return experiment.ExecuteCell(c)
	})
	cells := append(smallCells(), experiment.Cell{Scenario: "MARS", Scale: "tiny", Method: "DTN-FLOW"})
	_, _, err := Run(cells, Options{})
	if err == nil || !strings.Contains(err.Error(), "cell 3:") {
		t.Fatalf("Run = %v; want an error naming cell 3", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d cells executed before the malformed one was rejected", n)
	}
}
