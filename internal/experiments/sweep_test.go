package experiments

import (
	"encoding/json"
	"testing"
)

// checkSweepWorkers is the determinism contract of Sweep: the JSON
// encoding of a grid's results is byte-identical on each of the given
// worker counts as on one worker.
func checkSweepWorkers[R any](t *testing.T, grid []Point[R], workers ...int) {
	t.Helper()
	encode := func(workers int) []byte {
		t.Helper()
		res, err := Sweep(grid, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := encode(1)
	for _, w := range workers {
		if got := encode(w); string(got) != string(want) {
			t.Errorf("sweep JSON differs at workers=%d\n 1: %s\n%2d: %s", w, want, w, got)
		}
	}
}
