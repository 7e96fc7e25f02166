package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsReduced runs every workload at reduced size through the
// built command, untraced twice and traced once, and checks the
// contract of its output: the last line is the JSON result, every
// metric BENCHMARK.json names for that mode is printed with its unit,
// the outputs pass the correctness gate, and the simulated digest
// repeats across runs of one seed.
func TestWorkloadsReduced(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			digests := map[string]bool{}
			for _, trace := range []string{"0", "0", "1"} {
				out, err := exec.Command(bin, "--workload", name, "--seed", "3", "--seconds", "0.01",
					"--trace", trace, "--reduced").Output()
				if err != nil {
					t.Fatalf("trace %s: %v", trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %s: last line is not the result: %v", trace, err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("trace %s: correct %v, attempted %d:\n%s", trace, res.Correct, res.Attempted, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics printed, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace %s: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
				for _, l := range lines {
					if strings.HasPrefix(l, "digest: ") {
						digests[l] = true
					}
				}
			}
			if len(digests) != 1 {
				t.Errorf("digest differs between runs of one seed: %v", digests)
			}
		})
	}
}
