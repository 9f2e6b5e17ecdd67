package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// runTiny runs one workload at smoke-test size and returns its exit code
// and standard output.
func runTiny(t *testing.T, workload string, extra ...string) (int, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "2", "--seconds", "0.3", "--tiny",
		"--out", t.TempDir(), "--src", ".."}, extra...)
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

// checkMetrics asserts the JSON line carries exactly the listed metrics
// with their units, and that the end-to-end ones are also printed by name
// with unit and sample count.
func checkMetrics(t *testing.T, out string, list []spec, printed bool) {
	t.Helper()
	r := lastLine(t, out)
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("result correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(list) {
		t.Errorf("JSON has %d metrics, want %d", len(r.Metrics), len(list))
	}
	for _, s := range list {
		m, ok := r.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("metric %s: present=%v unit=%q, want unit %q", s.name, ok, m.Unit, s.unit)
		}
		if printed {
			if m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
			}
			want := fmt.Sprintf("metric %-34s = ", s.name)
			if !strings.Contains(out, want) || !strings.Contains(out, " "+s.unit+" (n=") {
				t.Errorf("metric %s not printed with its unit and sample count", s.name)
			}
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range []string{"tables", "service", "cluster"} {
		t.Run(w, func(t *testing.T) {
			code, out := runTiny(t, w, "--trace", "0")
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, out)
			}
			checkMetrics(t, out, endToEnd, true)
		})
		t.Run(w+"/traced", func(t *testing.T) {
			code, out := runTiny(t, w, "--trace", "1")
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, out)
			}
			checkMetrics(t, out, perLayer, false)
			if !strings.Contains(out, "span ") {
				t.Errorf("traced run printed no self-time table")
			}
		})
	}
}

// TestSmokeInjectedMismatch corrupts one expected oracle value on each
// workload: the run must report correct=false and exit non-zero.
func TestSmokeInjectedMismatch(t *testing.T) {
	for _, w := range []string{"tables", "service", "cluster"} {
		t.Run(w, func(t *testing.T) {
			code, out := runTiny(t, w, "--trace", "0", "--inject-mismatch")
			if code == 0 {
				t.Fatalf("injected mismatch exited 0\n%s", out)
			}
			if r := lastLine(t, out); r.Correct {
				t.Fatalf("injected mismatch reported correct=true")
			}
			if !strings.Contains(out, "MISMATCH ") {
				t.Errorf("mismatch not printed")
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the
// ones the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "tables,service,cluster" {
		t.Errorf("workloads %v, want tables, service, cluster", names)
	}
}
