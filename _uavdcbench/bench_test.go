package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
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

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricIsPrinted runs each workload at the tiny scale, untraced
// and traced, and checks that the result line is correct and holds
// exactly the BENCHMARK.json metrics of its kind, each with its unit.
func TestEveryMetricIsPrinted(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				var out bytes.Buffer
				code, err := run([]string{"-tiny", "-workload", w.Name, "-seed", "3", "-seconds", "1", "-trace", traced}, &out)
				if code != 0 || err != nil {
					t.Fatalf("exit %d: %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if traced == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestPerturbedVolumeFails checks that a plan whose volume differs from
// the recorded one in the last bit fails the run's output check.
func TestPerturbedVolumeFails(t *testing.T) {
	p, _ := presets(true)
	fields, err := p.poolFields(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	var chk checker
	runPlanners(p, fields, false, 1, exp, &chk)
	if got := chk.list(); len(got) != 0 {
		t.Fatalf("recorded outcomes fail: %v", got)
	}

	row := exp[p.key][fmt.Sprint(fields[0].seed)]
	o := row["alg3"]
	o.MB = math.Nextafter(o.MB, math.Inf(1))
	row["alg3"] = o
	chk = checker{}
	runPlanners(p, fields, false, 1, exp, &chk)
	if chk.failed.Load() != 1 || len(chk.list()) != 1 || !strings.Contains(chk.list()[0], "alg3") {
		t.Fatalf("perturbed volume: failed %d, failures %v", chk.failed.Load(), chk.list())
	}
}

// TestCorruptedBodyFails checks both serve-side output checks: a reply
// that differs from the expected body fails its request, and a cached
// body that differs from a direct plan fails the run.
func TestCorruptedBodyFails(t *testing.T) {
	_, p := presets(true)
	working, err := p.poolFields(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{o: options{seed: 1, tiny: true}, chk: &checker{}, m: metricSet{}, prov: map[string]any{}}
	st, err := b.serveSetup(p, true, working, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.r.close(); err != nil {
			t.Error(err)
		}
	}()
	if err := b.checkServed(st); err != nil || len(b.chk.list()) != 0 {
		t.Fatalf("clean bodies fail: %v %v", err, b.chk.list())
	}

	st.t.want[st.t.order[0]][10] ^= 1
	st.t.send(st.r, 0, nil, &bytes.Buffer{}, b.chk)
	if b.chk.failed.Load() != 1 {
		t.Fatalf("corrupted expected body: failed %d, failures %v", b.chk.failed.Load(), b.chk.list())
	}
	if err := b.checkServed(st); err != nil {
		t.Fatal(err)
	}
	if n := len(b.chk.list()); n != 2 {
		t.Fatalf("corrupted cached body: %d failures, want 2: %v", n, b.chk.list())
	}
}

// TestPredictionsCoverTheBenchmark checks that predictions.json maps
// every per-layer metric to exactly one layer and names only workloads
// and end-to-end metrics that BENCHMARK.json defines.
func TestPredictionsCoverTheBenchmark(t *testing.T) {
	spec := readSpec(t)
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		Layers    []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
			Moves   []string `json:"moves"`
			Flat    []string `json:"flat"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &pred); err != nil {
		t.Fatal(err)
	}
	workloads, e2e, perLayer := map[string]bool{}, map[string]bool{}, map[string]int{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
		if pred.Workloads[w.Name] == nil {
			t.Errorf("workload %s has no prediction", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = 0
	}
	for _, l := range pred.Layers {
		for _, m := range l.Metrics {
			if _, ok := perLayer[m]; !ok {
				t.Errorf("%s: %s is not a per-layer metric", l.Layer, m)
			}
			perLayer[m]++
		}
		for _, mv := range l.Moves {
			w, m, _ := strings.Cut(mv, ":")
			if !workloads[w] || !e2e[m] {
				t.Errorf("%s: moves %q names an unknown workload or metric", l.Layer, mv)
			}
		}
		for _, w := range l.Flat {
			if !workloads[w] {
				t.Errorf("%s: flat names unknown workload %q", l.Layer, w)
			}
		}
	}
	for m, n := range perLayer {
		if n != 1 {
			t.Errorf("per-layer metric %s is in %d layers, want 1", m, n)
		}
	}
}
