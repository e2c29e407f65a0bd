package experiments

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"uavdc/internal/core"
)

// referenceGoldenPath is the frozen reference panel of every figure
// driver at the Tiny configuration with Metrics on, recorded from the
// retained reference scan path (every candidate priced each iteration,
// direct insertion pricing, direct tour polish). Per point it holds the
// exact float64 bits of x, volume and volume CI, the instance count, and
// every counter total.
const referenceGoldenPath = "testdata/fastpath_reference.json"

// scanWorkCounters are the scan work ledger: the only counters allowed to
// differ between the reference and the fast scan path. The fast path's
// evaluations plus its skipped candidates reconcile with the reference
// evaluations; residual recomputes follow evaluations one for one.
var scanWorkCounters = map[string]bool{
	core.CounterCandidateEvals:     true,
	core.CounterResidualRecomputes: true,
	core.CounterScanSkippedDrained: true,
}

// refPoint is one data point of the reference golden. Floats are stored
// as their IEEE-754 bit patterns in hex, so the comparison is exact.
type refPoint struct {
	X        string           `json:"x"`
	Volume   string           `json:"volume"`
	VolumeCI string           `json:"volume_ci"`
	N        int              `json:"n"`
	Counters map[string]int64 `json:"counters"`
}

// refSeries is one curve of the reference golden.
type refSeries struct {
	Name   string     `json:"name"`
	Points []refPoint `json:"points"`
}

func floatBits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

// referencePanel renders a fast-path table as the reference run would
// have recorded it: the skip ledger folds back into evaluations and
// residual recomputes and reads 0, as the reference path records it. This
// is exact only while the fast path holds its parity contract.
func referencePanel(tab *Table) []refSeries {
	out := make([]refSeries, 0, len(tab.Series))
	for _, s := range tab.Series {
		rs := refSeries{Name: s.Name}
		for _, p := range s.Points {
			counters := maps.Clone(p.Counters)
			if skipped, ok := counters[core.CounterScanSkippedDrained]; ok {
				counters[core.CounterScanSkippedDrained] = 0
				counters[core.CounterCandidateEvals] += skipped
				counters[core.CounterResidualRecomputes] += skipped
			}
			rs.Points = append(rs.Points, refPoint{
				X: floatBits(p.X), Volume: floatBits(p.Volume), VolumeCI: floatBits(p.VolumeCI),
				N: p.N, Counters: counters,
			})
		}
		out = append(out, rs)
	}
	return out
}

// assertMatchesReference compares a fast-path figure table with its
// reference panel: series names and order, every point's x, volume,
// volume CI and instance count bit for bit, every counter outside the
// scan work ledger exactly, and the evals reconciliation — fast
// evaluations plus skipped candidates equal the reference evaluations.
// Runtime fields are wall clock and not compared.
func assertMatchesReference(t *testing.T, label string, ref []refSeries, got *Table) {
	t.Helper()
	if len(got.Series) != len(ref) {
		t.Fatalf("%s: %d series, reference %d", label, len(got.Series), len(ref))
	}
	var refEvals, fastEvals, skipped int64
	for si, rs := range ref {
		gs := got.Series[si]
		if gs.Name != rs.Name {
			t.Fatalf("%s: series[%d] = %q, reference %q", label, si, gs.Name, rs.Name)
		}
		if len(gs.Points) != len(rs.Points) {
			t.Fatalf("%s/%s: %d points, reference %d", label, rs.Name, len(gs.Points), len(rs.Points))
		}
		for pi, rp := range rs.Points {
			gp := gs.Points[pi]
			if floatBits(gp.X) != rp.X || floatBits(gp.Volume) != rp.Volume || floatBits(gp.VolumeCI) != rp.VolumeCI || gp.N != rp.N {
				t.Errorf("%s/%s[%d]: (x=%s vol=%s ci=%s n=%d), reference (x=%s vol=%s ci=%s n=%d)",
					label, rs.Name, pi, floatBits(gp.X), floatBits(gp.Volume), floatBits(gp.VolumeCI), gp.N,
					rp.X, rp.Volume, rp.VolumeCI, rp.N)
			}
			union := maps.Clone(rp.Counters)
			maps.Copy(union, gp.Counters)
			for _, cname := range slices.Sorted(maps.Keys(union)) {
				if !scanWorkCounters[cname] && gp.Counters[cname] != rp.Counters[cname] {
					t.Errorf("%s/%s[%d]: counter %s = %d, reference %d", label, rs.Name, pi, cname, gp.Counters[cname], rp.Counters[cname])
				}
			}
			refEvals += rp.Counters[core.CounterCandidateEvals]
			fastEvals += gp.Counters[core.CounterCandidateEvals]
			skipped += gp.Counters[core.CounterScanSkippedDrained]
		}
	}
	if fastEvals+skipped != refEvals {
		t.Errorf("%s: fast evals %d + skipped %d != reference evals %d", label, fastEvals, skipped, refEvals)
	}
}

// TestFastPathParityAcrossFigures is the figure-level differential
// harness: every figure driver, run at GOMAXPROCS (and candidate-scan
// Workers) 1, 4 and 8, must reproduce the frozen reference panel's
// volumes, instance counts and behaviour counters bit for bit, and its
// evaluations once the skip ledger is added back. Any exactness hole in
// the pruned scan, the cached insertion pricing or the memoized matrices
// surfaces here as a diverging panel. `make ci` runs this race-enabled as
// the fastpath step.
//
// The golden is a reference oracle, so regenerate it only after a
// deliberate behaviour change and with the planner-level
// TestFastPathMatchesReference* tests in internal/core green:
//
//	go test ./internal/experiments -run TestFastPathParityAcrossFigures -update
//
// The update writes the serial fast run with its skip ledger folded back
// (referencePanel), which is what the reference path records whenever
// those tests pass.
func TestFastPathParityAcrossFigures(t *testing.T) {
	cfg := Tiny()
	cfg.Metrics = true
	figs := slices.Sorted(maps.Keys(Figures))
	if *update {
		golden := map[string][]refSeries{}
		for _, fig := range figs {
			tab, err := Run(fig, cfg)
			if err != nil {
				t.Fatalf("%s: %v", fig, err)
			}
			golden[fig] = referencePanel(tab)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(golden); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(referenceGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(referenceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]refSeries
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parse %s: %v", referenceGoldenPath, err)
	}
	if !slices.Equal(slices.Sorted(maps.Keys(golden)), figs) {
		t.Fatalf("reference golden covers %v, drivers are %v", slices.Sorted(maps.Keys(golden)), figs)
	}
	var refEvals int64
	for _, fig := range figs {
		for _, s := range golden[fig] {
			for _, p := range s.Points {
				refEvals += p.Counters[core.CounterCandidateEvals]
			}
		}
		t.Run(fig, func(t *testing.T) {
			for _, procs := range []int{1, 4, 8} {
				prev := runtime.GOMAXPROCS(procs)
				fastCfg := cfg
				fastCfg.Workers = procs
				got, runErr := Run(fig, fastCfg)
				runtime.GOMAXPROCS(prev)
				if runErr != nil {
					t.Fatalf("fast run at GOMAXPROCS=%d: %v", procs, runErr)
				}
				assertMatchesReference(t, fig+"@"+strconv.Itoa(procs), golden[fig], got)
			}
		})
	}
	if refEvals == 0 {
		t.Error("reference golden records no candidate evaluations")
	}
}
