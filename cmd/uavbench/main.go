// Command uavbench runs the figure drivers with the obs instrumentation
// layer attached and writes a BENCH_*.json perf baseline: per-figure
// wall-clock time, planner-only time, deterministic counter totals, and
// collected volumes. Later repo states diff their own run against a
// committed baseline to tell "faster" apart from "does less work".
//
// Usage:
//
//	uavbench [flags]
//
//	-preset    tiny | reduced | paper | papertight | full (default reduced)
//	-fig       comma-separated figure ids (default fig3,fig4,fig5)
//	-instances override the number of network instances per point
//	-seed      override the experiment seed
//	-workers   parallel candidate-scan goroutines (counters are identical)
//	-faults    fault spec for the adaptive-execution panel; "default" =
//	           built-in schedule, "none" skips the panel
//	-serve     preset for the serving-throughput panel ("none" skips
//	           it): a loopback load run against the internal/serve
//	           daemon core — cold pass over the distinct instances, then
//	           warm concurrent repeats — recording requests/sec, p50/p99
//	           latency, the exact serve.* counter totals, and whether
//	           every served body stayed bit-identical to a direct plan
//	-serve-requests  total requests in the serve panel (default 256)
//	-serve-distinct  distinct instances in the serve panel mix (default 8)
//	-serve-clients   concurrent serve-panel clients (default 8)
//	-out       output path (default BENCH.json; "-" = stdout)
//	-trace     write a flight-recorder trace of the figure sweeps
//	           (uavdc-trace/1 JSONL; analyze with uavtrace) to this file
//	-cpuprofile  write a pprof CPU profile to this file
//	-memprofile  write a pprof heap profile to this file
//
// Counter totals and volumes are deterministic for a fixed preset at any
// -workers setting; only the timing fields vary run to run.
package main

import (
	"flag"
	"io"
	"os"
	"strings"

	"uavdc/internal/errw"
	"uavdc/internal/experiments"
	"uavdc/internal/faults"
	"uavdc/internal/prof"
	"uavdc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// presetConfig resolves a preset name to its configuration.
func presetConfig(name string) (experiments.Config, bool) {
	switch name {
	case "tiny":
		return experiments.Tiny(), true
	case "reduced":
		return experiments.Reduced(), true
	case "paper":
		return experiments.Paper(), true
	case "papertight":
		return experiments.PaperTight(), true
	case "full":
		return experiments.Full(), true
	}
	return experiments.Config{}, false
}

// run is the testable entry point: it parses args with its own FlagSet,
// writes to the given streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("uavbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset    = fs.String("preset", "reduced", "tiny | reduced | paper | papertight | full")
		fig       = fs.String("fig", "fig3,fig4,fig5", "comma-separated figure ids")
		instances = fs.Int("instances", 0, "override instances per point (0 = preset default)")
		seed      = fs.Uint64("seed", 0, "override experiment seed (0 = preset default)")
		workers   = fs.Int("workers", 0, "parallel candidate-scan goroutines")
		faultsArg = fs.String("faults", "default", `fault spec for the adaptive panel ("default" = built-in, "none" = skip)`)
		serveArg  = fs.String("serve", "none", `preset for the serving-throughput panel ("none" = skip)`)
		serveReqs = fs.Int("serve-requests", 256, "total requests in the serve panel")
		serveDist = fs.Int("serve-distinct", 8, "distinct instances in the serve panel mix")
		serveCli  = fs.Int("serve-clients", 8, "concurrent serve-panel clients")
		out       = fs.String("out", "BENCH.json", `output path ("-" = stdout)`)
		tracePath = fs.String("trace", "", "write the flight-recorder trace (JSONL) to this file")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outw, errs := errw.New(stdout), errw.New(stderr)

	if *cpuProf != "" || *memProf != "" {
		stop, err := prof.Start(*cpuProf, *memProf)
		if err != nil {
			errs.Println("uavbench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				errs.Println("uavbench:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	cfg, ok := presetConfig(*preset)
	if !ok {
		errs.Printf("uavbench: unknown preset %q\n", *preset)
		return 2
	}
	if *instances > 0 {
		cfg.Instances = *instances
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *tracePath != "" {
		cfg.Trace = trace.NewBuffer()
	}

	var figures []string
	for _, name := range strings.Split(*fig, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := experiments.Figures[name]; !ok {
			errs.Printf("uavbench: unknown figure %q\n", name)
			return 2
		}
		figures = append(figures, name)
	}
	if len(figures) == 0 {
		errs.Println("uavbench: no figures selected")
		return 2
	}

	b, err := experiments.RunBench(*preset, cfg, figures)
	if err != nil {
		errs.Println("uavbench:", err)
		return 1
	}
	if *serveArg != "none" {
		vcfg, ok := presetConfig(*serveArg)
		if !ok {
			errs.Printf("uavbench: unknown serve preset %q\n", *serveArg)
			return 2
		}
		if *seed != 0 {
			vcfg.Seed = *seed
		}
		b.Serve, err = experiments.RunBenchServe(*serveArg, vcfg, *serveReqs, *serveDist, *serveCli)
		if err != nil {
			errs.Println("uavbench:", err)
			return 1
		}
	}
	if *faultsArg != "none" {
		spec := *faultsArg
		if spec == "default" {
			spec = faults.DefaultSpec
		}
		b.FaultScenarios, err = experiments.BenchFaultScenarios(cfg, spec)
		if err != nil {
			errs.Println("uavbench:", err)
			return 1
		}
	}

	if cfg.Trace != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			errs.Println("uavbench:", err)
			return 1
		}
		if err := trace.WriteJSONL(f, cfg.Trace.Snapshot(), false); err != nil {
			_ = f.Close() // best-effort cleanup; the write already failed
			errs.Println("uavbench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			errs.Println("uavbench:", err)
			return 1
		}
		outw.Printf("trace written to %s (%d records)\n", *tracePath, cfg.Trace.Len())
	}

	if *out == "-" {
		if err := b.WriteJSON(stdout); err != nil {
			errs.Println("uavbench:", err)
			return 1
		}
		if outw.Err() != nil {
			return 1
		}
		return 0
	}
	f, err := os.Create(*out)
	if err != nil {
		errs.Println("uavbench:", err)
		return 1
	}
	if err := b.WriteJSON(f); err != nil {
		_ = f.Close() // best-effort cleanup; the write already failed
		errs.Println("uavbench:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		errs.Println("uavbench:", err)
		return 1
	}
	for _, bf := range b.Figures {
		outw.Printf("%-18s %8.3f s wall  %8.3f s plan  %6d plans\n",
			bf.Figure, bf.WallSeconds, bf.PlanSeconds, bf.PlanCalls)
	}
	if sv := b.Serve; sv != nil {
		parity := "bit-identical"
		if !sv.BitIdentical {
			parity = "BODIES DIVERGED"
		}
		outw.Printf("serve/%-11s %6.0f req/s  p50 %.2f ms  p99 %.2f ms  hits %d  misses %d  %s\n",
			sv.Preset, sv.RequestsPerSec, sv.P50Ms, sv.P99Ms, sv.Hits, sv.Misses, parity)
	}
	for _, fsn := range b.FaultScenarios {
		outw.Printf("faults/%-11s %7.1f%% retained  %4d replans  %4d skipped\n",
			fsn.Planner, 100*fsn.RetainedFrac, fsn.Replans, fsn.StopsSkipped)
	}
	outw.Printf("wrote %s\n", *out)
	if outw.Err() != nil {
		return 1
	}
	return 0
}
