// Command uavdcbench is the repository benchmark. It runs one workload
// against the production planner and serving code, checks every output,
// and prints one JSON result line:
//
//	uavdcbench -workload plan-paper|serve-miss|serve-hot -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics of
// BENCHMARK.json; with -trace 1 it holds the per-layer metrics, taken
// from a traced pass that follows an untraced one, plus the tracing
// overhead between the two. A provenance line precedes the result. The
// exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uavdc/internal/trace"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uavdcbench:", err)
	}
	os.Exit(code)
}

// options are the command's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	spans    string
}

// run parses args, runs the workload and writes the provenance and
// result lines to w. It returns the exit code: 0 when every check
// passed, 1 when an output check failed or the run could not finish, 2
// on a usage error.
func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("uavdcbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var recordPath string
	fs.StringVar(&o.workload, "workload", "", "plan-paper, serve-miss or serve-hot")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 24, "measurement length the work is sized to")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.BoolVar(&o.tiny, "tiny", false, "use the tiny presets (the benchmark's own tests)")
	fs.StringVar(&o.spans, "spans", "", "directory to write the traced pass's spans to as uavdc-trace/1 JSONL")
	fs.StringVar(&recordPath, "record", "", "plan every recorded pool field and write expected outcomes to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if recordPath != "" {
		if err := record(recordPath); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if !(o.seconds > 0) {
		return 2, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	o.trace = traceFlag == 1

	b := &bench{o: o, chk: &checker{}, m: metricSet{}, prov: map[string]any{}}
	heap := startHeapSampler()
	var err error
	switch o.workload {
	case "plan-paper":
		err = b.planPaper()
	case "serve-miss", "serve-hot":
		err = b.serveWorkload(o.workload == "serve-hot")
	default:
		heap.stopMB()
		return 2, fmt.Errorf("unknown -workload %q", o.workload)
	}
	heapMB := heap.stopMB()
	if err != nil {
		return 1, err
	}
	if !o.trace {
		b.m.add("heap_peak_mb", heapMB, "MB")
	}
	if err := b.writeSpans(); err != nil {
		return 1, err
	}
	return b.report(w)
}

// bench is one run's state.
type bench struct {
	o     options
	chk   *checker
	m     metricSet
	prov  map[string]any
	spans map[string]*trace.Buffer
}

// addSpans keeps a flight-recorder buffer to write out at the end.
func (b *bench) addSpans(label string, buf *trace.Buffer) {
	if b.spans == nil {
		b.spans = map[string]*trace.Buffer{}
	}
	b.spans[label] = buf
}

func (b *bench) writeSpans() error {
	if b.o.spans == "" || len(b.spans) == 0 {
		return nil
	}
	dir := filepath.Join(b.o.spans, fmt.Sprintf("%s-seed%d", b.o.workload, b.o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for label, buf := range b.spans {
		f, err := os.Create(filepath.Join(dir, label+".jsonl"))
		if err != nil {
			return err
		}
		werr := trace.WriteJSONL(f, buf.Snapshot(), false)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write spans %s: %w", label, werr)
		}
	}
	return nil
}

// timeSetup runs setup reps times and returns the last result and the
// median set-up time; teardown releases every earlier result.
func timeSetup[T any](reps int, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := teardown(last); err != nil {
				return last, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	return last, median(secs), nil
}

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 5

// report prints the provenance line and the result line.
func (b *bench) report(w io.Writer) (int, error) {
	attempted, failed := b.chk.attempted.Load(), b.chk.failed.Load()
	failures := b.chk.list()
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	b.prov["workload"], b.prov["seed"], b.prov["seconds"], b.prov["trace"] = b.o.workload, b.o.seed, b.o.seconds, b.o.trace
	b.prov["num_cpu"], b.prov["gomaxprocs"], b.prov["go_version"] = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	b.prov["failed_frac"] = frac
	b.prov["refused"] = b.chk.refused.Load()
	if len(failures) > 0 {
		b.prov["failures"] = failures
	}
	line, err := json.Marshal(map[string]any{"provenance": b.prov})
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%s\n", line)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{len(failures) == 0 && attempted > 0, attempted, failed, b.m}
	line, err = json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1, fmt.Errorf("%d output checks failed", len(failures))
	}
	return 0, nil
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// checker counts attempted operations and collects failures. An
// operation fails either its output check (a mismatch, which makes the
// run incorrect) or is refused (a non-200 reply, which only counts
// towards failed_frac).
type checker struct {
	attempted, failed, refused atomic.Int64

	mu       sync.Mutex
	failures []string
}

func (c *checker) attempt() { c.attempted.Add(1) }

func (c *checker) refuse() {
	c.failed.Add(1)
	c.refused.Add(1)
}

// failOp records an output mismatch of one attempted operation; call
// it at most once per operation.
func (c *checker) failOp(format string, args ...any) {
	c.failed.Add(1)
	c.failRun(format, args...)
}

// failRun records a failed check that belongs to the run, not to one
// operation: counts that do not repeat, or spans that do not add up.
func (c *checker) failRun(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// list returns the recorded failures, the first few in full.
func (c *checker) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	const keep = 20
	out := append([]string(nil), c.failures...)
	sort.Strings(out)
	if len(out) > keep {
		out = append(out[:keep], fmt.Sprintf("... and %d more", len(out)-keep))
	}
	return out
}
