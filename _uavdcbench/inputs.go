package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"uavdc"
	"uavdc/internal/core"
	"uavdc/internal/experiments"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/serve"
	"uavdc/internal/units"
)

// A preset is the field distribution and planner setting a workload
// draws its inputs from. Fields with seeds 0..pool-1 form the recorded
// pool: expected.json holds every planner's collected volume and stop
// count for each of them.
type preset struct {
	key  string
	cfg  experiments.Config
	k    int
	pool int
}

// presets returns plan-paper's preset, the paper's evaluation scale
// (500 sensors, 1000 m, δ = 5 m, M ≈ 40k squares, E = 1.5×10⁵ J) with
// Algorithm 3 at K = 2, and the serve workloads' preset, the reduced
// field (60 sensors, 350 m, δ = 15 m, E = 1.5×10⁴ J) served with the
// default Algorithm 3 at K = 4. The tiny presets exist for the
// benchmark's own tests.
func presets(tiny bool) (planP, serveP preset) {
	if tiny {
		t := preset{key: "tiny-k2", cfg: experiments.Tiny(), k: 2, pool: 16}
		return t, t
	}
	return preset{key: "full-k2", cfg: experiments.Full(), k: 2, pool: 12},
		preset{key: "reduced-k4", cfg: experiments.Reduced(), k: 4, pool: 64}
}

// field is one generated sensor field and the seed that made it.
type field struct {
	seed uint64
	net  *sensornet.Network
}

func (p preset) field(seed uint64) (field, error) {
	net, err := sensornet.Generate(p.cfg.Gen, rng.New(seed))
	if err != nil {
		return field{}, fmt.Errorf("generate field %d: %w", seed, err)
	}
	return field{seed: seed, net: net}, nil
}

// poolFields returns n fields of the recorded pool, drawn without
// replacement in an order given by the workload seed; n beyond the pool
// size wraps around. A pool only a little larger than a run's sample
// keeps the field-to-field spread of the timings small while each seed
// still draws its own set.
func (p preset) poolFields(seed uint64, n int) ([]field, error) {
	perm := rng.Perm(rng.New(seed).Split("pool").Rand(), p.pool)
	out := make([]field, n)
	for i := range out {
		f, err := p.field(uint64(perm[i%p.pool]))
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// instance is the planning instance the paper's planners receive.
func (p preset) instance(net *sensornet.Network) *core.Instance {
	return &core.Instance{Net: net, Model: p.cfg.Model, Delta: units.Meters(p.cfg.Delta), K: p.k}
}

// request is the uavdc-serve/1 request for the field: default
// algorithm (Algorithm 3) at the preset's δ and K.
func (p preset) request(net *sensornet.Network) serve.Request {
	m := p.cfg.Model
	spec := serve.ScenarioSpec{
		RegionSideM:   p.cfg.Gen.Side,
		DepotX:        net.Depot.X,
		DepotY:        net.Depot.Y,
		BandwidthMBps: net.Bandwidth,
		CoverRadiusM:  net.CommRange,
		Sensors:       make([]serve.SensorSpec, len(net.Sensors)),
	}
	for i, s := range net.Sensors {
		spec.Sensors[i] = serve.SensorSpec{X: s.Pos.X, Y: s.Pos.Y, DataMB: s.Data}
	}
	return serve.Request{
		Schema:   serve.Schema,
		Scenario: spec,
		UAV: serve.UAVSpecOf(uavdc.UAV{HoverPowerW: m.HoverPower.F(), TravelPowerW: m.TravelPower.F(),
			SpeedMS: m.Speed.F(), CapacityJ: m.Capacity.F()}),
		Options: serve.OptionsSpec{DeltaM: p.cfg.Delta, K: p.k},
	}
}

// planners are the paper's four planners, in the order the benchmark
// calls them on each field. The cheap ones (Algorithms 1 and 2, about a
// seventh of a paper-scale field's planner time) are the ones plan-paper
// calls more than once per field (see runPlanners).
var planners = []struct {
	name  string
	make  func() core.Planner
	cheap bool
}{
	{"alg1", func() core.Planner { return &core.Algorithm1{} }, true},
	{"alg2", func() core.Planner { return &core.Algorithm2{} }, true},
	{"alg3", func() core.Planner { return &core.Algorithm3{} }, false},
	{"baseline", func() core.Planner { return &core.BenchmarkPlanner{} }, false},
}

// outcome is what expected.json records per planner and field.
type outcome struct {
	MB    float64 `json:"mb"`
	Stops int     `json:"stops"`
}

// expectedTable maps preset key → field seed → planner name → outcome.
type expectedTable map[string]map[string]map[string]outcome

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expectedTable, error) {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return t, nil
}

// check compares a plan's volume and stop count, bit for bit, against
// the recorded outcome.
func (t expectedTable) check(p preset, seed uint64, planner string, plan *core.Plan) error {
	want, ok := t[p.key][fmt.Sprint(seed)][planner]
	if !ok {
		return fmt.Errorf("%s field %d %s: no recorded outcome", p.key, seed, planner)
	}
	got := plan.Collected()
	if math.Float64bits(got) != math.Float64bits(want.MB) || len(plan.Stops) != want.Stops {
		return fmt.Errorf("%s field %d %s: collected %v MB in %d stops, recorded %v MB in %d stops",
			p.key, seed, planner, got, len(plan.Stops), want.MB, want.Stops)
	}
	return nil
}

// record plans every pool field of every preset with every planner and
// writes the outcomes to path. It is how expected.json was made.
func record(path string) error {
	t := expectedTable{}
	for _, tiny := range []bool{false, true} {
		planP, serveP := presets(tiny)
		for _, p := range []preset{planP, serveP} {
			if t[p.key] != nil {
				continue
			}
			t[p.key] = map[string]map[string]outcome{}
			for s := 0; s < p.pool; s++ {
				f, err := p.field(uint64(s))
				if err != nil {
					return err
				}
				row := map[string]outcome{}
				for _, pl := range planners {
					plan, err := pl.make().Plan(p.instance(f.net))
					if err != nil {
						return fmt.Errorf("%s field %d %s: %w", p.key, s, pl.name, err)
					}
					row[pl.name] = outcome{MB: plan.Collected(), Stops: len(plan.Stops)}
				}
				t[p.key][fmt.Sprint(s)] = row
				fmt.Fprintf(os.Stderr, "recorded %s field %d\n", p.key, s)
			}
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
