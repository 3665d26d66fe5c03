package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"helium/internal/legacy"
)

// Every traced run reports every per-layer metric of BENCHMARK.json.  A
// layer the workload's own ops never call (serve on the lift workloads,
// fuzzgen off lift-fuzz, the corpus kernels on serve and lift-fuzz) is
// measured by a probe instead: a short traced run, at the workload's
// seed, of the workload that does call it.  A metric the workload
// measured itself is never replaced; the notes line names the metrics
// each probe supplied.
var probes = []struct {
	name string
	// sentinel is a metric only the probed layers set; a run that lacks
	// it calls the probe.
	sentinel string
	run      func(r *report, seed uint64) error
}{
	{"corpus", "lift.kernel." + legacy.Kernels()[0].Name + "_ms", probeCorpus},
	{"fuzz", "fuzzgen.call.Run_ms", probeFuzz},
	{"serve", "serve.roundtrip_p50_ms", probeServe},
}

// The corpus probe lifts at the geometry serve.Warm lifts at (the serve
// default), so on the serve workloads it measures the lifts set-up does.
const warmW, warmH = 40, 24

// probeFuzzCases is the fuzz probe's block: wide enough that the parts
// of fuzzgen.Run still add up to its time within the check's tolerance.
const probeFuzzCases = 128

// The serve probe's closed loop: a warm-up, then a traced segment.
const (
	probeServeWarmup = 500 * time.Millisecond
	probeServeLoop   = time.Second
)

func probeCorpus(r *report, seed uint64) error {
	t := newLiftTrace()
	_, _, kept := corpusPasses(corpusInputsAt(seed, warmW, warmH), 0, r, t)
	t.layers(r)
	return irLayer(kept, r)
}

func probeFuzz(r *report, seed uint64) error {
	specs := fuzzSpecs(seed)[:probeFuzzCases]
	// A warm-up pass, so fuzzgen.Run's times, which the traced pass's
	// parts are held to, are not a cold process's.
	fuzzPasses(specs, 0, r)
	_, _, first := fuzzPasses(specs, 0, r)
	fuzzTraced(r, specs, first)
	return nil
}

func probeServe(r *report, seed uint64) error {
	rg, _, err := startServe(seed, 48, 32, 1, 1)
	if err != nil {
		return err
	}
	defer rg.stop()
	rg.g.run(r, probeServeWarmup, false)
	rg.traced(r, probeServeLoop)
	return rg.outOfLoop(r)
}

// fillLayers runs the probes a traced run needs and adds the metrics it
// lacks.  Probe ops count as the run's ops, and a probe's failed checks
// make the run incorrect.
func fillLayers(r *report, seed uint64) error {
	supplied := map[string][]string{}
	for _, p := range probes {
		if _, ok := r.Metrics[p.sentinel]; ok {
			continue
		}
		pr := newReport()
		if err := p.run(pr, seed); err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		r.Attempted += pr.Attempted
		r.Failed += pr.Failed
		for _, q := range pr.Problems {
			r.problem("%s probe: %s", p.name, q)
		}
		var keys []string
		for k, m := range pr.Metrics {
			if _, ok := r.Metrics[k]; !ok {
				r.Metrics[k] = m
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		supplied[p.name] = keys
		r.Notes["probe."+p.name] = pr.Notes
	}
	r.Notes["probe_supplied"] = supplied
	return nil
}

// listed is one metric of BENCHMARK.json.
type listed struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// conform holds a run's metrics to BENCHMARK.json (read from the
// checkout root): the result line carries exactly the end-to-end list,
// or the per-layer list for a traced run.  A listed metric that is
// missing, in another unit or not a finite number is a failed check;
// anything measured but not listed moves to the notes.
func conform(r *report, trace bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var m struct {
		EndToEnd []listed `json:"end_to_end"`
		PerLayer []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := m.EndToEnd
	if trace {
		want = m.PerLayer
	}
	keep := map[string]metric{}
	for _, l := range want {
		got, ok := r.Metrics[l.Name]
		switch {
		case !ok:
			r.problem("metric %s was not measured", l.Name)
		case got.Unit != l.Unit:
			r.problem("metric %s is in %s, BENCHMARK.json says %s", l.Name, got.Unit, l.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			r.problem("metric %s is %v", l.Name, got.Value)
		default:
			keep[l.Name] = got
		}
		delete(r.Metrics, l.Name)
	}
	if len(r.Metrics) > 0 {
		r.Notes["unlisted_metrics"] = r.Metrics
	}
	r.Metrics = keep
	return nil
}
