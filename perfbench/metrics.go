package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// metrics.json is the single table of every metric the benchmark reports:
// name, unit, direction, the regression bound of each end-to-end metric,
// and for each per-layer metric the end-to-end metric and workloads it
// should move and the workloads where it should not. BENCHMARK.json
// carries the name/unit/better/bound columns of the same table.
//
//go:embed metrics.json
var metricsJSON []byte

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type metricTable struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetricTable() (metricTable, error) {
	var t metricTable
	if err := json.Unmarshal(metricsJSON, &t); err != nil {
		return t, fmt.Errorf("perfbench: metrics.json: %w", err)
	}
	return t, nil
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the result's metrics object, in the
// table's units. A metric the run did not measure, or measured as a
// non-finite number, is an error: the result must carry every metric.
func report(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfbench: metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}
