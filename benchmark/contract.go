package main

import (
	"bytes"
	"encoding/json"
)

// contractMetric is one metric as BENCHMARK.json spells it. Per-layer
// metrics have no bound key at all, so Bound is a pointer.
type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// contract is BENCHMARK.json: exactly these keys.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// runSeconds is the window the contract's driver asks for.
const runSeconds = 16

// buildContract renders the tables of spec.go as BENCHMARK.json, so the
// file at the repository root is generated, never edited:
//
//	go run -C benchmark . -contract > BENCHMARK.json
func buildContract() []byte {
	c := contract{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return buf.Bytes()
}
