package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"reflect"
	"sort"
)

// digest pins one workload's outputs: per-cell total cycles and dense
// cycles (a cell is one model under one configuration), a hash over every
// layer's cycles, and any rendered tables.
type digest struct {
	Cells  map[string][2]int64 `json:"cells"`
	Layers string              `json:"layers_sha256"`
	Tables []string            `json:"tables,omitempty"`
}

// digester accumulates a digest one layer at a time.
type digester struct {
	h     hash.Hash
	cells map[string][2]int64
}

func newDigester() *digester {
	return &digester{h: sha256.New(), cells: make(map[string][2]int64)}
}

func (g *digester) layer(cell, name string, cycles, dense int64) {
	fmt.Fprintf(g.h, "%s\t%s\t%d\t%d\n", cell, name, cycles, dense)
	t := g.cells[cell]
	t[0] += cycles
	t[1] += dense
	g.cells[cell] = t
}

func (g *digester) digest(tables ...string) *digest {
	return &digest{Cells: g.cells, Layers: hex.EncodeToString(g.h.Sum(nil)), Tables: tables}
}

// diff describes the first difference between two digests, or returns ""
// when they are equal.
func (d *digest) diff(want *digest) string {
	if reflect.DeepEqual(d, want) {
		return ""
	}
	names := make([]string, 0, len(want.Cells))
	for name := range want.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got, ok := d.Cells[name]; !ok || got != want.Cells[name] {
			return fmt.Sprintf("cell %s: cycles/dense %v, want %v", name, d.Cells[name], want.Cells[name])
		}
	}
	if len(d.Cells) != len(want.Cells) {
		return fmt.Sprintf("%d cells, want %d", len(d.Cells), len(want.Cells))
	}
	if d.Layers != want.Layers {
		return "per-layer cycles differ (layers_sha256)"
	}
	return "rendered tables differ"
}

// expectations maps each workload to its committed seed-1 digest.
type expectations map[string]*digest

//go:embed testdata/expected.json
var committedExpectations []byte

// committed returns the committed seed-1 digests.
func committed() (expectations, error) {
	return parseExpectations(committedExpectations)
}

func parseExpectations(data []byte) (expectations, error) {
	exp := expectations{}
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("parsing expected digests: %w", err)
	}
	return exp, nil
}

// record sets one workload's digest in the digest file at path, creating
// the file if it does not exist yet, so runs of several workloads fill one
// file.
func record(path, workload string, d *digest) error {
	exp := expectations{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if exp, err = parseExpectations(data); err != nil {
			return err
		}
	case !os.IsNotExist(err):
		return err
	}
	exp[workload] = d
	if data, err = json.MarshalIndent(exp, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
