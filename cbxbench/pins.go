package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// pinsJSON pins every simulated statistic of the groundtruth
// population: one hit rate and window count per (benchmark, geometry).
// A change meant only to speed things up must leave all of them, and
// so the digest, unchanged. Regenerate with --write-pins only for a
// change that is meant to alter simulation, and say why.
//
//go:embed pins.json
var pinsJSON []byte

// pin is one (benchmark, geometry) ground-truth statistic.
type pin struct {
	Bench   string  `json:"bench"`
	Sets    int     `json:"sets"`
	Ways    int     `json:"ways"`
	HitRate float64 `json:"hit_rate"`
	Windows int     `json:"windows"`
}

func (p pin) key() string { return fmt.Sprintf("%s|%dx%d", p.Bench, p.Sets, p.Ways) }

// pinFile is the on-disk form of pins.json.
type pinFile struct {
	Population string `json:"population"`
	Digest     string `json:"digest"`
	Items      []pin  `json:"items"`
}

// pinTable indexes pins by key and carries the pinned digest.
type pinTable struct {
	digest string
	byKey  map[string]pin
}

func parsePins(data []byte) (pinTable, error) {
	var f pinFile
	if err := json.Unmarshal(data, &f); err != nil {
		return pinTable{}, fmt.Errorf("pins: %w", err)
	}
	t := pinTable{digest: f.Digest, byKey: make(map[string]pin, len(f.Items))}
	for _, p := range f.Items {
		t.byKey[p.key()] = p
	}
	if len(t.byKey) != len(f.Items) {
		return pinTable{}, fmt.Errorf("pins: duplicate (benchmark, geometry) entries")
	}
	return t, nil
}

// lookup returns the pin for one (benchmark, geometry) pair.
func (t pinTable) lookup(bench string, sets, ways int) (pin, bool) {
	p, ok := t.byKey[pin{Bench: bench, Sets: sets, Ways: ways}.key()]
	return p, ok
}

// check compares one observed statistic against its pin and describes
// the mismatch, or returns "" when it matches exactly.
func (t pinTable) check(got pin) string {
	want, ok := t.byKey[got.key()]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no pin", got.key())
	case got.HitRate != want.HitRate || got.Windows != want.Windows:
		return fmt.Sprintf("%s: hit rate %v windows %d, pinned %v windows %d",
			got.key(), got.HitRate, got.Windows, want.HitRate, want.Windows)
	}
	return ""
}

// pinDigest hashes a complete set of statistics in a canonical order,
// so two sets match only when every (benchmark, geometry) entry does.
func pinDigest(ps []pin) string {
	lines := make([]string, len(ps))
	for i, p := range ps {
		lines[i] = fmt.Sprintf("%s|%s|%d\n", p.key(), strconv.FormatFloat(p.HitRate, 'g', -1, 64), p.Windows)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(sum[:])
}

// writePinsFile builds the groundtruth population once and writes its
// statistics as a fresh pins file.
func writePinsFile(path string) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "pins-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	ps, err := simulatePopulation(dir)
	if err != nil {
		return err
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].key() < ps[j].key() })
	// One item per line keeps the file small and its diffs readable.
	head, err := json.Marshal(pinFile{Population: populationDesc, Digest: pinDigest(ps)})
	if err != nil {
		return err
	}
	var b strings.Builder
	b.Write(head[:len(head)-len(`"items":null}`)])
	b.WriteString("\"items\": [\n")
	for i, p := range ps {
		line, err := json.Marshal(p)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(ps)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
