package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// reference.json holds recorded outcome digests per workload and seed.
// Regenerate it after a deliberate change to a workload's outcome with
//
//	bash perfbench/run.sh --workload all --reference-seeds 0-99 --write-reference perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// workloadRefs is one workload's entry: the params the digests were
// recorded with, and per seed the digest of every run by run name.
type workloadRefs struct {
	Params string                       `json:"params"`
	Seeds  map[string]map[string]string `json:"seeds"`
}

type references map[string]*workloadRefs

func loadReferences() (references, error) {
	refs := references{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// lookup returns the recorded digests for the workload and seed, or nil
// when none were recorded for these params.
func (r references) lookup(w *workload, seed int64) map[string]string {
	wr := r[w.name]
	if wr == nil {
		return nil
	}
	if wr.Params != w.params() {
		fmt.Printf("note: the reference digests were recorded for params [%s]; these differ, so none apply\n", wr.Params)
		return nil
	}
	return wr.Seeds[strconv.FormatInt(seed, 10)]
}

// writeReference runs each workload once per seed and merges the digests
// into the reference file at path.
func writeReference(path string, ws []*workload, seeds []int64, stateDir string) error {
	refs := references{}
	switch raw, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(raw, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for _, w := range ws {
		wr := refs[w.name]
		if wr == nil || wr.Params != w.params() {
			wr = &workloadRefs{Params: w.params(), Seeds: map[string]map[string]string{}}
			refs[w.name] = wr
		}
		for _, seed := range seeds {
			rep, err := w.repeat(seed, false, stateDir)
			if err != nil {
				return err
			}
			if len(rep.errs) > 0 {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, errors.Join(rep.errs...))
			}
			runs := map[string]string{}
			for _, pr := range rep.probes {
				runs[pr.name] = hex.EncodeToString(pr.digest[:])
			}
			wr.Seeds[strconv.FormatInt(seed, 10)] = runs
			fmt.Printf("%s seed %d: recorded %d run digests (%.1fs)\n", w.name, seed, len(runs), rep.wall.Seconds())
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
