package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"

	"repro/internal/agent"
	"repro/internal/modelstore"
)

// prepared is the output of the preparation step: the catalog's snapshot
// files, written by a sequential rip, and its deterministic simulated cost.
// The snapshot files double as the offline workload's byte-identity
// reference, because a store with one rip worker runs the sequential
// ung.Rip.
type prepared struct {
	Snap       string         `json:"snap"`
	Hours      float64        `json:"hours"`
	Clicks     map[string]int `json:"clicks"`
	CoreTokens int            `json:"core_tokens"`
}

func (p prepared) sim() simModel {
	s := simModel{hours: p.Hours, coreTokens: p.CoreTokens}
	for _, c := range p.Clicks {
		s.clicks += c
	}
	return s
}

// prepareFlag runs the preparation step in a child process, so the
// measured process's peak RSS does not include it.
const prepareFlag = "--prepare"

// prepareInto builds the snapshots under dir/snap through a persistent
// store with one rip worker and writes dir/prep.json.
func prepareInto(dir string) error {
	p := prepared{Snap: filepath.Join(dir, "snap"), Clicks: make(map[string]int)}
	store := modelstore.NewPersistent(p.Snap)
	factories := agent.Factories()
	for _, app := range agent.AppNames() {
		b, err := store.Build(app, factories[app], modelstore.Options{Workers: 1})
		if err != nil {
			return err
		}
		if b.SnapshotErr != nil {
			return b.SnapshotErr
		}
		p.Hours += b.RipStats.SimulatedTime.Hours()
		p.Clicks[app] = b.RipStats.Clicks
		p.CoreTokens += b.CoreTokens
	}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "prep.json"), data, 0o644)
}

// prepare runs prepareInto(dir) in a child process of this executable and
// reads its result. The child's output goes to this process's stderr.
func prepare(dir string) (prepared, error) {
	var p prepared
	exe, err := os.Executable()
	if err != nil {
		return p, err
	}
	cmd := exec.Command(exe, prepareFlag, dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return p, fmt.Errorf("prepare: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "prep.json"))
	if err != nil {
		return p, err
	}
	return p, json.Unmarshal(data, &p)
}
