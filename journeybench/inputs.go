package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// Fingerprint pins one policy lane's replay outcome. Two replays of
// the same input agree on every field, whichever driver ran them.
type Fingerprint struct {
	Misses      int64 `json:"misses"`
	PurgedBytes int64 `json:"purged_bytes"`
	Triggers    int   `json:"triggers"`
	FinalFiles  int   `json:"final_files"`
	FinalBytes  int64 `json:"final_bytes"`
}

func fingerprint(res *sim.Result) Fingerprint {
	fp := Fingerprint{Misses: res.TotalMisses, Triggers: len(res.Reports),
		FinalFiles: res.Final.Count(), FinalBytes: res.Final.TotalBytes()}
	for _, r := range res.Reports {
		fp.PurgedBytes += r.PurgedBytes
	}
	return fp
}

// lane is one policy configuration the batch journeys replay.
type lane struct {
	name   string
	policy string
	days   int
}

// sweepLanes is the 4-policy sweep: {FLT, ActiveDR} x {30 d, 90 d}.
// compareLanes is its 90 d half, replayed one policy at a time.
var (
	sweepLanes = []lane{
		{"flt-30d", sim.PolicyFLT, 30},
		{"activedr-30d", sim.PolicyActiveDR, 30},
		{"flt-90d", sim.PolicyFLT, 90},
		{"activedr-90d", sim.PolicyActiveDR, 90},
	}
	compareLanes = sweepLanes[2:]
)

// simConfig is the configuration every journey replays with: the
// paper's 7-day trigger and the CLIs' default 50% purge target.
func simConfig(days int) sim.Config {
	return sim.Config{Lifetime: timeutil.Days(days), TargetUtilization: 0.5}
}

//go:embed golden.json
var goldenJSON []byte

// golden maps a dataset's key (datasetKey) to the pinned fingerprint of
// every lane in sweepLanes.
type golden map[string]map[string]Fingerprint

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// datasetsPerRun is how many synthesised populations one run replays,
// round robin. What one 2000-user population costs to replay depends on
// the few heavy users its seed draws: over seeds 1-10, seeds 5 and 7
// replayed 8-17% slower than the median in two sets half an hour
// apart. The mean over four independent populations varies half as
// much.
const datasetsPerRun = 4

func datasetKey(users int, seed uint64, index int) string {
	return fmt.Sprintf("u%d-s%d-d%d", users, seed, index)
}

// inputs is one generated dataset on disk: the gzip-TSV dataset
// directory and the binary snapfile of its metadata snapshot. Dataset
// Index of run seed Seed is synthesised with synth seed
// datasetsPerRun*Seed+Index.
type inputs struct {
	Key      string `json:"key"`
	Users    int    `json:"users"`
	Seed     uint64 `json:"seed"`
	Index    int    `json:"index"`
	Dir      string `json:"-"`
	Digest   string `json:"digest"`
	Accesses int    `json:"accesses"`
	// Reference holds lane fingerprints from untimed Emulator.Run
	// replays, computed at generation for datasets golden.json lacks.
	Reference map[string]Fingerprint `json:"reference,omitempty"`
}

func (in *inputs) dataDir() string  { return filepath.Join(in.Dir, "data") }
func (in *inputs) snapfile() string { return filepath.Join(in.Dir, "fs.snap") }

const manifestName = "manifest.json"

// prepareRun returns the run's datasets for (users, seed), generating
// any that are absent, two at a time, and one SHA-256 over their
// digests.
func prepareRun(work string, users int, seed uint64, g golden) ([]*inputs, string, error) {
	sets := make([]*inputs, datasetsPerRun)
	errs := make([]error, datasetsPerRun)
	var wg sync.WaitGroup
	slots := make(chan struct{}, 2)
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			sets[i], errs[i] = prepareInputs(work, users, seed, i, g)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, "", err
	}
	h := sha256.New()
	for _, in := range sets {
		io.WriteString(h, in.Digest)
	}
	return sets, hex.EncodeToString(h.Sum(nil)), nil
}

// prepareInputs returns dataset index of (users, seed) under work,
// generating it when absent. Generation is deterministic, so a
// complete earlier generation (its manifest is written last) whose
// files still hash to the recorded digest is reused.
func prepareInputs(work string, users int, seed uint64, index int, g golden) (*inputs, error) {
	key := datasetKey(users, seed, index)
	dir := filepath.Join(work, "inputs", key)
	if blob, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var in inputs
		if json.Unmarshal(blob, &in) == nil {
			in.Dir = dir
			if d, err := digestInputs(&in); err == nil && d == in.Digest {
				return &in, nil
			}
		}
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	in := &inputs{Key: key, Users: users, Seed: seed, Index: index, Dir: tmp}
	ds, err := synth.Generate(synth.Config{Seed: seed*datasetsPerRun + uint64(index), Users: users})
	if err != nil {
		return nil, err
	}
	if err := trace.WriteDataset(in.dataDir(), ds); err != nil {
		return nil, err
	}
	if err := vfs.WriteSnapfileFromSnapshot(in.snapfile(), &ds.Snapshot); err != nil {
		return nil, err
	}
	in.Accesses = len(ds.Accesses)
	if in.Digest, err = digestInputs(in); err != nil {
		return nil, err
	}
	if _, ok := g[key]; !ok {
		if in.Reference, err = referenceRun(ds); err != nil {
			return nil, err
		}
	}
	blob, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), blob, 0o644); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	in.Dir = dir
	return in, nil
}

// referenceRun replays every sweep lane with a dedicated
// Emulator.Run, the reference the journeys' drivers must match.
func referenceRun(ds *trace.Dataset) (map[string]Fingerprint, error) {
	out := make(map[string]Fingerprint, len(sweepLanes))
	ems := make(map[int]*sim.Emulator)
	for _, l := range sweepLanes {
		em := ems[l.days]
		if em == nil {
			var err error
			if em, err = sim.New(ds, simConfig(l.days)); err != nil {
				return nil, err
			}
			ems[l.days] = em
		}
		res, err := runPolicy(em, l.policy)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", l.name, err)
		}
		out[l.name] = fingerprint(res)
	}
	return out, nil
}

// newPolicy builds a fresh instance of the named lane policy for em.
func newPolicy(em *sim.Emulator, policy string) (retention.Policy, error) {
	if policy == sim.PolicyFLT {
		return em.NewFLT(), nil
	}
	return em.NewActiveDR()
}

// runPolicy replays one policy through Emulator.Run.
func runPolicy(em *sim.Emulator, policy string) (*sim.Result, error) {
	p, err := newPolicy(em, policy)
	if err != nil {
		return nil, err
	}
	return em.Run(p)
}

// expected returns the fingerprints a run on in must reproduce: the
// pinned golden entry when there is one, else the generation-time
// reference.
func expected(in *inputs, g golden) (map[string]Fingerprint, string, error) {
	if fp, ok := g[in.Key]; ok {
		return fp, "golden", nil
	}
	if len(in.Reference) == 0 {
		return nil, "", errors.New("no golden entry and no reference fingerprints for these inputs")
	}
	return in.Reference, "reference", nil
}

// inputFiles lists the generated files, relative to in.Dir, in a
// fixed order (manifest excluded).
func inputFiles(in *inputs) ([]string, error) {
	ents, err := os.ReadDir(in.dataDir())
	if err != nil {
		return nil, err
	}
	files := []string{"fs.snap"}
	for _, e := range ents {
		files = append(files, filepath.Join("data", e.Name()))
	}
	sort.Strings(files)
	return files, nil
}

// digestInputs hashes every generated file (name, length, bytes) into
// one SHA-256.
func digestInputs(in *inputs) (string, error) {
	files, err := inputFiles(in)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, name := range files {
		f, err := os.Open(filepath.Join(in.Dir, name))
		if err != nil {
			return "", err
		}
		fi, err := f.Stat()
		if err == nil {
			io.WriteString(h, name+"\x00"+strconv.FormatInt(fi.Size(), 10)+"\x00")
			_, err = io.Copy(h, f)
		}
		f.Close()
		if err != nil {
			return "", fmt.Errorf("digest %s: %w", name, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
