package main

import (
	"fmt"

	"activedr/internal/sim"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// runSweep4 is the sweep4-tsv journey: load the gzip-TSV dataset,
// build the multiplexer over the snapshot tree, and replay the four
// sweep lanes in one multiplexed pass.
func runSweep4(c *child) error {
	rec := c.rec
	root := rec.begin("sample", "")
	setup := rec.begin("setup", "")
	var (
		ds   *trace.Dataset
		base *vfs.FS
		mux  *sim.Multiplexer
	)
	if err := c.layer("trace.load", "trace.load_s", func() (err error) {
		ds, _, err = trace.LoadDatasetWith(c.in.dataDir(), trace.ReadOptions{})
		return err
	}); err != nil {
		return err
	}
	if err := c.layer("vfs.build", "vfs.base_s", func() (err error) {
		base, err = vfs.FromSnapshot(&ds.Snapshot)
		return err
	}); err != nil {
		return err
	}
	_ = c.layer("sim.new", "sim.new_s", func() error {
		mux = sim.NewMultiplexerWithBase(ds, base)
		return nil
	})
	c.s.SetupS = rec.end(setup).Seconds()
	c.noteLoad(ds, base.Count())

	replay := rec.begin("replay", "")
	specs := make([]sim.LaneSpec, len(sweepLanes))
	for i, l := range sweepLanes {
		specs[i] = sim.LaneSpec{Config: simConfig(l.days), Policy: l.policy}
		if c.traced {
			specs[i].Opts.Obs = c.observer()
		}
	}
	run := rec.begin("sim.mux_run", "")
	results, err := mux.Run(specs)
	if err == nil && c.traced {
		rec.synthetic("retention.purge", "", phaseSum(c.observers, "purge"))
	}
	c.s.Layer["sim.mux_run_s"] = rec.end(run).Seconds()
	if err != nil {
		return err
	}
	c.s.ReplayS = rec.end(replay).Seconds()
	if c.traced {
		c.noteObserved()
	}
	for i, l := range sweepLanes {
		c.s.Lanes[l.name] = fingerprint(results[i])
	}
	rec.end(root)
	return nil
}

// runCompareSnap is the compare-snap journey, the default
// `simulate -vfs-snapshot` path: load the activity TSVs without the
// snapshot, open and decode the snapfile, and replay FLT-90d then
// ActiveDR-90d through the per-event Stream driver.
func runCompareSnap(c *child) error {
	rec := c.rec
	root := rec.begin("sample", "")
	setup := rec.begin("setup", "")
	var (
		ds   *trace.Dataset
		sf   *vfs.SnapshotFile
		base *vfs.FS
		em   *sim.Emulator
	)
	if err := c.layer("trace.load", "trace.load_s", func() (err error) {
		ds, _, err = trace.LoadDatasetWith(c.in.dataDir(), trace.ReadOptions{SkipSnapshot: true})
		return err
	}); err != nil {
		return err
	}
	if err := c.layer("vfs.snap_open", "vfs.snap_open_s", func() (err error) {
		sf, err = vfs.OpenSnapfile(c.in.snapfile())
		return err
	}); err != nil {
		return err
	}
	if err := c.layer("vfs.snap_load", "vfs.snap_load_s", func() (err error) {
		base, err = vfs.LoadSnapfileFS(sf)
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
		return err
	}); err != nil {
		return err
	}
	ds.Snapshot.Taken = sf.Taken()
	c.s.Layer["vfs.base_s"] = c.s.Layer["vfs.snap_open_s"] + c.s.Layer["vfs.snap_load_s"]
	if err := c.layer("sim.new", "sim.new_s", func() (err error) {
		em, err = sim.NewWithBase(ds, base, simConfig(90))
		return err
	}); err != nil {
		return err
	}
	c.s.SetupS = rec.end(setup).Seconds()
	c.noteLoad(ds, base.Count())

	replay := rec.begin("replay", "")
	var res *sim.Result
	for _, l := range compareLanes {
		var err error
		if c.traced {
			res, err = c.tracedStream(em, ds, l)
		} else {
			_, err = rec.time("sim.run", l.name, func() (err error) {
				res, err = runPolicy(em, l.policy)
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		c.s.Lanes[l.name] = fingerprint(res)
	}
	c.s.ReplayS = rec.end(replay).Seconds()
	if c.traced {
		c.noteObserved()
	}
	rec.end(root)
	return nil
}

// tracedStream replays one lane by driving Stream.Apply directly, as
// Emulator.Run does, with a span around each stretch of accesses
// between triggers and a trigger span around the Apply that fires
// one. The Observer's purge phase time inside each trigger becomes
// that trigger's child.
func (c *child) tracedStream(em *sim.Emulator, ds *trace.Dataset, l lane) (*sim.Result, error) {
	rec := c.rec
	policy, err := newPolicy(em, l.policy)
	if err != nil {
		return nil, err
	}
	o := c.observer()
	run := rec.begin("sim.stream", l.name)
	defer rec.end(run)
	s := em.NewStream(policy, sim.RunOptions{Obs: o})
	acc := ds.Accesses
	for i := 0; i < len(acc); {
		apply := rec.begin("sim.apply", l.name)
		for next := s.NextTrigger(); i < len(acc) && acc[i].TS < next; i++ {
			if err := s.Apply(&acc[i]); err != nil {
				rec.end(apply)
				return nil, err
			}
		}
		c.s.Layer["sim.stream_apply_s"] += rec.end(apply).Seconds()
		if i == len(acc) {
			break
		}
		before := phase(o, "purge")
		trig := rec.begin("sim.trigger", l.name)
		err := s.Apply(&acc[i])
		i++
		rec.synthetic("retention.purge", l.name, phase(o, "purge")-before)
		c.s.Layer["sim.trigger_s"] += rec.end(trig).Seconds()
		if err != nil {
			return nil, err
		}
	}
	res := s.Result()
	res.Final = s.FS()
	return res, nil
}
