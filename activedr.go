// Package activedr is a from-scratch Go implementation of ActiveDR,
// the activeness-based data-retention policy for HPC scratch file
// systems from "Exploiting User Activeness for Data Retention in HPC
// Systems" (SC '21), together with everything needed to reproduce the
// paper's evaluation: the fixed-lifetime (FLT) baseline, a prefix-tree
// virtual file system, trace formats, a synthetic OLCF-like trace
// generator, and a replay emulator.
//
// The package is a thin facade over the internal implementation
// packages; the exported names are aliases, so the full method sets
// are available here. Typical use:
//
//	ds, _ := activedr.Generate(activedr.SynthConfig{Users: 2000})
//	em, _ := activedr.NewEmulator(ds, activedr.SimConfig{TargetUtilization: 0.5})
//	cmp, _ := em.RunComparison()
//	fmt.Printf("miss reduction: %.1f%%\n", 100*cmp.MissReduction())
//
// The cmd/ directory holds the operational tools (tracegen, activedr,
// simulate, report), examples/ holds runnable walkthroughs, and
// bench_test.go regenerates every table and figure of the paper.
package activedr

import (
	"activedr/internal/activeness"
	"activedr/internal/archive"
	"activedr/internal/config"
	"activedr/internal/experiments"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// Core time types.
type (
	// Time is a Unix timestamp in seconds.
	Time = timeutil.Time
	// Duration is a span of time in seconds.
	Duration = timeutil.Duration
)

// Days returns a Duration of n days.
func Days(n int) Duration { return timeutil.Days(n) }

// Date builds a Time from a UTC calendar date.
var Date = timeutil.Date

// Trace records and datasets.
type (
	// Dataset bundles the five trace kinds of one emulated system.
	Dataset = trace.Dataset
	// User is one row of the anonymized user list.
	User = trace.User
	// UserID indexes the dataset's user table.
	UserID = trace.UserID
	// Job is one scheduler-log record; its activeness impact is its
	// core-hours.
	Job = trace.Job
	// Access is one application-log (file access) record.
	Access = trace.Access
	// Publication is one outcome record, weighted per Eq. (8).
	Publication = trace.Publication
	// Login is one shell-login operation record (Table 2).
	Login = trace.Login
	// Transfer is one data-transfer operation record (Table 2).
	Transfer = trace.Transfer
	// Snapshot is a parallel-file-system metadata snapshot.
	Snapshot = trace.Snapshot
)

// LoadDataset reads a dataset directory written by WriteDataset (or
// cmd/tracegen).
var LoadDataset = trace.LoadDataset

// WriteDataset persists a dataset directory.
var WriteDataset = trace.WriteDataset

// Activeness model (the paper's §3.2–3.3).
type (
	// Evaluator computes user activeness ranks from recorded
	// activities.
	Evaluator = activeness.Evaluator
	// Rank is a user's (Φ_op, Φ_oc) with data-presence flags.
	Rank = activeness.Rank
	// Group is one quadrant of the activeness matrix.
	Group = activeness.Group
	// Class distinguishes operation from outcome activities.
	Class = activeness.Class
	// Matrix counts users per group (Figure 5).
	Matrix = activeness.Matrix
)

// Activeness groups in ascending scan order, and classes.
const (
	BothInactive        = activeness.BothInactive
	OutcomeActiveOnly   = activeness.OutcomeActiveOnly
	OperationActiveOnly = activeness.OperationActiveOnly
	BothActive          = activeness.BothActive
	Operation           = activeness.Operation
	Outcome             = activeness.Outcome
)

// NewEvaluator builds an activeness evaluator with period length d.
var NewEvaluator = activeness.NewEvaluator

// Virtual file system.
type (
	// FS is the compact-prefix-tree virtual file system.
	FS = vfs.FS
	// FileMeta is the per-file metadata retention consults.
	FileMeta = vfs.FileMeta
	// ReservedSet indexes purge-exempt paths.
	ReservedSet = vfs.ReservedSet
)

// NewFS returns an empty virtual file system.
var NewFS = vfs.New

// FromSnapshot loads a metadata snapshot into a virtual file system.
var FromSnapshot = vfs.FromSnapshot

// NewReservedSet returns an empty purge-exemption index.
var NewReservedSet = vfs.NewReservedSet

// Retention policies.
type (
	// Policy is a purge procedure (FLT or ActiveDR).
	Policy = retention.Policy
	// FLT is the fixed-lifetime baseline.
	FLT = retention.FLT
	// ActiveDR is the activeness-based policy of §3.4.
	ActiveDR = retention.ActiveDR
	// RetentionConfig parameterizes ActiveDR.
	RetentionConfig = retention.Config
	// Report is the outcome of one purge pass.
	Report = retention.Report
)

// NewActiveDR builds the ActiveDR policy.
var NewActiveDR = retention.NewActiveDR

// PlanPurge dry-runs a policy against a copy-free dry-run view of the
// file system and returns the report with the victim list populated;
// the input's contents are left untouched.
var PlanPurge = retention.Plan

// Synthetic trace generation.
type (
	// SynthConfig parameterizes the synthetic OLCF-like generator.
	SynthConfig = synth.Config
)

// Generate produces a synthetic dataset (the substitution for the
// proprietary Titan/Spider traces; see DESIGN.md §4).
var Generate = synth.Generate

// Replay emulation (the paper's §4.1.3 procedure).
type (
	// Emulator replays a dataset against retention policies.
	Emulator = sim.Emulator
	// SimConfig parameterizes an emulation run.
	SimConfig = sim.Config
	// RunResult is the outcome of one policy replay.
	RunResult = sim.Result
	// Comparison pairs an FLT run with an ActiveDR run.
	Comparison = sim.Comparison
)

// NewEmulator prepares a replay emulator over a dataset.
var NewEmulator = sim.New

// Experiments (per-figure harnesses).
type (
	// Suite caches the emulation runs behind the paper's figures.
	Suite = experiments.Suite
)

// NewSuite wraps a dataset for figure regeneration.
var NewSuite = experiments.NewSuite

// NewSyntheticSuite generates a synthetic dataset and wraps it.
var NewSyntheticSuite = experiments.NewSyntheticSuite

// Facility presets (Table 1).
type Facility = config.Facility

// Facilities lists the Table 1 presets.
var Facilities = config.Facilities

// Archive restore-cost modelling (the paper's miss cost).
type ArchiveModel = archive.Model

// ArchiveModels lists the reference archive models (HPSS tape, disk
// archive, wide-area re-transmission).
var ArchiveModels = archive.Models
