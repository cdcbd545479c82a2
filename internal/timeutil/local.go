package timeutil

// Local-timestamp normalization. Real facility traces (the IN2P3 2024
// workload dataset, for one) record job times as local wall-clock
// strings with no offset — including days where DST makes the wall
// clock skip an hour or replay one. Everything downstream of ingestion
// buckets by UTC Unix seconds (StartOfDay, DayIndex, the vfs atime-day
// index), so local times must be normalized exactly once, at the parse
// edge, and never leak past it. This file is that edge: it converts a
// (wall-clock string, IANA zone) pair to a Time and nothing else in
// the repo touches zones.
//
// DST corner cases inherit Go's time.Date normalization, pinned by the
// regression tests in local_test.go:
//   - a nonexistent wall time (spring-forward gap) is shifted forward
//     by the width of the gap (02:30 in a 02:00→03:00 jump lands at
//     03:30 post-transition — later on the Unix line than a record
//     stamped 03:00, so wall order is not Unix order around the gap);
//   - an ambiguous wall time (fall-back hour) maps to the
//     post-transition (standard-offset) occurrence.
// Both choices are deterministic functions of the tzdata shipped with
// the binary, which is all replay determinism needs.

import (
	"fmt"
	"strings"
	"time"
)

// localLayouts are the wall-clock shapes accepted by ParseLocal, in
// the order tried. All are offset-free: a timestamp that carries its
// own offset does not need a zone and should be parsed upstream.
var localLayouts = []string{
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
}

// Location resolves an IANA zone name (e.g. "Europe/Paris"). It is a
// thin wrapper over the Go runtime's tzdata lookup so callers outside
// this package never import time directly for zone handling.
func Location(name string) (*time.Location, error) {
	loc, err := time.LoadLocation(name)
	if err != nil {
		return nil, fmt.Errorf("timeutil: unknown zone %q: %w", name, err)
	}
	return loc, nil
}

// Zone is a resolved IANA zone callers can hold without importing
// time themselves — packages inside vetadr's determinism scope parse
// local timestamps through it.
type Zone struct {
	name string
	loc  *time.Location
}

// LoadZone resolves an IANA zone name into a Zone.
func LoadZone(name string) (*Zone, error) {
	loc, err := Location(name)
	if err != nil {
		return nil, err
	}
	return &Zone{name: name, loc: loc}, nil
}

// Name returns the zone's IANA name.
func (z *Zone) Name() string { return z.name }

// Parse parses an offset-free wall-clock timestamp in the zone. A nil
// receiver parses as UTC.
func (z *Zone) Parse(s string) (Time, error) {
	if z == nil {
		return ParseLocal(s, nil)
	}
	return ParseLocal(s, z.loc)
}

// ParseLocal parses an offset-free local wall-clock timestamp in loc
// and normalizes it to UTC Unix seconds. Accepted layouts are
// "2006-01-02 15:04:05", the T-separated variant, minute precision,
// and a bare date (midnight). A nil loc means UTC.
func ParseLocal(s string, loc *time.Location) (Time, error) {
	if loc == nil {
		loc = time.UTC
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("timeutil: empty timestamp")
	}
	for _, layout := range localLayouts {
		if len(s) != len(layout) {
			continue
		}
		t, err := time.ParseInLocation(layout, s, loc)
		if err == nil {
			return FromGo(t), nil
		}
	}
	return 0, fmt.Errorf("timeutil: unparseable local timestamp %q", s)
}
