// Package workload adapts real facility workloads into the trace
// schemas the ActiveDR evaluation replays, and reconstructs them at
// scale.
//
// Two halves:
//
//   - The IN2P3 adapter (this file) maps the public IN2P3 Computing
//     Center 2024 workload dataset — batch job accounting records as
//     CSV/TSV with local wall-clock timestamps and facility user
//     strings — into a trace.Dataset: jobs, logins, a deterministic
//     file-access synthesis for the I/O the accounting log does not
//     record, and a reference snapshot to replay against. The file is
//     read through internal/trace, under its framing, quarantine and
//     truncation rules.
//
//   - The TraceTracker-style reconstructor (fit.go / regen.go) fits
//     per-user archetype parameters from any loaded dataset and
//     regenerates statistically equivalent traces at a configurable
//     user-scale multiplier.
//
// Everything here is deterministic: same input bytes, same options,
// same dataset, bit for bit. The package is in vetadr's determinism
// scope; the only time handling is through timeutil's parse edge.
package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	_ "time/tzdata" // facility zones must resolve even on zoneinfo-less containers

	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// DefaultZone is the IN2P3 facility's zone: the dataset stamps job
// times as Europe/Paris wall clocks with no offset.
const DefaultZone = "Europe/Paris"

// IN2P3Options controls the adapter.
type IN2P3Options struct {
	// Zone is the IANA zone the record timestamps are local to.
	// Empty means DefaultZone.
	Zone string
	// Lenient quarantines malformed records into the ParseReport
	// instead of aborting on the first one.
	Lenient bool
	// MaxErrors caps the quarantine in lenient mode (0 = the
	// trace package's default).
	MaxErrors int
	// Seed drives the deterministic synthesis of the fields the
	// accounting log lacks (file accesses, sizes, the initial
	// namespace). 0 means 1.
	Seed uint64
}

// in2p3Rec is one parsed accounting record, normalized to UTC.
type in2p3Rec struct {
	user   string
	group  string
	submit timeutil.Time
	start  timeutil.Time
	end    timeutil.Time
	cores  int
}

// colMap resolves header names to field indices, -1 for absent.
type colMap struct {
	user, group, submit, start, end, cores int
}

// headerAliases maps the column spellings seen across the dataset's
// exports (and reasonable TSV re-exports) onto our logical fields.
var headerAliases = map[string]string{
	"user": "user", "owner": "user", "user_id": "user", "uid": "user",
	"group": "group", "vo": "group", "project": "group", "account": "group",
	"submit": "submit", "submit_time": "submit", "submission_time": "submit", "submitted": "submit",
	"start": "start", "start_time": "start", "started": "start",
	"end": "end", "end_time": "end", "finished": "end", "completion_time": "end",
	"cores": "cores", "ncores": "cores", "slots": "cores", "cpu_count": "cores", "cpus": "cores",
}

// sniffDelim picks the field separator from the header line: a tab if
// one is present, otherwise semicolon, otherwise comma.
func sniffDelim(header string) byte {
	if strings.IndexByte(header, '\t') >= 0 {
		return '\t'
	}
	if strings.IndexByte(header, ';') >= 0 {
		return ';'
	}
	return ','
}

// splitRecord splits one line on delim. The dataset's fields are
// plain identifiers and timestamps; there is no quoting to honor.
func splitRecord(line string, delim byte) []string {
	return strings.Split(line, string(delim))
}

// parseIN2P3Header maps a header row to a colMap. Unknown columns are
// ignored; the required set is user, cores, end, and at least one of
// submit/start.
func parseIN2P3Header(fields []string) (colMap, error) {
	cols := colMap{user: -1, group: -1, submit: -1, start: -1, end: -1, cores: -1}
	for i, f := range fields {
		switch headerAliases[strings.ToLower(strings.TrimSpace(f))] {
		case "user":
			cols.user = i
		case "group":
			cols.group = i
		case "submit":
			cols.submit = i
		case "start":
			cols.start = i
		case "end":
			cols.end = i
		case "cores":
			cols.cores = i
		}
	}
	switch {
	case cols.user < 0:
		return cols, fmt.Errorf("no user column in header")
	case cols.cores < 0:
		return cols, fmt.Errorf("no cores column in header")
	case cols.end < 0:
		return cols, fmt.Errorf("no end-time column in header")
	case cols.submit < 0 && cols.start < 0:
		return cols, fmt.Errorf("no submit- or start-time column in header")
	}
	return cols, nil
}

// parseIN2P3Record parses one data row. It is a pure function of its
// arguments (the fuzz target leans on that) and must never panic on
// malformed input.
func parseIN2P3Record(fields []string, cols colMap, loc *timeutil.Zone) (in2p3Rec, error) {
	var rec in2p3Rec
	need := cols.user
	if cols.cores > need {
		need = cols.cores
	}
	if cols.end > need {
		need = cols.end
	}
	if len(fields) <= need {
		return rec, fmt.Errorf("want at least %d fields, got %d", need+1, len(fields))
	}
	rec.user = strings.TrimSpace(fields[cols.user])
	if rec.user == "" {
		return rec, fmt.Errorf("empty user")
	}
	if cols.group >= 0 && cols.group < len(fields) {
		rec.group = strings.TrimSpace(fields[cols.group])
	}
	if rec.group == "" {
		rec.group = "unaffiliated"
	}
	cores, err := strconv.Atoi(strings.TrimSpace(fields[cols.cores]))
	if err != nil {
		return rec, fmt.Errorf("bad cores %q", fields[cols.cores])
	}
	if cores < 1 || cores > 1<<20 {
		return rec, fmt.Errorf("cores %d out of range", cores)
	}
	rec.cores = cores

	at := func(i int) (timeutil.Time, bool, error) {
		if i < 0 || i >= len(fields) || strings.TrimSpace(fields[i]) == "" {
			return 0, false, nil
		}
		t, err := loc.Parse(fields[i])
		if err != nil {
			return 0, false, err
		}
		return t, true, nil
	}
	submit, hasSubmit, err := at(cols.submit)
	if err != nil {
		return rec, fmt.Errorf("bad submit time %q", fields[cols.submit])
	}
	start, hasStart, err := at(cols.start)
	if err != nil {
		return rec, fmt.Errorf("bad start time %q", fields[cols.start])
	}
	end, hasEnd, err := at(cols.end)
	if err != nil {
		return rec, fmt.Errorf("bad end time %q", fields[cols.end])
	}
	if !hasEnd {
		return rec, fmt.Errorf("missing end time")
	}
	if !hasStart {
		start = submit
		hasStart = hasSubmit
	}
	if !hasSubmit {
		submit = start
		hasSubmit = hasStart
	}
	if !hasStart {
		return rec, fmt.Errorf("missing submit and start time")
	}
	if end.Before(start) || start.Before(submit) {
		return rec, fmt.Errorf("times out of order (submit %d, start %d, end %d)", submit, start, end)
	}
	// A year-long "job" is an accounting artifact, not a batch job.
	if end.Sub(start) > 370*timeutil.Day {
		return rec, fmt.Errorf("implausible duration %v", end.Sub(start))
	}
	rec.submit, rec.start, rec.end = submit, start, end
	return rec, nil
}

// LoadIN2P3 reads an IN2P3-format accounting file (CSV/TSV,
// transparently gunzipped for .gz paths) and adapts it into a
// replayable trace.Dataset. The file is read through trace.ReadRows,
// so framing, quarantine and truncation follow the trace readers: the
// returned ParseReport records the consumed line count and any
// quarantined records, with absolute 1-based line numbers (the header
// is line 1), and lenient mode salvages only a cut-short input.
func LoadIN2P3(path string, opts IN2P3Options) (*trace.Dataset, *trace.ParseReport, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	zone := opts.Zone
	if zone == "" {
		zone = DefaultZone
	}
	loc, err := timeutil.LoadZone(zone)
	if err != nil {
		return nil, nil, err
	}
	// The header picks the delimiter and the columns of every record
	// after it; a broken one dooms them all, so it fails the read even
	// in lenient mode.
	header := func(line []byte) (func([]byte) (in2p3Rec, error), error) {
		delim := sniffDelim(string(line))
		cols, err := parseIN2P3Header(splitRecord(string(line), delim))
		if err != nil {
			return nil, err
		}
		return func(line []byte) (in2p3Rec, error) {
			return parseIN2P3Record(splitRecord(string(line), delim), cols, loc)
		}, nil
	}
	recs, rep, err := trace.ReadRows(path, trace.ReadOptions{Lenient: opts.Lenient, MaxErrors: opts.MaxErrors}, header)
	switch {
	case err != nil:
		return nil, rep, err
	case rep.Lines == 0:
		return nil, rep, fmt.Errorf("workload: %s: no header line", rep.File)
	case len(recs) == 0:
		return nil, rep, fmt.Errorf("workload: %s: no usable records", rep.File)
	}
	ds, err := adapt(recs, opts.Seed)
	if err != nil {
		return nil, rep, err
	}
	return ds, rep, nil
}

// userSeed derives a stable per-user synthesis seed from the adapter
// seed and the facility user string, independent of record order.
func userSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ h.Sum64() ^ 0x9e3779b97f4a7c15
}

// adaptUser accumulates one facility user's records during adaptation.
type adaptUser struct {
	id    trace.UserID
	name  string
	group string
	first timeutil.Time
	pool  []poolFile // live files, creation order
	src   *randx.Source
}

type poolFile struct {
	path  string
	size  int64
	atime timeutil.Time
}

// adapt turns parsed records into a full dataset: jobs verbatim,
// one login per user-day with job activity, synthesized file accesses
// over a synthesized initial namespace, and the reference snapshot.
//
// The synthesis is the adapter's "TraceTracker section 2" move: the
// accounting log proves when each user was active and how hard, but
// records no file I/O, so the I/O is drawn deterministically from the
// job shape — heavier jobs touch more files, a fixed fraction of
// touches create fresh outputs, the rest re-read the user's existing
// files with a recency bias.
func adapt(recs []in2p3Rec, seed uint64) (*trace.Dataset, error) {
	// Users in first-appearance order get dense IDs.
	byName := map[string]*adaptUser{}
	var users []*adaptUser
	firstEvent := recs[0].submit
	for i := range recs {
		if recs[i].submit.Before(firstEvent) {
			firstEvent = recs[i].submit
		}
	}
	taken := firstEvent.StartOfDay()
	for i := range recs {
		rec := &recs[i]
		u := byName[rec.user]
		if u == nil {
			u = &adaptUser{
				id: trace.UserID(len(users)), name: rec.user, group: rec.group,
				first: rec.submit,
				src:   randx.New(userSeed(seed, rec.user)),
			}
			byName[rec.user] = u
			users = append(users, u)
		}
		if rec.submit.Before(u.first) {
			u.first = rec.submit
		}
	}

	d := &trace.Dataset{}
	d.Snapshot.Taken = taken
	for _, u := range users {
		// Accounts predate their first job by a deterministic spell.
		created := u.first.Add(-timeutil.Duration(u.src.Int64n(int64(2 * 365 * timeutil.Day))))
		d.Users = append(d.Users, trace.User{ID: u.id, Name: u.name, Created: created})
		// Initial namespace: the files this user already kept on scratch
		// when the trace window opens, with access times spread over the
		// year before the snapshot.
		nInit := 3 + u.src.Intn(14)
		for k := 0; k < nInit; k++ {
			size := int64(u.src.LogNormal(16.5, 2.2)) + 4096
			age := timeutil.Duration(u.src.Int64n(int64(360 * timeutil.Day)))
			pf := poolFile{
				path:  fmt.Sprintf("/lustre/in2p3/%s/%s/init/f%04d.dat", u.group, u.name, k),
				size:  size,
				atime: taken.Add(-age),
			}
			u.pool = append(u.pool, pf)
			d.Snapshot.Entries = append(d.Snapshot.Entries, trace.SnapshotEntry{
				Path: pf.path, User: u.id, Size: pf.size, Stripes: 1 + u.src.Intn(4), ATime: pf.atime,
			})
		}
	}

	lastLoginDay := make([]int, len(users))
	for i := range lastLoginDay {
		lastLoginDay[i] = -1 << 30
	}
	for i := range recs {
		rec := &recs[i]
		u := byName[rec.user]
		d.Jobs = append(d.Jobs, trace.Job{
			User: u.id, Submit: rec.submit,
			Duration: rec.end.Sub(rec.start), Cores: rec.cores,
		})
		if day := rec.submit.DayIndex(); day != lastLoginDay[u.id] {
			lastLoginDay[u.id] = day
			d.Logins = append(d.Logins, trace.Login{User: u.id, TS: rec.submit})
		}

		// File touches scale with the job's core-hours, clamped so one
		// monster accounting row cannot dominate the access log.
		job := d.Jobs[len(d.Jobs)-1]
		mean := job.CoreHours() / 50
		if mean > 6 {
			mean = 6
		}
		n := 1 + u.src.Poisson(mean)
		span := rec.end.Sub(rec.start)
		for k := 0; k < n; k++ {
			var at timeutil.Time
			if span > 0 {
				at = rec.start.Add(timeutil.Duration(u.src.Int64n(int64(span) + 1)))
			} else {
				at = rec.start
			}
			if u.src.Bool(0.35) || len(u.pool) == 0 {
				size := int64(u.src.LogNormal(16.0, 2.0)) + 4096
				pf := poolFile{
					path: fmt.Sprintf("/lustre/in2p3/%s/%s/job%06d/out%02d.dat",
						u.group, u.name, i, k),
					size: size, atime: at,
				}
				u.pool = append(u.pool, pf)
				d.Accesses = append(d.Accesses, trace.Access{
					TS: at, User: u.id, Create: true, Path: pf.path, Size: size,
				})
			} else {
				// Recency-biased re-read: prefer the newest quarter of the
				// pool, fall back to anywhere.
				var j int
				if q := len(u.pool) / 4; q > 0 && u.src.Bool(0.6) {
					j = len(u.pool) - 1 - u.src.Intn(q)
				} else {
					j = u.src.Intn(len(u.pool))
				}
				pf := &u.pool[j]
				if at.After(pf.atime) {
					pf.atime = at
				}
				d.Accesses = append(d.Accesses, trace.Access{
					TS: at, User: u.id, Create: false, Path: pf.path, Size: pf.size,
				})
			}
		}
	}

	d.SortJobs()
	d.SortAccesses()
	sort.Slice(d.Snapshot.Entries, func(i, j int) bool {
		return d.Snapshot.Entries[i].Path < d.Snapshot.Entries[j].Path
	})
	sort.SliceStable(d.Logins, func(i, j int) bool { return d.Logins[i].TS < d.Logins[j].TS })
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("workload: adapted dataset invalid: %w", err)
	}
	return d, nil
}
