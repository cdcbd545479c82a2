// Package trace defines the five trace record kinds the ActiveDR
// evaluation consumes — users, job-scheduler logs, application
// file-access logs, publication lists, and parallel-file-system
// metadata snapshots — together with TSV readers and writers
// (transparently gzipped for .gz paths, mirroring the "series of
// gzipped text files" the Spider II snapshots ship as).
package trace

import (
	"fmt"
	"sort"

	"activedr/internal/timeutil"
)

// UserID identifies a system user. IDs are dense indices into the
// dataset's user table so that per-user state can live in slices.
type UserID int32

// NoUser marks an unattributed record.
const NoUser UserID = -1

// User is one row of the anonymized user list.
type User struct {
	ID        UserID
	Name      string        // anonymized login, e.g. "u004217"
	Created   timeutil.Time // account creation
	Archetype string        // synthetic annotation; empty for real traces
}

// Job is one job-scheduler log record. The activeness impact of a job
// is its core-hours (paper §4.1.3).
type Job struct {
	User     UserID
	Submit   timeutil.Time
	Duration timeutil.Duration // wall-clock run time
	Cores    int
}

// CoreHours returns the job's activeness impact: cores × hours.
func (j Job) CoreHours() float64 {
	return float64(j.Cores) * float64(j.Duration) / float64(timeutil.Hour)
}

// Access is one application-log record: a file path touched at a
// time. Create marks paths the application writes fresh (these do not
// count as misses on replay).
type Access struct {
	TS     timeutil.Time
	User   UserID
	Create bool
	Path   string
	Size   int64 // bytes, used when the access (re)materializes the file
}

// Publication is one row of the facility publication list. Authors
// are ordered; Eq. (8) weighs each author by position.
type Publication struct {
	TS        timeutil.Time
	Citations int
	Authors   []UserID
}

// AuthorImpact implements Eq. (8): D_pub = (c+1)·(n−i+1) where i is
// the zero-based index of the author. Unknown authors yield 0.
func (p Publication) AuthorImpact(u UserID) float64 {
	for i, a := range p.Authors {
		if a == u {
			n := len(p.Authors)
			return float64(p.Citations+1) * float64(n-i)
		}
	}
	return 0
}

// SnapshotEntry is one row of a weekly metadata snapshot: a file with
// its owner, synthesized size, stripe count and last access time.
type SnapshotEntry struct {
	Path    string
	User    UserID
	Size    int64
	Stripes int
	ATime   timeutil.Time
}

// Snapshot is a full metadata snapshot captured at a point in time.
type Snapshot struct {
	Taken   timeutil.Time
	Entries []SnapshotEntry
}

// TotalBytes sums the sizes of all entries.
func (s *Snapshot) TotalBytes() int64 {
	var t int64
	for i := range s.Entries {
		t += s.Entries[i].Size
	}
	return t
}

// Dataset bundles every trace kind for one emulated system. Logins
// and Transfers are optional extra operation-activity sources (Table
// 2 of the paper); their files may be absent from a dataset
// directory.
type Dataset struct {
	Users        []User
	Jobs         []Job
	Accesses     []Access
	Publications []Publication
	Logins       []Login
	Transfers    []Transfer
	Snapshot     Snapshot // the reference (last pre-replay) snapshot
}

// UserByName returns the ID for a login name, or NoUser.
func (d *Dataset) UserByName(name string) UserID {
	for i := range d.Users {
		if d.Users[i].Name == name {
			return d.Users[i].ID
		}
	}
	return NoUser
}

// Validate checks cross-record invariants: dense user IDs, known
// users in every record, chronological sortedness where required, and
// the access rules (CheckAccess).
func (d *Dataset) Validate() error {
	for i := range d.Users {
		if d.Users[i].ID != UserID(i) {
			return fmt.Errorf("trace: user %q has ID %d at index %d (IDs must be dense)", d.Users[i].Name, d.Users[i].ID, i)
		}
	}
	n := UserID(len(d.Users))
	for i := range d.Jobs {
		if d.Jobs[i].User < 0 || d.Jobs[i].User >= n {
			return fmt.Errorf("trace: job %d references unknown user %d", i, d.Jobs[i].User)
		}
	}
	for i := range d.Accesses {
		if d.Accesses[i].User < 0 || d.Accesses[i].User >= n {
			return fmt.Errorf("trace: access %d references unknown user %d", i, d.Accesses[i].User)
		}
		if i > 0 && d.Accesses[i].TS < d.Accesses[i-1].TS {
			return fmt.Errorf("trace: access log out of order at record %d", i)
		}
		if err := CheckAccess(d.Accesses[i].Size, d.Accesses[i].Path); err != nil {
			return fmt.Errorf("trace: access %d: %w", i, err)
		}
	}
	for i := range d.Publications {
		if len(d.Publications[i].Authors) == 0 {
			return fmt.Errorf("trace: publication %d has no authors", i)
		}
		for _, a := range d.Publications[i].Authors {
			if a < 0 || a >= n {
				return fmt.Errorf("trace: publication %d references unknown user %d", i, a)
			}
		}
	}
	for i := range d.Logins {
		if d.Logins[i].User < 0 || d.Logins[i].User >= n {
			return fmt.Errorf("trace: login %d references unknown user %d", i, d.Logins[i].User)
		}
	}
	for i := range d.Transfers {
		t := &d.Transfers[i]
		if t.User < 0 || t.User >= n {
			return fmt.Errorf("trace: transfer %d references unknown user %d", i, t.User)
		}
		if t.Bytes < 0 {
			return fmt.Errorf("trace: transfer %d has negative size", i)
		}
	}
	for i := range d.Snapshot.Entries {
		e := &d.Snapshot.Entries[i]
		if e.User < 0 || e.User >= n {
			return fmt.Errorf("trace: snapshot entry %q references unknown user %d", e.Path, e.User)
		}
		if e.Size < 0 {
			return fmt.Errorf("trace: snapshot entry %q has negative size", e.Path)
		}
	}
	return nil
}

// SortAccesses orders the access log chronologically (stable, so
// same-timestamp records keep generation order).
func (d *Dataset) SortAccesses() {
	sort.SliceStable(d.Accesses, func(i, j int) bool {
		return d.Accesses[i].TS < d.Accesses[j].TS
	})
}

// SortJobs orders the job log by submit time.
func (d *Dataset) SortJobs() {
	sort.SliceStable(d.Jobs, func(i, j int) bool {
		return d.Jobs[i].Submit < d.Jobs[j].Submit
	})
}
