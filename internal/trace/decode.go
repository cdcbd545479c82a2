package trace

// Zero-allocation TSV row decoding. The pipelined reader (pipeline.go)
// tokenizes raw line bytes with a hand-rolled tab splitter and parses
// integers straight from byte slices, materializing strings only for
// the fields a record retains (names, paths, archetypes) — repeated
// values are deduplicated through a per-file intern table, the same
// trick internal/vfs plays with its canonical path strings. FuzzSplitTabs
// and FuzzParseIntBytes hold the tokenizer and the int parser to their
// strings.Split/strconv.ParseInt oracles; TestMalformedLineReasons
// pins each row parser's field arity checks, check order and error
// text. Each decoder sits beside its row encoder, and the codec table
// (pipeline.go) pairs them per kind for the one reader and the one
// writer (io.go).

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"activedr/internal/timeutil"
)

var (
	errIntSyntax = errors.New("invalid syntax")
	errIntRange  = errors.New("value out of range")
)

// parseIntBytes is strconv.ParseInt(string(s), 10, 64) without the
// string conversion: same accepted inputs (optional sign, decimal
// digits, no underscores), same overflow rejection, same value on
// success. Callers only branch on the error, so the sentinel errors
// carry no position info.
func parseIntBytes(s []byte) (int64, error) {
	if len(s) == 0 {
		return 0, errIntSyntax
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
		if len(s) == 0 {
			return 0, errIntSyntax
		}
	}
	// Mirrors strconv's ParseUint cutoff logic for base 10, then the
	// signed-range check.
	const cutoff = (1<<64-1)/10 + 1
	var n uint64
	for _, c := range s {
		d := c - '0'
		if d > 9 {
			return 0, errIntSyntax
		}
		if n >= cutoff {
			return 0, errIntRange
		}
		n1 := n*10 + uint64(d)
		if n1 < n {
			return 0, errIntRange
		}
		n = n1
	}
	if neg {
		if n > 1<<63 {
			return 0, errIntRange
		}
		return -int64(n), nil
	}
	if n > 1<<63-1 {
		return 0, errIntRange
	}
	return int64(n), nil
}

// splitTabs appends every tab-separated field of line to f and
// returns it, matching strings.Split(line, "\t"): an empty line
// yields one empty field.
func splitTabs(line []byte, f [][]byte) [][]byte {
	for {
		j := bytes.IndexByte(line, '\t')
		if j < 0 {
			return append(f, line)
		}
		f = append(f, line[:j])
		line = line[j+1:]
	}
}

// splitTabsN is splitTabs capped at n fields, matching
// strings.SplitN(line, "\t", n): the last field keeps any remaining
// tabs.
func splitTabsN(line []byte, f [][]byte, n int) [][]byte {
	for len(f) < n-1 {
		j := bytes.IndexByte(line, '\t')
		if j < 0 {
			return append(f, line)
		}
		f = append(f, line[:j])
		line = line[j+1:]
	}
	return append(f, line)
}

// strIntern deduplicates materialized strings: repeated byte patterns
// (access-log paths, archetype tags, snapshot paths shared across a
// weekly series) hand out one shared string instead of one copy per
// row. The map lookup with an in-place string conversion does not
// allocate on a hit. A nil table disables interning and copies every
// value (right for fields that never repeat).
type strIntern map[string]string

func (t strIntern) get(b []byte) string {
	if t == nil {
		return string(b)
	}
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	t[s] = s
	return s
}

// decoder is one file's decode state: the reusable field slice and
// the intern tables. Each file's read owns one, so a path repeated
// anywhere in the file shares one string, and no locks are needed on
// the hot path.
type decoder struct {
	fields [][]byte
	paths  strIntern // access/snapshot paths
	archs  strIntern // user archetype tags
}

// bytesPerPath sizes a file's path intern table from its size (the
// uncompressed size hint): a synthetic 2,000-user year's access log
// holds one distinct path per 560 bytes, so a table of one entry per
// bytesPerPath is sized once there. No table starts below 1,024
// entries, so a small or unsized file allocates what it always did.
const bytesPerPath = 512

func newDecoder(internPaths bool, sizeHint int) *decoder {
	dc := &decoder{fields: make([][]byte, 0, 8), archs: make(strIntern)}
	if internPaths {
		dc.paths = make(strIntern, max(1024, sizeHint/bytesPerPath))
	}
	return dc
}

// --- per-kind row codecs: each decoder beside its encoder ---

// decodeUser parses a users row: name, created[, archetype]. The
// dense ID is assigned at assembly time so quarantined rows do not
// consume one.
func decodeUser(dc *decoder, line []byte) (User, error) {
	f := splitTabs(line, dc.fields[:0])
	if len(f) < 2 {
		return User{}, fmt.Errorf("want ≥2 fields, got %d", len(f))
	}
	created, err := parseIntBytes(f[1])
	if err != nil {
		return User{}, fmt.Errorf("bad created timestamp %q", f[1])
	}
	u := User{Name: string(f[0]), Created: timeutil.Time(created)}
	if len(f) >= 3 {
		u.Archetype = dc.archs.get(f[2])
	}
	return u, nil
}

// appendUser appends a users row: name, created, archetype.
func appendUser(b []byte, u *User, _ []User) []byte {
	b = append(b, u.Name...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(u.Created), 10)
	b = append(b, '\t')
	return append(b, u.Archetype...)
}

// decodeJob parses a jobs row: user, submit, duration_s, cores.
func decodeJob(dc *decoder, line []byte, byName map[string]UserID) (Job, error) {
	f := splitTabs(line, dc.fields[:0])
	if len(f) != 4 {
		return Job{}, fmt.Errorf("want 4 fields, got %d", len(f))
	}
	uid, ok := byName[string(f[0])]
	if !ok {
		return Job{}, fmt.Errorf("unknown user %q", f[0])
	}
	submit, err1 := parseIntBytes(f[1])
	dur, err2 := parseIntBytes(f[2])
	cores, err3 := parseIntBytes(f[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return Job{}, fmt.Errorf("bad numeric field in %q", line)
	}
	return Job{
		User:     uid,
		Submit:   timeutil.Time(submit),
		Duration: timeutil.Duration(dur),
		Cores:    int(cores),
	}, nil
}

// appendJob appends a jobs row: user, submit, duration_s, cores.
func appendJob(b []byte, j *Job, users []User) []byte {
	b = append(b, users[j.User].Name...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(j.Submit), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(j.Duration), 10)
	b = append(b, '\t')
	return strconv.AppendInt(b, int64(j.Cores), 10)
}

// decodeAccess parses an access-log row into a record, interning its
// path.
func decodeAccess(dc *decoder, line []byte, byName map[string]UserID) (Access, error) {
	r, err := ParseAccessRow(line, byName)
	if err != nil {
		return Access{}, err
	}
	return Access{
		TS:     r.TS,
		User:   r.User,
		Create: r.Op != 0,
		Size:   r.Size,
		Path:   dc.paths.get(r.Path),
	}, nil
}

// appendAccess appends an access-log row; Create is op 1.
func appendAccess(b []byte, a *Access, users []User) []byte {
	var op int64
	if a.Create {
		op = 1
	}
	return AppendAccessRow(b, a.TS, users[a.User].Name, op, a.Size, a.Path)
}

// AccessRow is one row of the access-log schema,
//
//	ts \t user \t op \t size \t path
//
// which accesses.tsv.gz, activedrd's ingest body and its WAL payloads
// all use. Op is the create column: 0 = access, 1 = create; the
// daemon's feed adds 2 = unlink. The path keeps any further tabs.
type AccessRow struct {
	TS   timeutil.Time
	User UserID
	Op   int64
	Size int64
	Path []byte // aliases the parsed line
}

// AppendAccessRow appends one access-log row, without its newline.
func AppendAccessRow(b []byte, ts timeutil.Time, user string, op, size int64, path string) []byte {
	b = strconv.AppendInt(b, int64(ts), 10)
	b = append(b, '\t')
	b = append(b, user...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, op, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, size, 10)
	b = append(b, '\t')
	return append(b, path...)
}

// ParseAccessRow parses one access-log row (no newline). Its checks
// run in a fixed order, and the first that fails is the error: the
// field count, the numeric fields, the user, then CheckAccess. Op is
// returned as written; each format bounds it itself.
func ParseAccessRow(line []byte, byName map[string]UserID) (AccessRow, error) {
	var buf [5][]byte
	f := splitTabsN(line, buf[:0], 5)
	if len(f) != 5 {
		return AccessRow{}, fmt.Errorf("want 5 fields, got %d", len(f))
	}
	ts, err1 := parseIntBytes(f[0])
	uid, ok := byName[string(f[1])]
	op, err2 := parseIntBytes(f[2])
	size, err3 := parseIntBytes(f[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return AccessRow{}, fmt.Errorf("bad numeric field in %q", line)
	}
	if !ok {
		return AccessRow{}, fmt.Errorf("unknown user %q", f[1])
	}
	if err := CheckAccess(size, f[4]); err != nil {
		return AccessRow{}, err
	}
	return AccessRow{TS: timeutil.Time(ts), User: uid, Op: op, Size: size, Path: f[4]}, nil
}

// CheckAccess is the rule set every access row obeys, however it
// arrives (the access log, Dataset.Validate, activedrd's feed and WAL,
// both replay loops): a size ≥ 0 and a non-empty absolute path.
func CheckAccess[P string | []byte](size int64, path P) error {
	switch {
	case len(path) == 0:
		return errors.New("empty path")
	case size < 0:
		return fmt.Errorf("negative size %d", size)
	case path[0] != '/':
		return fmt.Errorf("relative path %q", path)
	}
	return nil
}

// decodePublication parses a publications row: ts, citations,
// comma-joined author names.
func decodePublication(dc *decoder, line []byte, byName map[string]UserID) (Publication, error) {
	f := splitTabs(line, dc.fields[:0])
	if len(f) != 3 {
		return Publication{}, fmt.Errorf("want 3 fields, got %d", len(f))
	}
	ts, err1 := parseIntBytes(f[0])
	cites, err2 := parseIntBytes(f[1])
	if err1 != nil || err2 != nil {
		return Publication{}, fmt.Errorf("bad numeric field in %q", line)
	}
	authors := make([]UserID, 0, bytes.Count(f[2], []byte{','})+1)
	rest := f[2]
	for {
		var name []byte
		if j := bytes.IndexByte(rest, ','); j >= 0 {
			name, rest = rest[:j], rest[j+1:]
		} else {
			name, rest = rest, nil
		}
		uid, ok := byName[string(name)]
		if !ok {
			return Publication{}, fmt.Errorf("unknown author %q", name)
		}
		authors = append(authors, uid)
		if rest == nil {
			break
		}
	}
	return Publication{
		TS:        timeutil.Time(ts),
		Citations: int(cites),
		Authors:   authors,
	}, nil
}

// appendPublication appends a publications row: ts, citations,
// comma-joined author names.
func appendPublication(b []byte, p *Publication, users []User) []byte {
	b = strconv.AppendInt(b, int64(p.TS), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(p.Citations), 10)
	b = append(b, '\t')
	for k, a := range p.Authors {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, users[a].Name...)
	}
	return b
}

// decodeSnapshotEntry parses a snapshot row: user, size, stripes,
// atime, path (the path keeps any further tabs).
func decodeSnapshotEntry(dc *decoder, line []byte, byName map[string]UserID) (SnapshotEntry, error) {
	f := splitTabsN(line, dc.fields[:0], 5)
	if len(f) != 5 {
		return SnapshotEntry{}, fmt.Errorf("want 5 fields, got %d", len(f))
	}
	uid, ok := byName[string(f[0])]
	if !ok {
		return SnapshotEntry{}, fmt.Errorf("unknown user %q", f[0])
	}
	size, err1 := parseIntBytes(f[1])
	stripes, err2 := parseIntBytes(f[2])
	atime, err3 := parseIntBytes(f[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return SnapshotEntry{}, fmt.Errorf("bad numeric field in %q", line)
	}
	if len(f[4]) == 0 {
		return SnapshotEntry{}, fmt.Errorf("empty path")
	}
	return SnapshotEntry{
		Path:    dc.paths.get(f[4]),
		User:    uid,
		Size:    size,
		Stripes: int(stripes),
		ATime:   timeutil.Time(atime),
	}, nil
}

// appendSnapshotEntry appends a snapshot row: user, size, stripes,
// atime, path.
func appendSnapshotEntry(b []byte, e *SnapshotEntry, users []User) []byte {
	b = append(b, users[e.User].Name...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, e.Size, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(e.Stripes), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(e.ATime), 10)
	b = append(b, '\t')
	return append(b, e.Path...)
}

// decodeLogin parses a logins row: ts, user.
func decodeLogin(dc *decoder, line []byte, byName map[string]UserID) (Login, error) {
	f := splitTabs(line, dc.fields[:0])
	if len(f) != 2 {
		return Login{}, fmt.Errorf("want 2 fields, got %d", len(f))
	}
	ts, err := parseIntBytes(f[0])
	if err != nil {
		return Login{}, fmt.Errorf("bad timestamp %q", f[0])
	}
	uid, ok := byName[string(f[1])]
	if !ok {
		return Login{}, fmt.Errorf("unknown user %q", f[1])
	}
	return Login{User: uid, TS: timeutil.Time(ts)}, nil
}

// appendLogin appends a logins row: ts, user.
func appendLogin(b []byte, l *Login, users []User) []byte {
	b = strconv.AppendInt(b, int64(l.TS), 10)
	b = append(b, '\t')
	return append(b, users[l.User].Name...)
}

// decodeTransfer parses a transfers row: ts, user, in|out, bytes.
func decodeTransfer(dc *decoder, line []byte, byName map[string]UserID) (Transfer, error) {
	f := splitTabs(line, dc.fields[:0])
	if len(f) != 4 {
		return Transfer{}, fmt.Errorf("want 4 fields, got %d", len(f))
	}
	ts, err1 := parseIntBytes(f[0])
	bytes_, err2 := parseIntBytes(f[3])
	if err1 != nil || err2 != nil {
		return Transfer{}, fmt.Errorf("bad numeric field in %q", line)
	}
	uid, ok := byName[string(f[1])]
	if !ok {
		return Transfer{}, fmt.Errorf("unknown user %q", f[1])
	}
	var dir TransferDir
	switch {
	case bytes.Equal(f[2], []byte("in")):
		dir = TransferIn
	case bytes.Equal(f[2], []byte("out")):
		dir = TransferOut
	default:
		return Transfer{}, fmt.Errorf("bad direction %q", f[2])
	}
	if bytes_ < 0 {
		return Transfer{}, fmt.Errorf("negative transfer size")
	}
	return Transfer{User: uid, TS: timeutil.Time(ts), Dir: dir, Bytes: bytes_}, nil
}

// appendTransfer appends a transfers row: ts, user, in|out, bytes.
func appendTransfer(b []byte, t *Transfer, users []User) []byte {
	b = strconv.AppendInt(b, int64(t.TS), 10)
	b = append(b, '\t')
	b = append(b, users[t.User].Name...)
	b = append(b, '\t')
	b = append(b, t.Dir.String()...)
	b = append(b, '\t')
	return strconv.AppendInt(b, t.Bytes, 10)
}

// decodePath parses a path-list row: one path, which must be absolute
// (CheckAccess's path rule).
func decodePath(_ *decoder, line []byte, _ map[string]UserID) (string, error) {
	if err := CheckAccess(0, line); err != nil {
		return "", err
	}
	return string(line), nil
}

// appendPath appends a path-list row.
func appendPath(b []byte, p *string, _ []User) []byte { return append(b, *p...) }
