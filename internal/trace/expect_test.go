package trace

// Pinned reader outcomes for the fixtures in pipeline_test.go, in the
// form renderReports and outcome print them. They were recorded while
// the pipelined decoder and the original single-goroutine readers
// agreed on every one of them.

import (
	"fmt"
	"strings"
)

const wantCleanReports = `users.tsv lines=200
jobs.tsv.gz lines=20000
accesses.tsv.gz lines=40000
publications.tsv lines=2000
logins.tsv.gz lines=10000
transfers.tsv.gz lines=10000
snapshot.tsv.gz lines=20000
`

// The messy fixture (messyDataset) quarantines every damage line it
// adds except user u900 and the trailing #taken header; a strict load
// stops at users.tsv's first bad line.
const (
	wantMessyReports = `users.tsv lines=204
  users.tsv:3: want ≥2 fields, got 1
  users.tsv:102: bad created timestamp "notanumber"
  users.tsv:206: want ≥2 fields, got 1
jobs.tsv.gz lines=20003
  jobs.tsv.gz:2: unknown user "ghost"
  jobs.tsv.gz:3: bad numeric field in "u000\tx\t2\t3"
  jobs.tsv.gz:20002: want 4 fields, got 3
accesses.tsv.gz lines=40003
  accesses.tsv.gz:13334: empty path
  accesses.tsv.gz:13335: bad numeric field in "x\tu000\t0\t5\t/p"
  accesses.tsv.gz:26669: unknown user "ghost"
publications.tsv lines=2003
  publications.tsv:1001: unknown author "ghost"
  publications.tsv:1002: bad numeric field in "1\tx\tu000"
  publications.tsv:1003: unknown author ""
logins.tsv.gz lines=10002
  logins.tsv.gz:5001: want 2 fields, got 1
  logins.tsv.gz:5002: bad timestamp "zzz"
transfers.tsv.gz lines=10002
  transfers.tsv.gz:5001: bad direction "sideways"
  transfers.tsv.gz:5002: negative transfer size
snapshot.tsv.gz lines=20003
  snapshot.tsv.gz:2: bad taken timestamp
  snapshot.tsv.gz:3: bad numeric field in "u000\tx\t2\t3\t/q"
  snapshot.tsv.gz:4: unknown user "nosuch"
`
	wantMessyStrictReports = "users.tsv lines=1\n"
	wantMessyStrictErr     = "trace: users.tsv line 3: want ≥2 fields, got 1"
)

// The access log cut at half its compressed length (truncatedAccesses)
// inflates to 1011 whole rows and the head of row 1012, which still
// parses: its path is cut to "/lustre/atlas/u000/f1011".
const wantTruncatedSalvaged = 1011

var wantTruncatedLast = []Access{{TS: 1011, Size: 5, Path: "/lustre/atlas/u000/f1011"}}

const (
	wantTruncatedReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=1012 truncated
publications.tsv lines=1
snapshot.tsv.gz lines=2
`
	wantTruncatedStrictReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=1012
`
	wantTruncatedStrictErr = "trace: accesses.tsv.gz line 1013: unexpected EOF"
)

const (
	wantMaxErrorsReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=13
  accesses.tsv.gz:3: want 5 fields, got 1
  accesses.tsv.gz:4: want 5 fields, got 1
  accesses.tsv.gz:5: want 5 fields, got 1
  accesses.tsv.gz:6: want 5 fields, got 1
  accesses.tsv.gz:7: want 5 fields, got 1
  accesses.tsv.gz:8: want 5 fields, got 1
  accesses.tsv.gz:9: want 5 fields, got 1
  accesses.tsv.gz:10: want 5 fields, got 1
  accesses.tsv.gz:11: want 5 fields, got 1
  accesses.tsv.gz:12: want 5 fields, got 1
`
	wantMaxErrorsErr = "trace: accesses.tsv.gz: more than 10 malformed lines, giving up (last: line 13: want 5 fields, got 1)"
)

const wantTooLong = `users.tsv lines=1
error: trace: users.tsv line 2: bufio.Scanner: token too long
`

var wantNearCap = outcome([]User{{Name: strings.Repeat("b", maxLineBytes-16), Created: 100}},
	&ParseReport{File: UsersFile, Lines: 1}, nil)

// Snapshot series: reports carry the base file name, quarantines and
// positioned errors the logical snapshot file name. "$DIR" stands for
// the series directory. The third file, cut at half its compressed
// length, inflates to its header, 1511 whole rows and the head of row
// 1512, whose path is cut to "/lustre/atlas/u".
const (
	wantSeriesReports = `snapshot-20160301.tsv.gz lines=3000
snapshot-20160308.tsv.gz lines=3000
snapshot-20160315.tsv.gz lines=3000
snapshot-20160322.tsv.gz lines=3000
snapshot-20160329.tsv.gz lines=3000
`
	wantSeriesStrictReports = `snapshot-20160301.tsv.gz lines=3000
snapshot-20160308.tsv.gz lines=3000
snapshot-20160315.tsv.gz lines=1512
`
	wantSeriesStrictErr      = "trace: $DIR/snapshot-20160315.tsv.gz: trace: snapshot.tsv.gz line 1514: unexpected EOF"
	wantSeriesLenientReports = `snapshot-20160301.tsv.gz lines=3000
snapshot-20160308.tsv.gz lines=3000
snapshot-20160315.tsv.gz lines=1512 truncated
snapshot-20160322.tsv.gz lines=3000
snapshot-20160329.tsv.gz lines=3000
`
)

const wantSeriesSalvaged = 1511

var wantSeriesSalvagedLast = []SnapshotEntry{{Path: "/lustre/atlas/u", User: 111, Size: 1547264, Stripes: 4, ATime: 1457998489}}

// Fan-out priority. sampleDataset's jobs file is so small that
// cutting it in half cuts its first row, which the strict read
// rejects before it would reach the unexpected EOF.
const (
	wantFanOutCapReports = `users.tsv lines=3
jobs.tsv.gz lines=8
  jobs.tsv.gz:3: want 4 fields, got 1
  jobs.tsv.gz:4: want 4 fields, got 1
  jobs.tsv.gz:5: want 4 fields, got 1
  jobs.tsv.gz:6: want 4 fields, got 1
  jobs.tsv.gz:7: want 4 fields, got 1
`
	wantFanOutCapErr       = "trace: jobs.tsv.gz: more than 5 malformed lines, giving up (last: line 8: want 4 fields, got 1)"
	wantFanOutCloseReports = `users.tsv lines=3
jobs.tsv.gz lines=1
`
	wantFanOutCloseErr       = "trace: jobs.tsv.gz line 1: want 4 fields, got 2"
	wantFanOutSalvageReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=1 truncated
publications.tsv lines=7
  publications.tsv:2: want 3 fields, got 1
  publications.tsv:3: want 3 fields, got 1
  publications.tsv:4: want 3 fields, got 1
  publications.tsv:5: want 3 fields, got 1
  publications.tsv:6: want 3 fields, got 1
`
	wantFanOutSalvageErr = "trace: publications.tsv: more than 5 malformed lines, giving up (last: line 7: want 3 fields, got 1)"
)

// Multi-member gzip: 8000 rows per member, bad rows at absolute line
// numbers. The cut final member inflates to 3993 whole rows and a
// fragment that no longer parses (line 19994).
const (
	wantMultiMemberReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=24000
  accesses.tsv.gz:8001: want 5 fields, got 1
  accesses.tsv.gz:8101: want 5 fields, got 1
  accesses.tsv.gz:16000: want 5 fields, got 1
  accesses.tsv.gz:16124: bad numeric field in "x\tu000\t0\t5\t/p"
publications.tsv lines=1
snapshot.tsv.gz lines=2
`
	wantMultiMemberStrictReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=8001
`
	wantMultiMemberStrictErr    = "trace: accesses.tsv.gz line 8001: want 5 fields, got 1"
	wantMultiMemberTruncReports = `users.tsv lines=3
jobs.tsv.gz lines=2
accesses.tsv.gz lines=19994 truncated
  accesses.tsv.gz:12322: want 5 fields, got 1
  accesses.tsv.gz:19994: want 5 fields, got 1
publications.tsv lines=1
snapshot.tsv.gz lines=2
`
)

const wantMultiMemberSalvaged = 19992

// Edge inputs for line framing, read by the users and the snapshot
// reader, strict and lenient.
const (
	emptyUsers       = "users.tsv lines=0\n"
	emptySnapshot    = "taken 0\nsnapshot.tsv.gz lines=0\n"
	oneUser          = "{ID:0 Name:u000 Created:1970-01-01 00:00:01 Archetype:}\nusers.tsv lines=1\n"
	snapshotLine1Bad = `snapshot.tsv.gz lines=1
error: trace: snapshot.tsv.gz line 1: want 5 fields, got 2
`
	snapshotLine1Quarantined = `taken 0
snapshot.tsv.gz lines=1
  snapshot.tsv.gz:1: want 5 fields, got 2
`
)

var wantEdgeInputs = []struct {
	in                                             string
	users, usersLenient, snapshot, snapshotLenient string
}{
	{"", emptyUsers, emptyUsers, emptySnapshot, emptySnapshot},
	{"\n", emptyUsers, emptyUsers, emptySnapshot, emptySnapshot},
	{"\r\n", emptyUsers, emptyUsers, emptySnapshot, emptySnapshot},
	{"#only a comment\n", emptyUsers, emptyUsers, emptySnapshot, emptySnapshot},
	{"u000\t1", oneUser, oneUser, snapshotLine1Bad, snapshotLine1Quarantined}, // no trailing newline
	{"u000\t1\r\n\r\nu000\t2\r", // CRLF endings, trailing CR
		twoUsers, twoUsers, snapshotLine1Bad, `taken 0
snapshot.tsv.gz lines=2
  snapshot.tsv.gz:1: want 5 fields, got 2
  snapshot.tsv.gz:3: want 5 fields, got 2
`},
	{"\t\n", `users.tsv lines=1
error: trace: users.tsv line 1: bad created timestamp ""
`, `users.tsv lines=1
  users.tsv:1: bad created timestamp ""
`, snapshotLine1Bad, snapshotLine1Quarantined},
	{strings.Repeat("u000\t7\n", 100000), // multi-block
		manyUsers, manyUsers, snapshotLine1Bad, snapshotCapped},
}

const twoUsers = `{ID:0 Name:u000 Created:1970-01-01 00:00:01 Archetype:}
{ID:1 Name:u000 Created:1970-01-01 00:00:02 Archetype:}
users.tsv lines=2
`

// manyUsers is the multi-block input's 100000 users, one per row.
var manyUsers = func() string {
	users := make([]User, 100000)
	for i := range users {
		users[i] = User{ID: UserID(i), Name: "u000", Created: 7}
	}
	return outcome(users, &ParseReport{File: UsersFile, Lines: len(users)}, nil)
}()

// snapshotCapped is the lenient snapshot read of the multi-block
// input: every row is quarantined until the default cap gives up.
var snapshotCapped = func() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot.tsv.gz lines=%d\n", DefaultMaxErrors+1)
	for line := 1; line <= DefaultMaxErrors; line++ {
		fmt.Fprintf(&b, "  snapshot.tsv.gz:%d: want 5 fields, got 2\n", line)
	}
	fmt.Fprintf(&b, "error: trace: snapshot.tsv.gz: more than %d malformed lines, giving up (last: line %d: want 5 fields, got 2)\n",
		DefaultMaxErrors, DefaultMaxErrors+1)
	return b.String()
}()

// wantMalformedLines maps, per trace kind, each malformed line to the
// reason it is quarantined under. Lines that break several rules pin
// which check runs first.
var wantMalformedLines = []struct{ kind, line, reason string }{
	{"users", "solo", "want ≥2 fields, got 1"},
	{"users", "u9\tnotanumber", `bad created timestamp "notanumber"`},
	{"users", "u9\t99999999999999999999", `bad created timestamp "99999999999999999999"`},

	{"jobs", "u000\t1\t2", "want 4 fields, got 3"},
	{"jobs", "u000\t1\t2\t3\t4", "want 4 fields, got 5"},
	{"jobs", "ghost\t1\t2\t3", `unknown user "ghost"`},
	{"jobs", "u000\tx\t2\t3", `bad numeric field in "u000\tx\t2\t3"`},
	{"jobs", "ghost\tx\t2\t3", `unknown user "ghost"`},

	{"accesses", "1\tu000\t0\t5", "want 5 fields, got 4"},
	{"accesses", "x\tu000\t0\t5\t/p", `bad numeric field in "x\tu000\t0\t5\t/p"`},
	{"accesses", "1\tghost\t0\t5\t/p", `unknown user "ghost"`},
	{"accesses", "x\tghost\t0\t5\t/p", `bad numeric field in "x\tghost\t0\t5\t/p"`},
	{"accesses", "1\tu000\t0\t5\t", "empty path"},
	{"accesses", "1\tghost\t0\t5\t", `unknown user "ghost"`},

	{"publications", "1\t2", "want 3 fields, got 2"},
	{"publications", "1\tx\tu000", `bad numeric field in "1\tx\tu000"`},
	{"publications", "1\t2\tghost", `unknown author "ghost"`},
	{"publications", "1\t2\tu000,,u001", `unknown author ""`},
	{"publications", "1\t2\t", `unknown author ""`},
	{"publications", "x\t2\tghost", `bad numeric field in "x\t2\tghost"`},

	{"snapshot", "#taken\tzzz", "bad taken timestamp"},
	{"snapshot", "u000\t1\t2\t3", "want 5 fields, got 4"},
	{"snapshot", "nosuch\t1\t2\t3\t/p", `unknown user "nosuch"`},
	{"snapshot", "u000\tx\t2\t3\t/p", `bad numeric field in "u000\tx\t2\t3\t/p"`},
	{"snapshot", "nosuch\tx\t2\t3\t/p", `unknown user "nosuch"`},
	{"snapshot", "u000\t1\t2\t3\t", "empty path"},
	{"snapshot", "u000\tx\t2\t3\t", `bad numeric field in "u000\tx\t2\t3\t"`},

	{"logins", "broken", "want 2 fields, got 1"},
	{"logins", "1\tu000\textra", "want 2 fields, got 3"},
	{"logins", "zzz\tu000", `bad timestamp "zzz"`},
	{"logins", "1\tghost", `unknown user "ghost"`},
	{"logins", "zzz\tghost", `bad timestamp "zzz"`},

	{"transfers", "1\tu000\tin", "want 4 fields, got 3"},
	{"transfers", "x\tu000\tin\t5", `bad numeric field in "x\tu000\tin\t5"`},
	{"transfers", "1\tu000\tin\tx", `bad numeric field in "1\tu000\tin\tx"`},
	{"transfers", "1\tghost\tin\t5", `unknown user "ghost"`},
	{"transfers", "1\tu000\tsideways\t5", `bad direction "sideways"`},
	{"transfers", "1\tu000\tin\t-9", "negative transfer size"},
	{"transfers", "1\tghost\tsideways\t-9", `unknown user "ghost"`},
	{"transfers", "1\tu000\tsideways\t-9", `bad direction "sideways"`},
}
