package daemon

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// TestEncodeBytes pins the WAL payload and feed line of each op, so
// WAL records written by earlier builds recover unchanged, and checks
// that each line parses back to its event.
func TestEncodeBytes(t *testing.T) {
	users := tinyDataset().Users
	byName := trace.NameIndex(users)
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{TS: 1451606400, User: 0, Op: OpAccess, Size: 1048576, Path: "/lustre/atlas/busy/run/a.dat"},
			"1451606400\tbusy\t0\t1048576\t/lustre/atlas/busy/run/a.dat"},
		{Event{TS: 1451610000, User: 1, Op: OpCreate, Size: 0, Path: "/lustre/atlas/gone/tab\tin path"},
			"1451610000\tgone\t1\t0\t/lustre/atlas/gone/tab\tin path"},
		{Event{TS: -3600, User: 0, Op: OpUnlink, Size: 4294967296, Path: "/lustre/atlas/busy/old/data.dat"},
			"-3600\tbusy\t2\t4294967296\t/lustre/atlas/busy/old/data.dat"},
	} {
		got, err := tc.ev.Encode(users)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("Encode(%+v) = %q, want %q", tc.ev, got, tc.want)
		}
		back, err := ParseEvent(got, byName)
		if err != nil || back != tc.ev {
			t.Errorf("ParseEvent(%q) = %+v, %v; want %+v", got, back, err, tc.ev)
		}
	}
	if _, err := (&Event{User: 2, Path: "/p"}).Encode(users); err == nil {
		t.Error("Encode accepted an unknown user id")
	}
	if _, err := ParseEvent([]byte("1\tbusy\t3\t0\t/p"), byName); err == nil || !strings.Contains(err.Error(), "bad op 3") {
		t.Errorf("op 3: err = %v, want a bad-op error", err)
	}
}

// TestMalformedAccessRowsRejectedEverywhere puts one access row that
// breaks trace.CheckAccess into an otherwise valid dataset: a create
// of a negative size, or of a relative path, followed an hour later by
// an access to the same path. Every front end must refuse it the same
// way: Validate, a strict load, the daemon's feed parser and both
// replay loops fail naming the rule, and a lenient load quarantines
// exactly the rows that break it.
func TestMalformedAccessRowsRejectedEverywhere(t *testing.T) {
	at := snapAt.Add(timeutil.Days(30))
	for _, tc := range []struct {
		name   string
		size   int64
		path   string
		reason string
		bad    int // rows that break the rule
	}{
		{"negative size", -5 << 20, "/lustre/atlas/busy/neg.dat", "negative size", 1},
		{"relative path", 5 << 20, "lustre/atlas/busy/rel.dat", "relative path", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tinyDataset()
			ds.Accesses = append(ds.Accesses,
				trace.Access{TS: at, User: 0, Create: true, Size: tc.size, Path: tc.path},
				trace.Access{TS: at.Add(timeutil.Hour), User: 0, Size: 5 << 20, Path: tc.path})
			ds.SortAccesses()
			mustFail := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.reason) {
					t.Errorf("%s: err = %v, want one naming %q", what, err, tc.reason)
				}
			}

			mustFail("Validate", ds.Validate())

			dir := t.TempDir()
			if err := trace.WriteDataset(dir, ds); err != nil {
				t.Fatal(err)
			}
			_, _, err := trace.LoadDatasetWith(dir, trace.ReadOptions{})
			mustFail("strict load", err)
			loaded, rep, err := trace.LoadDatasetWith(dir, trace.ReadOptions{Lenient: true})
			if err != nil {
				t.Fatalf("lenient load: %v", err)
			}
			if rep.Errors() != tc.bad || len(loaded.Accesses) != len(ds.Accesses)-tc.bad {
				t.Errorf("lenient load quarantined %d rows and kept %d of %d, want %d quarantined",
					rep.Errors(), len(loaded.Accesses), len(ds.Accesses), tc.bad)
			}
			if err := loaded.Validate(); err != nil {
				t.Errorf("lenient load kept a bad row: %v", err)
			}

			var feed bytes.Buffer
			for i := range ds.Accesses {
				ev := AccessEvent(&ds.Accesses[i])
				line, err := ev.Encode(ds.Users)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&feed, "%s\n", line)
			}
			_, err = ParseFeed(feed.Bytes(), trace.NameIndex(ds.Users))
			mustFail("ParseFeed", err)

			em, err := sim.New(ds, simCfg())
			if err != nil {
				t.Fatal(err)
			}
			_, err = em.Run(em.NewFLT())
			mustFail("Emulator.Run", err)
			m, err := sim.NewMultiplexer(ds)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run([]sim.LaneSpec{{Config: simCfg(), Policy: sim.PolicyFLT}})
			mustFail("Multiplexer.Run", err)
		})
	}
}

// TestParseFeedAllocations bounds what decoding a feed allocates: the
// event slice, sized once from the body's line count, and the path
// string each event copies out of the body.
func TestParseFeedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds hold without the race detector")
	}
	const lines = 256
	users := tinyDataset().Users
	var body []byte
	for i := 0; i < lines; i++ {
		ev := Event{TS: timeutil.Time(i), User: 0, Op: OpAccess, Size: 1, Path: "/lustre/atlas/busy/old/data.dat"}
		row, err := ev.Encode(users)
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, row...), '\n')
	}
	byName := trace.NameIndex(users)
	allocs := testing.AllocsPerRun(20, func() {
		evs, err := ParseFeed(body, byName)
		if err != nil || len(evs) != lines {
			t.Fatalf("ParseFeed = %d events, %v; want %d", len(evs), err, lines)
		}
	})
	t.Logf("ParseFeed of a %d-line body: %.0f allocations", lines, allocs)
	if allocs > lines+1 {
		t.Errorf("ParseFeed of a %d-line body allocates %.0f times, want at most %d: one slice and one path per event",
			lines, allocs, lines+1)
	}
}
