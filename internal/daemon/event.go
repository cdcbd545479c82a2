// Package daemon implements activedrd's core: a long-running
// retention service that ingests a mutation feed (create / access /
// unlink events in the application-log schema) through a crash-safe
// write-ahead log, keeps the per-user candidate index and activeness
// scores updated online, and serves purge plans over a local
// HTTP/JSON API.
//
// The event semantics are sim.Stream's — the daemon and a batch
// replay of the same event sequence share one code path, so their
// purge plans are bit-for-bit identical (see
// TestDaemonMatchesBatchReplay).
package daemon

import (
	"bytes"
	"fmt"
	"slices"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// Op is a mutation event's kind. The wire values extend the access
// log's create column (0 = access, 1 = create) with 2 = unlink.
type Op uint8

const (
	OpAccess Op = 0
	OpCreate Op = 1
	OpUnlink Op = 2
)

// Event is one mutation: a file accessed, created, or unlinked.
type Event struct {
	TS   timeutil.Time
	User trace.UserID
	Op   Op
	Size int64
	Path string
}

// Encode renders the event as one WAL payload / feed line: an
// access-log row (trace.AppendAccessRow) with the op in the create
// column.
func (e *Event) Encode(users []trace.User) ([]byte, error) {
	return e.appendTo(nil, users)
}

// appendTo appends the event's encoding to b: the daemon's WAL stage
// encodes every event into one reused buffer this way.
func (e *Event) appendTo(b []byte, users []trace.User) ([]byte, error) {
	if int(e.User) >= len(users) {
		return nil, fmt.Errorf("daemon: event references unknown user id %d", e.User)
	}
	name := users[e.User].Name
	b = slices.Grow(b, len(name)+len(e.Path)+48)
	return trace.AppendAccessRow(b, e.TS, name, int64(e.Op), e.Size, e.Path), nil
}

// ParseEvent decodes one feed line or WAL payload: an access-log row
// under the access log's rules (trace.ParseAccessRow), whose op column
// also allows 2 = unlink. byName maps user names to IDs
// (trace.NameIndex over the dataset's user table).
func ParseEvent(line []byte, byName map[string]trace.UserID) (Event, error) {
	r, err := trace.ParseAccessRow(line, byName)
	if err != nil {
		return Event{}, fmt.Errorf("daemon: %w", err)
	}
	if r.Op < 0 || r.Op > int64(OpUnlink) {
		return Event{}, fmt.Errorf("daemon: bad op %d (want 0=access, 1=create, 2=unlink)", r.Op)
	}
	return Event{
		TS:   r.TS,
		User: r.User,
		Op:   Op(r.Op),
		Size: r.Size,
		Path: string(r.Path),
	}, nil
}

// ParseFeed decodes a batch of newline-separated events, skipping
// blank lines and # comments (the access log's conventions). The
// event slice is sized once, from the body's line count.
func ParseFeed(body []byte, byName map[string]trace.UserID) ([]Event, error) {
	evs := make([]Event, 0, bytes.Count(body, []byte{'\n'})+1)
	for n := 1; len(body) > 0; n++ {
		line := body
		if j := bytes.IndexByte(body, '\n'); j >= 0 {
			line, body = body[:j], body[j+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ev, err := ParseEvent(line, byName)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// AccessEvent converts a trace access record to an event (the batch
// feed used by tests and by activedrd -feed).
func AccessEvent(a *trace.Access) Event {
	op := OpAccess
	if a.Create {
		op = OpCreate
	}
	return Event{TS: a.TS, User: a.User, Op: op, Size: a.Size, Path: a.Path}
}
