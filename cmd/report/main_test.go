package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"activedr/internal/experiments"
	"activedr/internal/obs"
)

func smallSuite(t *testing.T) *experiments.Suite {
	t.Helper()
	s, err := experiments.NewSyntheticSuite(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRenderEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full year several times")
	}
	o, err := parseFlags([]string{"-ranks", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s := smallSuite(t)
	for _, fig := range []string{"t1", "1", "5", "6", "7", "8", "9", "10", "11", "12"} {
		var b strings.Builder
		if err := render(s, fig, &b, o.ranks); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if b.Len() == 0 {
			t.Fatalf("fig %s produced no output", fig)
		}
	}
}

func TestRenderUnknownFigure(t *testing.T) {
	s := smallSuite(t)
	if err := render(s, "99", io.Discard, 2); err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, args := range [][]string{{"-fig", "99"}, {"-ranks", "0"}} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

// eventStream builds a small two-policy telemetry stream: per policy,
// misses before each trigger, two triggers, one audit record, and a
// trailing miss after the final trigger.
func eventStream(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewEventWriter(&buf)
	for _, pol := range []string{"FLT-90d", "ActiveDR-90d"} {
		w.Miss(&obs.MissEvent{Kind: obs.KindMiss, Policy: pol, Path: "/a", Bytes: 100})
		w.Miss(&obs.MissEvent{Kind: obs.KindMiss, Policy: pol, Path: "/b", Bytes: 200})
		w.Trigger(&obs.TriggerEvent{Kind: obs.KindTrigger, Policy: pol, Seq: 1,
			Date: "2016-01-08", TargetBytes: 10 << 30, PurgedFiles: 40, PurgedBytes: 9 << 30,
			TargetReached: true})
		w.Audit(&obs.AuditEvent{Kind: obs.KindAudit, Policy: pol, Seq: 2,
			Action: obs.ActionPurge, Path: "/c", Bytes: 300})
		w.Trigger(&obs.TriggerEvent{Kind: obs.KindTrigger, Policy: pol, Seq: 2,
			Date: "2016-01-15", TargetBytes: 10 << 30, PurgedFiles: 25, PurgedBytes: 5 << 30,
			FailedFiles: 3, RetroPasses: 1, RetroFiles: 7, Incomplete: true})
		w.Miss(&obs.MissEvent{Kind: obs.KindMiss, Policy: pol, Path: "/d", Bytes: 50})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestRenderEvents(t *testing.T) {
	var b strings.Builder
	if err := renderEvents(eventStream(t), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"FLT-90d: 2 purge triggers",
		"ActiveDR-90d: 2 purge triggers",
		"2016-01-08",
		"2016-01-15",
		"(+1 misses after the final trigger)",
		"I!r", // trigger 2: interrupted, target missed, retro pass ran
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table lacks %q:\n%s", want, out)
		}
	}
}

func TestRenderEventsRejectsGarbage(t *testing.T) {
	if err := renderEvents(strings.NewReader("not json\n"), io.Discard); err == nil {
		t.Fatal("garbage stream accepted")
	}
	if err := renderEvents(strings.NewReader(""), io.Discard); err == nil {
		t.Fatal("empty stream accepted")
	}
}
