package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activedr/internal/faults"
)

// getStatus fetches /v1/status without the testing.T helpers, so it
// can run on any goroutine.
func getStatus(srv *httptest.Server) (statusResponse, error) {
	var st statusResponse
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/status = %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// TestReadsProceedDuringWALRetry wedges a WAL write in its retry
// backoff and checks that reads still answer meanwhile, from the
// events made durable before the wedge: the retry sleep must not hold
// the lock the reads take.
func TestReadsProceedDuringWALRetry(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	const durable = 20

	cfg := baseConfig(t)
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:durable], 5)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	sleeping := make(chan struct{}, 16)
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	cfg.RetryAttempts = 3
	cfg.WALFaults = faults.New(faults.Config{Seed: 5, WriteFailProb: 1}) // every attempt fails
	cfg.Sleep = func(time.Duration) {
		sleeping <- struct{}{}
		<-release
	}
	d := newDaemon(t, tinyDataset(), cfg)
	defer d.Close()
	defer unwedge() // before Close: a failed check may leave the write wedged
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ingested := make(chan error, 1)
	go func() { ingested <- d.Ingest(evs[durable : durable+5]) }()
	<-sleeping // the batch's first append failed and backs off

	within := func(name string, read func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- read() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s blocked while a WAL write waited to retry", name)
			unwedge()
			<-done
		}
	}
	within("status()", func() error {
		if st := d.status(); st.State != "running" || st.Applied != durable {
			return fmt.Errorf("state %s, applied_events %d; want running, %d", st.State, st.Applied, durable)
		}
		return nil
	})
	within("GET /v1/status", func() error {
		st, err := getStatus(srv)
		if err == nil && st.Applied != durable {
			err = fmt.Errorf("applied_events = %d, want %d", st.Applied, durable)
		}
		return err
	})
	for _, path := range []string{"/v1/ranks", "/v1/plan", "/v1/plan?user=busy"} {
		within("GET "+path, func() error {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		})
	}

	unwedge()
	if err := <-ingested; !errors.Is(err, ErrDegraded) {
		t.Fatalf("wedged batch = %v, want ErrDegraded once its retries ran out", err)
	}
	if n := d.Applied(); n != durable {
		t.Fatalf("Applied = %d after the failed batch, want %d", n, durable)
	}
}

// TestReadsSeeAcknowledgedEvents races a feeder against a reader. The
// feeder's batches span several WAL groups, so the apply stage takes
// groups while the batch is still being logged, and each event of the
// tiny dataset crosses a trigger, so checkpoints are taken inside
// batches. Every /v1/status that starts after an acknowledgment must
// count the events acknowledged so far, and the daemon must end with
// the batch replay's purge plans. Three batch sizes give the reader
// more acknowledgments to race.
func TestReadsSeeAcknowledgedEvents(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	for _, batch := range []int{3, 5, 7} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			cfg := baseConfig(t)
			cfg.SyncEvery = 2
			d := newDaemon(t, tinyDataset(), cfg)
			defer d.Close()
			srv := httptest.NewServer(d.Handler())
			defer srv.Close()

			var acked atomic.Int64
			fed := make(chan struct{})
			readErr := make(chan error, 1)
			reads := 0
			go func() {
				defer close(readErr)
				for {
					want := acked.Load()
					select {
					case <-fed:
						return
					default:
					}
					st, err := getStatus(srv)
					if err == nil && int64(st.Applied) < want {
						err = fmt.Errorf("read after %d acknowledged events: applied_events = %d", want, st.Applied)
					}
					if err != nil {
						readErr <- err
						return
					}
					reads++
				}
			}()
			for i := 0; i < len(evs); i += batch {
				end := min(i+batch, len(evs))
				if err := d.Ingest(evs[i:end]); err != nil {
					t.Fatalf("Ingest[%d:%d]: %v", i, end, err)
				}
				acked.Store(int64(end))
			}
			close(fed)
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
			t.Logf("%d status reads raced %d batches", reads, (len(evs)+batch-1)/batch)
			if st, err := getStatus(srv); err != nil || st.Applied != len(evs) {
				t.Fatalf("final status: applied_events %d (%v), want %d", st.Applied, err, len(evs))
			}
			requireSameReports(t, "reads racing the feed", d.stream.Result().Reports, ref.Reports)
			requireSameFS(t, "reads racing the feed", d, ref)
		})
	}
}
