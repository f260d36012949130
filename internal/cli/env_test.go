package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"peak/internal/fault"
	"peak/internal/store"
	"peak/internal/trace"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a
// teardown racing the interrupt path.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunTeardown: Close performs the whole teardown once — pool and
// cache counters in the metrics table, journal closed with its resume
// hint on failure, store flushed, trace written — and a second Close is a
// no-op. The teardown runs concurrently with the interrupt path (journal
// sync, resume hint, observer flush), which must not race it (run under
// -race in the tier-1 recipe).
func TestRunTeardown(t *testing.T) {
	dir := t.TempDir()
	var w syncBuffer
	o := Options{
		Name: "peak-test", Workers: 2,
		CacheDir:  filepath.Join(dir, "store"),
		Journal:   filepath.Join(dir, "run.jsonl"),
		TracePath: filepath.Join(dir, "t.jsonl"),
		Metrics:   true,
	}
	run, err := Start(o, &w)
	if err != nil {
		t.Fatal(err)
	}
	env := run.Env
	if env.Pool == nil || env.Cache == nil || env.Store == nil || env.Journal == nil || env.Trace == nil || env.Metrics == nil {
		t.Fatalf("Start left a field unset: %+v", env)
	}
	env.Trace.Emit(trace.Event{Kind: trace.KindTuneEnd, Tune: "t", Cycles: 1})
	if err := env.Journal.Append(fault.Record{ID: "t/1"}); err != nil {
		t.Fatal(err)
	}
	env.Store.RecordMemo("test", "k", []byte{1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.interrupt()
	}()
	if err := run.Close(true); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := run.Close(true); err != nil {
		t.Fatal(err)
	}

	out := w.String()
	for _, want := range []string{"sched.", "vcache.", "journal.appends", "-resume " + o.Journal, "1 new record(s) flushed"} {
		if !strings.Contains(out, want) {
			t.Errorf("teardown output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "journal.appends"); n != 1 {
		t.Errorf("metrics table printed %d times, want 1", n)
	}
	f, err := os.Open(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if evs, err := trace.ReadEvents(f); err != nil || len(evs) != 1 {
		t.Errorf("trace file: %d events, %v; want 1", len(evs), err)
	}
	st, err := store.Open(o.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LookupMemo("test", "k"); !ok {
		t.Error("store was not flushed")
	}

	// A rerun with Resume reopens the journal and reports what it held.
	var w2 syncBuffer
	o.Resume, o.CacheDir, o.TracePath, o.Metrics = true, "", "", false
	again, err := Start(o, &w2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.Env.Journal.Latest("t/1"); !ok {
		t.Error("resumed journal lost its record")
	}
	if err := again.Close(false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w2.String(), "journal recovery: 1 record(s)") {
		t.Errorf("no recovery report on resume:\n%s", w2.String())
	}

	o.Journal = filepath.Join(dir, "missing.jsonl")
	if _, err := Start(o, &w2); err == nil {
		t.Error("Resume accepted a missing journal")
	}
}
