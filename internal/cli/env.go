package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"peak/internal/experiments"
	"peak/internal/fault"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/vcache"
)

// Options are the run-wide settings a command has parsed from its flags.
// Start turns them into an experiments.Env.
type Options struct {
	// Name is the command name; it prefixes every diagnostic.
	Name string
	// Workers sizes the pool (<= 0 means GOMAXPROCS); Progress prints live
	// scheduler status and, at Close, the utilization summary.
	Workers  int
	Progress bool
	// NoCache leaves Env.Cache nil, so each tune keeps a private compile
	// cache; otherwise one cache serves the whole run.
	NoCache bool
	// CacheDir is the persistent warm-start store directory ("" = none).
	CacheDir string
	// Journal is the checkpoint journal path ("" = none). It is reopened
	// when the file exists and created otherwise; with Resume a missing
	// file is an error.
	Journal string
	Resume  bool
	// TracePath and Metrics are the -trace/-metrics outputs (see
	// NewObserver).
	TracePath string
	Metrics   bool
}

// Run is one command invocation: the Env built from its Options, plus the
// teardown that Close performs exactly once.
type Run struct {
	Env experiments.Env

	opts         Options
	w            io.Writer
	obs          *Observer
	stopProgress func()

	// mu serializes the teardown and the interrupt path, which both fill
	// and flush the metrics registry.
	mu       sync.Mutex
	closed   bool
	closeErr error
}

// Start builds the Env for one command run: it opens the journal and the
// store, creates the pool (with live progress on w when asked), the shared
// compile cache and the trace/metrics outputs, and installs a SIGINT/SIGTERM
// handler (see interrupt) that exits with status 130. Diagnostics go to w.
func Start(o Options, w io.Writer) (*Run, error) {
	r := &Run{opts: o, w: w, stopProgress: func() {}}
	if o.Journal != "" {
		j, err := OpenJournal(o.Journal, o.Resume, w, o.Name)
		if err != nil {
			return nil, err
		}
		r.Env.Journal = j
	}
	if o.CacheDir != "" {
		st, err := OpenStore(o.CacheDir, w, o.Name)
		if err != nil {
			if r.Env.Journal != nil {
				r.Env.Journal.Close()
			}
			return nil, err
		}
		r.Env.Store = st
	}
	r.Env.Pool = sched.New(o.Workers)
	if o.Progress {
		r.stopProgress = sched.StartProgress(w, r.Env.Pool, time.Second)
	}
	if !o.NoCache {
		r.Env.Cache = vcache.New()
	}
	r.obs = NewObserver(o.TracePath, o.Metrics, w)
	r.Env.Trace, r.Env.Metrics = r.obs.Buf, r.obs.Mx
	onInterrupt(r.interrupt)
	return r, nil
}

// interrupt is the SIGINT/SIGTERM path, after which the process exits:
// with a journal attached — the checkpoint layer's reason to exist — it
// syncs it and says how to continue, then flushes the partial trace. It
// waits out a teardown in progress rather than interleaving with it.
func (r *Run) interrupt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Env.Journal != nil {
		r.Env.Journal.Sync()
		fmt.Fprintf(r.w, "\n%s: interrupted; checkpoint journal %s synced\n", r.opts.Name, r.opts.Journal)
		r.resumeHint()
	}
	r.obs.interruptFlush(r.w, r.opts.Name)
}

func (r *Run) resumeHint() {
	fmt.Fprintf(r.w, "%s: continue with: %s -resume %s (plus the same flags)\n", r.opts.Name, r.opts.Name, r.opts.Journal)
}

// Close tears the run down, once: it stops the progress printer and prints
// the utilization summary (with Progress), folds the pool, cache and
// journal counters into the metrics, syncs and closes the journal
// (printing the resume hint when failed), flushes the store and finally
// the trace and metrics outputs. A partial trace of a failed run is still
// a valid trace, so failing commands close too. Later calls return the
// first call's error.
func (r *Run) Close(failed bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.closeErr = r.close(failed)
	}
	return r.closeErr
}

func (r *Run) close(failed bool) error {
	env := r.Env
	r.stopProgress()
	if r.opts.Progress {
		fmt.Fprintln(r.w, env.Pool.Stats().Summary(env.Pool.Workers()))
	}
	env.Pool.Stats().FillMetrics(env.Metrics, env.Pool.Workers())
	if env.Cache != nil {
		env.Cache.Stats().FillMetrics(env.Metrics)
	}
	var errs []error
	if env.Journal != nil {
		env.Journal.FillMetrics(env.Metrics)
		if err := env.Journal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal: %w", err))
		}
		if failed {
			r.resumeHint()
		}
	}
	if env.Store != nil {
		if err := env.Store.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("store flush: %w", err))
		} else {
			ss := env.Store.Stats()
			fmt.Fprintf(r.w, "%s: store: %d memo hit(s), %d new record(s) flushed\n", r.opts.Name, ss.MemoHits, ss.Pending)
		}
	}
	if err := r.obs.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("trace: %w", err))
	}
	return errors.Join(errs...)
}

// OpenJournal opens the checkpoint journal at path: an existing file is
// reopened for resuming (a torn tail left by a killed writer is dropped),
// a missing one is created unless mustExist is set. What recovery found in
// an existing file is reported on w, prefixed by name.
func OpenJournal(path string, mustExist bool, w io.Writer, name string) (*fault.Journal, error) {
	if _, err := os.Stat(path); err != nil {
		if mustExist {
			return nil, fmt.Errorf("resume: %w", err)
		}
		return fault.NewJournal(path)
	}
	j, err := fault.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if rec := j.Recovery(); rec.Records > 0 || rec.DroppedBytes > 0 {
		fmt.Fprintf(w, "%s: %s\n", name, rec.String())
	}
	return j, nil
}

// OpenStore opens (creating if needed) the warm-start store in dir and
// reports on w, prefixed by name, anything recovery repaired: a SIGKILL
// mid-flush loses at most the torn tail, and corrupt records are dropped.
func OpenStore(dir string, w io.Writer, name string) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if rec := st.Recovery(); rec.TornTail || rec.HeaderInvalid || rec.DroppedBodies > 0 || rec.DroppedAliases > 0 {
		fmt.Fprintf(w, "%s: store recovery: %d records kept, %d bytes dropped (torn=%v header_invalid=%v bodies_dropped=%d aliases_dropped=%d)\n",
			name, rec.Records, rec.DroppedBytes, rec.TornTail, rec.HeaderInvalid, rec.DroppedBodies, rec.DroppedAliases)
	}
	return st, nil
}
