// Package cli holds the observability plumbing shared by the command-line
// tools: every cmd exposes the same -trace/-metrics flag pair, and an
// Observer turns that pair into the (possibly nil) trace buffer and
// metrics registry the engine and experiment drivers accept. It also
// carries the canonical tune-result report (FormatTuneReport) so that
// cmd/peak and the peak-serve daemon render byte-identical results.
package cli

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"peak/internal/trace"
)

// Observer bundles one command invocation's observability outputs. Build
// it after flag parsing with NewObserver, thread Buf and Mx into the
// tuning or experiment entry points (both are nil when the corresponding
// flag is off — every consumer is nil-safe), and call Flush before
// exiting. Error paths should flush too: a partial trace of a failed run
// is still a valid, analyzable trace.
//
// Flush is idempotent and safe for concurrent use: the first call writes
// the outputs, every later call is a no-op returning the first call's
// error. That is what makes it safe to flush both from the normal exit
// path and from a signal handler (FlushOnInterrupt) without the second
// flush truncating the trace file and rewriting it from the
// by-then-empty buffer.
type Observer struct {
	// Buf is the run's trace buffer (nil when -trace is off).
	Buf *trace.Buffer
	// Mx is the run's metrics registry (nil when -metrics is off).
	Mx *trace.Metrics

	tracePath string
	metricsTo io.Writer

	mu       sync.Mutex
	flushed  bool
	flushErr error
}

// NewObserver returns an observer for one command run: tracePath is the
// -trace destination ("" disables tracing), metrics enables the -metrics
// registry, and metricsTo receives the formatted metrics table on Flush
// (stderr in the cmds, keeping the results on stdout byte-identical with
// observability on or off).
func NewObserver(tracePath string, metrics bool, metricsTo io.Writer) *Observer {
	o := &Observer{tracePath: tracePath, metricsTo: metricsTo}
	if tracePath != "" {
		o.Buf = trace.NewBuffer()
	}
	if metrics {
		o.Mx = trace.NewMetrics()
	}
	return o
}

// Flush writes the buffered trace to the -trace file and the metrics
// table to the observer's writer, exactly once: repeated calls (a signal
// handler racing the normal exit path, a defer after an explicit flush)
// are no-ops returning the first call's error. Safe to call when both
// outputs are disabled.
func (o *Observer) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.flushed {
		return o.flushErr
	}
	o.flushed = true
	o.flushErr = o.flushLocked()
	return o.flushErr
}

func (o *Observer) flushLocked() error {
	if o.Buf != nil {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		tr := trace.NewTracer(f)
		tr.Flush(o.Buf)
		if err := tr.Close(); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", o.tracePath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("write %s: %w", o.tracePath, err)
		}
	}
	if o.Mx != nil && o.metricsTo != nil {
		fmt.Fprint(o.metricsTo, o.Mx.Format())
	}
	return nil
}

// FlushOnInterrupt installs a SIGINT/SIGTERM handler that flushes the
// observer and exits with status 130. Without it a cmd interrupted mid-run
// loses the entire buffered trace; with it the events recorded so far land
// on disk as a valid partial trace. name prefixes the line written to w.
//
// The handler races the normal exit path only through Flush, which is
// idempotent, so installing it is safe even in cmds that always flush
// before returning. Cmds built on Start get the handler from their Run.
func (o *Observer) FlushOnInterrupt(w io.Writer, name string) {
	onInterrupt(func() { o.interruptFlush(w, name) })
}

// onInterrupt runs fn on the first SIGINT or SIGTERM, then exits the
// process with status 130.
func onInterrupt(fn func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fn()
		os.Exit(130)
	}()
}

// interruptFlush flushes the observer from a signal handler and says on w
// what happened to the trace.
func (o *Observer) interruptFlush(w io.Writer, name string) {
	if err := o.Flush(); err != nil {
		fmt.Fprintf(w, "%s: trace: %v\n", name, err)
	} else if o.Buf != nil {
		fmt.Fprintf(w, "%s: interrupted; partial trace flushed to %s\n", name, o.tracePath)
	}
}
