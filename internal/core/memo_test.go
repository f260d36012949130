package core

import (
	"reflect"
	"testing"

	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/vcache"
)

// storedTune runs one tune of the tiny benchmark against st (nil = no
// store) with the given worker count and returns the result.
func storedTune(t *testing.T, st *store.Store, cache *vcache.Cache, workers int, plan *fault.Plan) *TuneResult {
	t.Helper()
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p,
		Pool: sched.New(workers), Cache: cache, Store: st}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRatingMemoWarmMatchesCold is the tentpole determinism check at the
// engine level: a cold tune against an empty store, flushed and reopened,
// must warm-start a second tune to the identical TuneResult — every
// counter, cycle and flag byte-for-byte — with the rating simulations
// answered from the memo table, at several worker counts.
func TestRatingMemoWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldCache := vcache.New()
	cold.AttachCache(coldCache)
	want := storedTune(t, cold, coldCache, 4, nil)
	if st := cold.Stats(); st.MemoHits != 0 || st.Pending == 0 {
		t.Fatalf("cold store stats = %+v, want 0 hits and pending records", st)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}

	plain := storedTune(t, nil, vcache.New(), 4, nil)
	if !reflect.DeepEqual(plain, want) {
		t.Fatalf("attaching an empty store changed the result:\nplain %+v\nstore %+v", plain, want)
	}

	for _, workers := range []int{1, 8} {
		warm, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		warmCache := vcache.New()
		if n := warm.AttachCache(warmCache); n == 0 {
			t.Fatal("warm store preloaded nothing")
		}
		got := storedTune(t, warm, warmCache, workers, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("warm tune (%d workers) diverged:\ncold %+v\nwarm %+v", workers, want, got)
		}
		st := warm.Stats()
		if st.MemoHits == 0 {
			t.Fatalf("warm tune (%d workers) hit no memo records: %+v", workers, st)
		}
		if st.MemoMisses != 0 {
			t.Fatalf("warm tune (%d workers) missed %d memo lookups — key drift", workers, st.MemoMisses)
		}
		cs := warmCache.Stats()
		if cs.Misses != 0 {
			t.Fatalf("warm tune (%d workers) recompiled %d flag sets despite preload", workers, cs.Misses)
		}
	}
}

// TestRateMemoDecodeFailureHeals runs a warm tune against a store whose
// rate records are all truncated by one byte. Every such record must count
// as a decode failure rather than a hit, the tune must simulate its way to
// the cold result, and the fresh records must replace the truncated ones
// at flush, so a third run is answered from the memo table alone.
func TestRateMemoDecodeFailureHeals(t *testing.T) {
	coldDir := t.TempDir()
	cold, err := store.Open(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	want := storedTune(t, cold, vcache.New(), 2, nil)
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	truncated, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened.MemoEach(MemoKindRate, func(key string, payload []byte) bool {
		truncated.RecordMemo(MemoKindRate, key, payload[:len(payload)-1])
		return true
	})
	if err := truncated.Flush(); err != nil {
		t.Fatal(err)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := storedTune(t, warm, vcache.New(), 2, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("tune over truncated records diverged:\ncold %+v\nwarm %+v", want, got)
	}
	st := warm.Stats()
	if st.MemoDecodeFailures == 0 || st.MemoHits != 0 || st.Pending != st.MemoDecodeFailures {
		t.Fatalf("warm stats = %+v, want only decode failures, each re-recorded", st)
	}
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}

	healed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := storedTune(t, healed, vcache.New(), 2, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("tune over healed records diverged:\ncold %+v\nhealed %+v", want, got)
	}
	if st := healed.Stats(); st.MemoDecodeFailures != 0 || st.MemoMisses != 0 || st.MemoHits == 0 {
		t.Fatalf("healed stats = %+v, want memo hits only", st)
	}
}

// TestRateMemoRoundTrip pins the rate-memo wire codec: every field of a
// job result must survive encode → restore, and the payload must be
// exactly rateMemoLen bytes. A length drift between the encoder and the
// decoder is invisible to the determinism tests — restore failure falls
// through to the real simulation, which produces the same bytes — so this
// is the test that keeps warm starts actually warm.
func TestRateMemoRoundTrip(t *testing.T) {
	in := jobResult{
		rating: Rating{Method: MethodCBR, EVAL: 123.456, VAR: 7.89,
			Samples: 40, Outliers: 3, CIHalf: 0.25, Abandoned: true},
		converged: true,
		escalated: true,
		ctx:       &ratingCtx{cycles: 987654321, invocations: 42, runs: 2},
	}
	payload := encodeRateMemo(&in)
	if len(payload) != rateMemoLen {
		t.Fatalf("encodeRateMemo produced %d bytes, want rateMemoLen = %d", len(payload), rateMemoLen)
	}
	out := jobResult{ctx: &ratingCtx{}}
	if !restoreRateMemo(&out, payload) {
		t.Fatal("restoreRateMemo rejected a freshly encoded payload")
	}
	if !reflect.DeepEqual(in.rating, out.rating) ||
		in.converged != out.converged || in.escalated != out.escalated ||
		in.ctx.cycles != out.ctx.cycles || in.ctx.invocations != out.ctx.invocations ||
		in.ctx.runs != out.ctx.runs {
		t.Fatalf("round trip diverged:\nin  %+v ctx %+v\nout %+v ctx %+v",
			in, *in.ctx, out, *out.ctx)
	}
	if restoreRateMemo(&out, payload[:len(payload)-1]) {
		t.Error("restoreRateMemo accepted a truncated payload")
	}
}

// TestStoreIgnoredUnderFaults pins the "never memoize faulted ratings"
// rule: a tune with fault injection and a store attached must neither
// consult nor populate the memo table, and its result must equal the same
// faulted tune without a store.
func TestStoreIgnoredUnderFaults(t *testing.T) {
	plan := fault.Uniform(0.10, 42)
	want := storedTune(t, nil, vcache.New(), 4, plan)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := storedTune(t, st, vcache.New(), 4, plan)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store changed a faulted tune:\nwithout %+v\nwith %+v", want, got)
	}
	if s := st.Stats(); s.MemoHits != 0 || s.MemoMisses != 0 || s.Pending != 0 {
		t.Fatalf("faulted tune touched the memo table: %+v", s)
	}
}

// TestMeasurePerformanceStored pins the measurement memo: a stored
// measurement returns identical cycles to the unmemoized path, records on
// miss, and a reopened store answers without simulating (verified by the
// measure memo hitting instead of missing).
func TestMeasurePerformanceStored(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := vcache.New()
	flags := opt.O3().Without(opt.AllFlags()[0])
	wantTS, wantProg, err := MeasurePerformance(b, b.Train, m, flags)
	if err != nil {
		t.Fatal(err)
	}
	ts, prog, err := MeasurePerformanceStored(b, b.Train, m, flags, cache, st)
	if err != nil {
		t.Fatal(err)
	}
	if ts != wantTS || prog != wantProg {
		t.Fatalf("stored measurement (%d, %d) != plain (%d, %d)", ts, prog, wantTS, wantProg)
	}
	if s := st.Stats(); s.Pending != 1 || s.MemoHits != 0 {
		t.Fatalf("cold measurement stats = %+v, want 1 pending / 0 hits", s)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, prog, err = MeasurePerformanceStored(b, b.Train, m, flags, vcache.New(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if ts != wantTS || prog != wantProg {
		t.Fatalf("warm measurement (%d, %d) != plain (%d, %d)", ts, prog, wantTS, wantProg)
	}
	if s := warm.Stats(); s.MemoHits != 1 {
		t.Fatalf("warm measurement stats = %+v, want 1 memo hit", s)
	}
}
