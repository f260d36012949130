package vcache

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/workloads"
)

func compileBench(t *testing.T, name string) (key func(fs opt.FlagSet) Key, compile func(fs opt.FlagSet) func() (*sim.Version, error)) {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s not found", name)
	}
	m := machine.SPARCII()
	pk := ProgramKey(b.Prog)
	key = func(fs opt.FlagSet) Key {
		return Key{Prog: pk, Fn: b.TSName, Flags: fs, Machine: m.Name}
	}
	compile = func(fs opt.FlagSet) func() (*sim.Version, error) {
		return func() (*sim.Version, error) {
			return opt.Compile(b.Prog, b.TS, fs, m)
		}
	}
	return key, compile
}

func TestResolveHitReturnsSameVersion(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	r1, err := c.Resolve(key(opt.O3()), compile(opt.O3()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Resolve(key(opt.O3()), compile(opt.O3()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.V != r2.V || r1.FP != r2.FP {
		t.Fatalf("cache hit returned a different version (%p vs %p) or fingerprint (%s vs %s)", r1.V, r2.V, r1.FP, r2.FP)
	}
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 lookups / 1 hit / 1 miss / 1 entry", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("expected positive byte estimate, got %d", st.Bytes)
	}

	// A nil cache compiles on every call — a fresh version each time, with
	// the same full fingerprint, frozen — and counts nothing.
	var none *Cache
	n1, err := none.Resolve(key(opt.O3()), compile(opt.O3()))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := none.Resolve(key(opt.O3()), compile(opt.O3()))
	if err != nil {
		t.Fatal(err)
	}
	if n1.FP != r1.FP || n2.FP != r1.FP {
		t.Fatalf("nil-cache fingerprints %s, %s; cached %s", n1.FP, n2.FP, r1.FP)
	}
	if n1.V == n2.V || n1.V == r1.V || n1.Shared || n1.FromDisk {
		t.Fatalf("nil cache memoized: %+v / %+v", n1, n2)
	}
	if got := c.Stats(); got != st {
		t.Fatalf("nil-cache Resolve changed stats: %+v, want %+v", got, st)
	}
	runConcurrently(t, "SWIM", n1.V)
}

// runConcurrently executes v from two goroutines with private runners.
// Only a frozen version is safe to share this way, so under the race
// detector this fails for a version published unfrozen.
func runConcurrently(t *testing.T, bench string, v *sim.Version) {
	t.Helper()
	b, _ := workloads.ByName(bench)
	m := machine.SPARCII()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			mem := sim.NewMemory(b.Prog)
			rng := rand.New(rand.NewSource(seed))
			b.Train.Setup(mem, rng)
			if _, _, err := sim.NewRunner(m, mem, seed).Run(v, b.Train.Args(0, mem, rng)); err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestContentDedupSharesIdenticalCode(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	base := opt.O3()
	br, err := c.Resolve(key(base), compile(base))
	if err != nil {
		t.Fatal(err)
	}
	bv := br.V
	seen := map[uint64]*sim.Version{br.FP.Lo: bv}
	sharedFlags := 0
	for _, f := range opt.AllFlags() {
		fs := base.Without(f)
		r, err := c.Resolve(key(fs), compile(fs))
		if err != nil {
			t.Fatal(err)
		}
		v, fp := r.V, r.FP.Lo
		if prev, ok := seen[fp]; ok {
			if !r.Shared {
				t.Fatalf("flag %s: fingerprint seen before but shared=false", f)
			}
			if v != prev {
				t.Fatalf("flag %s: identical fingerprint but distinct version pointer", f)
			}
			sharedFlags++
		} else {
			if v == bv {
				t.Fatalf("flag %s: distinct fingerprint but aliased to base version", f)
			}
			seen[fp] = v
		}
	}
	st := c.Stats()
	if int(st.Shared) != sharedFlags {
		t.Fatalf("stats.Shared = %d, want %d", st.Shared, sharedFlags)
	}
	if sharedFlags == 0 {
		t.Fatal("expected at least one flag to be a code no-op on SWIM")
	}
	if st.Versions >= st.Entries {
		t.Fatalf("expected fewer versions (%d) than entries (%d)", st.Versions, st.Entries)
	}
}

func TestProgramKeyStableAcrossCloneAndSensitiveToEdits(t *testing.T) {
	b, _ := workloads.ByName("MCF")
	k1 := ProgramKey(b.Prog)
	if k2 := ProgramKey(b.Prog.Clone()); k1 != k2 {
		t.Fatalf("clone changed program key: %x vs %x", k1, k2)
	}
	mutated := b.Prog.Clone()
	mutated.AddScalar("__vcache_probe", 0)
	if k3 := ProgramKey(mutated); k3 == k1 {
		t.Fatal("adding a scalar did not change the program key")
	}
}

func TestFingerprintIgnoresLabel(t *testing.T) {
	_, compile := compileBench(t, "SWIM")
	v1, err := compile(opt.O3())()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := compile(opt.O3())()
	if err != nil {
		t.Fatal(err)
	}
	v2.Label = "something else entirely"
	if Fingerprint(v1) != Fingerprint(v2) {
		t.Fatal("fingerprint depends on Label")
	}
}

func TestConcurrentResolve(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:8] {
		flags = append(flags, opt.O3().Without(f))
	}
	const goroutines = 8
	got := make([][]*sim.Version, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*sim.Version, len(flags))
			for i, fs := range flags {
				r, err := c.Resolve(key(fs), compile(fs))
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = r.V
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range flags {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different version for flags[%d]", g, i)
			}
		}
	}
	st := c.Stats()
	if st.Misses != int64(len(flags)) {
		t.Fatalf("misses = %d, want %d (one compile per distinct key)", st.Misses, len(flags))
	}
	if st.Lookups != int64(goroutines*len(flags)) {
		t.Fatalf("lookups = %d, want %d", st.Lookups, goroutines*len(flags))
	}
}

func TestMarkQuarantined(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	k := key(opt.O3())
	if c.Quarantined(k) {
		t.Fatal("fresh cache reports a quarantined key")
	}
	c.MarkQuarantined(k) // unknown key: no-op
	if c.Stats().Quarantined != 0 {
		t.Fatal("marking an unknown key changed stats")
	}
	if _, err := c.Resolve(k, compile(opt.O3())); err != nil {
		t.Fatal(err)
	}
	c.MarkQuarantined(k)
	c.MarkQuarantined(k) // idempotent
	if !c.Quarantined(k) {
		t.Error("Quarantined(k) = false after MarkQuarantined")
	}
	if got := c.Stats().Quarantined; got != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", got)
	}
	// The entry is still served: tunes re-verify their own resolutions.
	if r, err := c.Resolve(k, compile(opt.O3())); err != nil || r.V == nil {
		t.Errorf("quarantined entry not served: %v, %v", r.V, err)
	}
}

// TestProgramKeyValueFrozen pins the exact 64-bit ProgramKey values for two
// workloads. These are not arbitrary: ProgramKey is embedded in the
// fault-injection identity strings ("progKey/fn/flags/machine"), so any
// change to the legacy 64-bit FNV-1a lane silently re-rolls every committed
// fault draw (results_faults.txt and the quarantine-storm resilience test).
// The 128-bit widening of Fingerprint must never leak into these values.
func TestProgramKeyValueFrozen(t *testing.T) {
	for name, want := range map[string]uint64{
		"SWIM":  0x875c2d27974d18c6,
		"MGRID": 0x42f927cccd34de9a,
	} {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s not found", name)
		}
		if got := ProgramKey(b.Prog); got != want {
			t.Errorf("ProgramKey(%s) = %#x, want %#x — the legacy 64-bit hash lane changed; this breaks fault-injection determinism", name, got, want)
		}
	}
}

// TestFingerprint128LoAliasesFingerprint pins the two-tier key contract:
// the in-memory dedup path keys on the 64-bit Fingerprint, which must be
// exactly the low half of the 128-bit fingerprint the persistent store
// keys on — otherwise a preloaded body and its freshly compiled twin would
// land in different byCode slots and dedup would silently stop working.
func TestFingerprint128LoAliasesFingerprint(t *testing.T) {
	_, compile := compileBench(t, "SWIM")
	v, err := compile(opt.O3())()
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint128(v)
	if fp.IsZero() {
		t.Fatal("Fingerprint128 returned zero for a real version")
	}
	if got := Fingerprint(v); got != fp.Lo {
		t.Fatalf("Fingerprint = %#x, want low half of Fingerprint128 %s", got, fp)
	}
	if len(fp.String()) != 32 {
		t.Fatalf("FP128.String() = %q, want 32 hex digits", fp.String())
	}
}

// TestExportPreloadRoundTrip drives the warm-start path end to end in
// memory: a populated cache is exported, preloaded into a fresh cache, and
// every original key must resolve there as a disk hit without compiling
// anything. Quarantined keys must not survive the round trip.
func TestExportPreloadRoundTrip(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	warm := New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:6] {
		flags = append(flags, opt.O3().Without(f))
	}
	want := make(map[opt.FlagSet]Resolution)
	for _, fs := range flags {
		r, err := warm.Resolve(key(fs), compile(fs))
		if err != nil {
			t.Fatal(err)
		}
		want[fs] = r
	}
	bad := key(flags[len(flags)-1])
	warm.MarkQuarantined(bad)

	sn := warm.Export()
	if len(sn.Entries) != len(flags)-1 {
		t.Fatalf("exported %d entries, want %d (quarantined key excluded)", len(sn.Entries), len(flags)-1)
	}
	for _, se := range sn.Entries {
		if se.Key == bad {
			t.Fatal("quarantined key leaked into the snapshot")
		}
		if se.FP.IsZero() {
			t.Fatalf("entry %+v exported with zero fingerprint", se.Key)
		}
	}

	cold := New()
	if n := cold.Preload(sn); n != len(sn.Entries) {
		t.Fatalf("Preload installed %d keys, want %d", n, len(sn.Entries))
	}
	if st := cold.Stats(); st.Lookups != 0 || st.Misses != 0 || st.Preloaded != int64(len(sn.Entries)) {
		t.Fatalf("post-preload stats = %+v, want 0 lookups / 0 misses / %d preloaded", st, len(sn.Entries))
	}
	for _, fs := range flags[:len(flags)-1] {
		r, err := cold.Resolve(key(fs), func() (*sim.Version, error) {
			t.Fatalf("flags %v recompiled despite preload", fs)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.FromDisk {
			t.Errorf("flags %v: preloaded key resolved with FromDisk=false", fs)
		}
		if r.FP != want[fs].FP || r.Shared != want[fs].Shared || r.V != want[fs].V {
			t.Errorf("flags %v: round trip changed resolution: got {fp %s shared %v}, want {fp %s shared %v}", fs, r.FP, r.Shared, want[fs].FP, want[fs].Shared)
		}
	}
	st := cold.Stats()
	if st.DiskHits != int64(len(flags)-1) {
		t.Errorf("DiskHits = %d, want %d", st.DiskHits, len(flags)-1)
	}
	// Preloading again is a no-op on resident keys.
	if n := cold.Preload(sn); n != 0 {
		t.Errorf("second Preload installed %d keys, want 0", n)
	}
}

// TestStatsConsistentUnderRace is the satellite audit of Stats()
// snapshotting: with compilers and preloaders racing readers, every Stats
// snapshot must be internally consistent — Lookups == Hits+Misses and
// Entries >= Versions at all times — because the snapshot is taken under
// the same mutex every writer holds. Run under -race this also proves the
// counters are never written outside the lock.
func TestStatsConsistentUnderRace(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:8] {
		flags = append(flags, opt.O3().Without(f))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, fs := range flags {
					if _, err := c.Resolve(key(fs), compile(fs)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := c.Stats()
				if st.Lookups != st.Hits+st.Misses {
					t.Errorf("torn stats: lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
					return
				}
				if st.Versions > st.Entries {
					t.Errorf("torn stats: versions %d > entries %d", st.Versions, st.Entries)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	st := c.Stats()
	if st.Lookups != int64(4*3*len(flags)) {
		t.Fatalf("final lookups = %d, want %d", st.Lookups, 4*3*len(flags))
	}
	if st.Misses != int64(len(flags)) {
		t.Fatalf("final misses = %d, want %d (one compile per distinct key)", st.Misses, len(flags))
	}
}

// TestHitRateZeroLookups pins the fresh-cache stats path the serve /stats
// endpoint exercises before any job has run: HitRate must be exactly 0
// (never NaN, which json.Marshal rejects), Summary must render finite
// numbers, and the rate must track Hits/Lookups once traffic arrives.
func TestHitRateZeroLookups(t *testing.T) {
	var zero Stats
	if got := zero.HitRate(); got != 0 {
		t.Fatalf("zero-lookup HitRate = %v, want 0", got)
	}
	if line := zero.Summary(); strings.Contains(line, "NaN") {
		t.Fatalf("zero-lookup Summary renders NaN: %s", line)
	}

	key, compile := compileBench(t, "SWIM")
	c := New()
	k := key(opt.O3())
	for i := 0; i < 4; i++ {
		if _, err := c.Resolve(k, compile(opt.O3())); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if got, want := st.HitRate(), 0.75; got != want {
		t.Fatalf("HitRate after 4 lookups / 3 hits = %v, want %v", got, want)
	}
	if !strings.Contains(st.Summary(), "75.0% hit rate") {
		t.Fatalf("Summary missing hit rate: %s", st.Summary())
	}
}

// TestCompileDeterministic compiles every kernel under the whole O3 family
// (-O3 and -O3 minus each flag) twice on both machines and requires equal
// Fingerprint128s: compilation must be a pure function of its inputs, or
// code dedup and memo keys drift between runs.
func TestCompileDeterministic(t *testing.T) {
	family := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags() {
		family = append(family, opt.O3().Without(f))
	}
	benches := workloads.All()
	var wg sync.WaitGroup
	for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range benches {
				for _, fs := range family {
					var fps [2]FP128
					for i := range fps {
						v, err := opt.Compile(b.Prog, b.TS, fs, m)
						if err != nil {
							t.Errorf("%s/%s %s: %v", b.Name, m.Name, fs, err)
							return
						}
						v.Freeze()
						fps[i] = Fingerprint128(v)
					}
					if fps[0] != fps[1] {
						t.Errorf("%s/%s %s: fingerprints %s and %s", b.Name, m.Name, fs, fps[0], fps[1])
					}
				}
			}
		}()
	}
	wg.Wait()
}
