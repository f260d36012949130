package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"peak/internal/fault"
	"peak/internal/opt"
	"peak/internal/serve"
	"peak/internal/store"
	"peak/internal/workloads"
)

// Serve-mix parameters. The request counts are per pass. The mix is
// synthetic: the repository has no record of real service traffic, so each
// count is the smallest that meets a requirement of the benchmark, and no
// count or skew is a free parameter.
const (
	// forcedMethod is the catalogue's one forced rating method besides the
	// consultant's choice ("auto"); AVG is applicable to every kernel and
	// tunes about as fast as auto.
	forcedMethod = "AVG"
	// minDupRequests is the fewest duplicate requests whose p90 has
	// minBeyond samples beyond it (n - ceil(0.9n) >= 10).
	minDupRequests = 100
	// pollInterval is how often a client polls an unfinished job; it is
	// the resolution of every latency that waits on a tune.
	pollInterval = 5 * time.Millisecond
	// jobTimeout bounds one request, polling included.
	jobTimeout = 120 * time.Second
	// jobSlots is the service's concurrent-job limit. With one slot the
	// tunes run one after another on the nproc-wide pool, as in cold-suite,
	// and the other client's request waits in the service's queue; two
	// tunes at once would contend for the shared compile cache's lock in
	// an order the seed decides, which makes the pass's length erratic.
	jobSlots = 1
)

// specRef names one catalogue entry: a kernel on a machine, tuned by the
// consultant's method ("auto") or forcedMethod, over all flags or over
// the fixed subset subsetFlags.
type specRef struct {
	Bench, Machine, Method string
	Subset                 bool
}

func (s specRef) key() string {
	k := s.Bench + "/" + s.Machine + "/" + s.Method
	if s.Subset {
		k += "/subset"
	}
	return k
}

func (s specRef) request() serve.Request {
	r := serve.Request{Bench: s.Bench, Machine: s.Machine}
	if s.Method != "auto" {
		r.Method = s.Method
	}
	if s.Subset {
		r.Flags = subsetFlags()
	}
	return r
}

// subsetFlags is every other tunable flag, starting with the first. The
// serve memo key ignores the candidate list, so a subset tune's round-1
// ratings can be answered by records a full tune of the same spec wrote.
func subsetFlags() []string {
	var out []string
	for i, f := range opt.AllFlags() {
		if i%2 == 0 {
			out = append(out, f.String())
		}
	}
	return out
}

// mixPlan is one pass's request sequence.
type mixPlan struct {
	// cold holds one spec per kernel, each requested once; dup repeats
	// them once they have finished.
	cold, dup []specRef
	// after is the sequence after the restart: one replay of every
	// phase-1 spec, interleaved with the never-seen subset variant of
	// every phase-1 spec.
	after []specRef
}

// planMix draws the request sequence; it is a pure function of the seed.
// The cold requests are fixed: kernel i (Table-1 order) runs on sparc2
// when i is even, by auto when i%4 is 0 or 3, so every machine × method
// pair occurs. Tunes differ in length by up to 30× and a cold request
// waits for the one ahead of it in the queue, so a seeded choice or order
// would make the pass's work and the cold latencies depend on the seed.
// Every phase-1 spec is repeated equally often: as many rounds as reach
// minDupRequests duplicates, each round in a seeded order. After the
// restart every phase-1 spec is replayed once, so each restored job is
// checked, and every subset variant is requested once, in a seeded order.
func planMix(seed int64) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	var plan mixPlan
	for i, b := range workloads.Names() {
		s := specRef{Bench: b, Machine: machineNames[i%2], Method: "auto"}
		if i%4 == 1 || i%4 == 2 {
			s.Method = forcedMethod
		}
		plan.cold = append(plan.cold, s)
	}
	n := len(plan.cold)
	for r := 0; r < (minDupRequests+n-1)/n; r++ {
		for _, i := range rng.Perm(n) {
			plan.dup = append(plan.dup, plan.cold[i])
		}
	}
	for _, s := range plan.cold {
		plan.after = append(plan.after, s)
		s.Subset = true
		plan.after = append(plan.after, s)
	}
	rng.Shuffle(len(plan.after), func(i, j int) { plan.after[i], plan.after[j] = plan.after[j], plan.after[i] })
	return plan
}

// serveNode is one running tuning service: a store directory and journal
// attached as with peak-serve -cache-dir -journal, on a localhost listener.
type serveNode struct {
	srv     *serve.Server
	journal *fault.Journal
	http    *http.Server
	served  chan struct{}
	base    string
	client  *http.Client

	openMs, bootMs float64
}

// bootNode starts a service over dir; reopen resumes an existing journal.
// It returns once /healthz answers.
func bootNode(dir string, nproc int, reopen bool) (*serveNode, error) {
	workloads.All() // kernel construction, as in every workload's set-up
	n := &serveNode{served: make(chan struct{})}
	t0 := time.Now()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	n.openMs = msSince(t0)
	jpath := filepath.Join(dir, "journal.jsonl")
	if reopen {
		n.journal, err = fault.OpenJournal(jpath)
	} else {
		n.journal, err = fault.NewJournal(jpath)
	}
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	n.srv = serve.New(serve.Options{Workers: nproc, Jobs: jobSlots, Journal: n.journal, JournalPath: jpath, Store: st})
	n.srv.Start()
	n.bootMs = msSince(t1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Drain()
		n.journal.Close()
		return nil, err
	}
	n.base = "http://" + ln.Addr().String()
	n.http = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.served)
		n.http.Serve(ln)
	}()
	n.client = &http.Client{Timeout: jobTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: nproc}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		code, _, err := n.get("/healthz")
		if err == nil && code == http.StatusOK {
			return n, nil
		}
		if time.Now().After(deadline) {
			n.stop()
			return nil, fmt.Errorf("healthz: no answer within 10s (last: %d, %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the service (flushing its store), closes the listener and
// the journal, and waits for the HTTP server goroutine to exit. It returns
// the Drain call's duration.
func (n *serveNode) stop() (drainMs float64) {
	t0 := time.Now()
	n.srv.Drain()
	drainMs = msSince(t0)
	n.http.Close()
	<-n.served
	n.client.CloseIdleConnections()
	n.journal.Close()
	return drainMs
}

func (n *serveNode) get(path string) (int, []byte, error) {
	resp, err := n.client.Get(n.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (n *serveNode) stats() (serve.Stats, error) {
	var st serve.Stats
	code, body, err := n.get("/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// outcome is one request as the client saw it.
type outcome struct {
	spec         specRef
	afterRestart bool
	code         int    // POST status
	state        string // final job state
	report       string
	err          error

	latMs    float64   // POST sent to report received
	postMs   float64   // POST round trip
	getMs    []float64 // each poll's round trip
	queuedMs float64   // 202 to the first poll showing "running"; -1 if never seen
	polls    int
}

// request POSTs spec and, unless the answer already carries the finished
// report, polls /jobs/{id} until the job ends.
func (n *serveNode) request(spec specRef, afterRestart bool) outcome {
	o := outcome{spec: spec, afterRestart: afterRestart, queuedMs: -1}
	body, err := json.Marshal(spec.request())
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	resp, err := n.client.Post(n.base+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.postMs = msSince(t0)
	o.code = resp.StatusCode
	if err != nil {
		o.err = err
		return o
	}
	if o.code != http.StatusOK && o.code != http.StatusAccepted {
		o.err = fmt.Errorf("POST /tune: HTTP %d: %s", o.code, bytes.TrimSpace(data))
		return o
	}
	var res serve.Result
	if err := json.Unmarshal(data, &res); err != nil {
		o.err = fmt.Errorf("POST /tune: %w", err)
		return o
	}
	accepted := time.Now()
	for !terminal(res.State) {
		if time.Since(t0) > jobTimeout {
			o.err = fmt.Errorf("job %s still %s after %s", res.ID, res.State, jobTimeout)
			return o
		}
		time.Sleep(pollInterval)
		g0 := time.Now()
		code, data, err := n.get("/jobs/" + res.ID)
		o.getMs = append(o.getMs, msSince(g0))
		o.polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(data, &res)
		}
		if err != nil {
			o.err = fmt.Errorf("GET /jobs/%s: %w", res.ID, err)
			return o
		}
		if res.State == serve.StateRunning && o.queuedMs < 0 {
			o.queuedMs = msSince(accepted)
		}
	}
	o.latMs = msSince(t0)
	o.state, o.report = res.State, res.Report
	if res.State != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", res.ID, res.State, res.Error)
	}
	return o
}

func terminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateInterrupted, serve.StateTimedOut:
		return true
	}
	return false
}

// phase runs specs through a closed loop of nproc clients: each client
// sends its next request only after the previous one's report arrived.
func (n *serveNode) phase(specs []specRef, afterRestart bool, nproc int) []outcome {
	out := make([]outcome, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = n.request(specs[i], afterRestart)
			}
		}()
	}
	wg.Wait()
	return out
}

// Request classes, by what the server answered.
const (
	classCold     = "cold"     // 202 before the restart
	classDup      = "dup"      // 200 done before the restart
	classRestored = "restored" // 200 done after the restart, spec finished before it
	classMemo     = "memo"     // 202 after the restart, spec never submitted before
	classOther    = "other"    // anything else (e.g. a duplicate of a running job)
)

func classify(o outcome, finishedBefore, submittedBefore map[string]bool) string {
	k := o.spec.key()
	switch {
	case !o.afterRestart && o.code == http.StatusAccepted:
		return classCold
	case !o.afterRestart && o.code == http.StatusOK && o.state == serve.StateDone:
		return classDup
	case o.afterRestart && o.code == http.StatusOK && o.state == serve.StateDone && finishedBefore[k]:
		return classRestored
	case o.afterRestart && o.code == http.StatusAccepted && !submittedBefore[k]:
		return classMemo
	}
	return classOther
}

// serveMixPass drives one pass: phase 1 (every cold spec once, then the
// duplicates) against server 1; Drain, reopen the same directory and boot
// server 2; phase 3 (replays and new subset variants) against it.
func serveMixPass(e *env, k int, traced bool) *passResult {
	return runServeMix(e, k, traced, planMix(e.passSeed(k)), reopenNode)
}

// reopenNode boots server 2 over server 1's directory, resuming its journal.
func reopenNode(dir string, nproc int) (*serveNode, error) { return bootNode(dir, nproc, true) }

// runServeMix runs one serve-mix pass of plan, restarting through reboot.
func runServeMix(e *env, k int, traced bool, plan mixPlan, reboot func(dir string, nproc int) (*serveNode, error)) *passResult {
	p := &passResult{}
	dir := filepath.Join(e.workDir, fmt.Sprintf("serve-%d", k))
	defer os.RemoveAll(dir)

	// Set up several servers, each on a fresh directory; keep the last.
	var n1 *serveNode
	for i := 0; i < setupsPerPass; i++ {
		if n1 != nil {
			n1.stop()
		}
		t0 := time.Now()
		var err error
		n1, err = bootNode(filepath.Join(dir, fmt.Sprintf("boot-%d", i)), e.nproc, false)
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if err != nil {
			p.attempted++
			p.fail("setup: %v", err)
			return p
		}
	}
	nodeDir := filepath.Join(dir, fmt.Sprintf("boot-%d", setupsPerPass-1))

	start := time.Now()
	var outs []outcome
	outs = append(outs, n1.phase(plan.cold, false, e.nproc)...)
	outs = append(outs, n1.phase(plan.dup, false, e.nproc)...)
	var st1, st2 serve.Stats
	var statsErr error
	if traced {
		st1, statsErr = n1.stats()
	}

	t0 := time.Now()
	drainMs := n1.stop()
	storeBytes, journalBytes := dirBytes(filepath.Join(nodeDir, "store")), dirBytes(filepath.Join(nodeDir, "journal.jsonl"))
	n2, err := reboot(nodeDir, e.nproc)
	restartMs := msSince(t0)
	var openMs, bootMs float64
	if err == nil {
		openMs, bootMs = n2.openMs, n2.bootMs
		outs = append(outs, n2.phase(plan.after, true, e.nproc)...)
	} else {
		for _, s := range plan.after {
			outs = append(outs, outcome{spec: s, afterRestart: true, err: fmt.Errorf("restart: %w", err)})
		}
	}
	p.wall = time.Since(start).Seconds()
	if n2 != nil {
		if traced && statsErr == nil {
			st2, statsErr = n2.stats()
		}
		n2.stop()
	}

	// Classify and check every request.
	finished, submitted := map[string]bool{}, map[string]bool{}
	for _, o := range outs {
		if !o.afterRestart {
			submitted[o.spec.key()] = true
			if o.err == nil {
				finished[o.spec.key()] = true
			}
		}
	}
	first := map[string]string{}
	byClass := map[string][]float64{}
	var postMs, getMs, queuedMs []float64
	polls, mismatches := 0, 0
	for _, o := range outs {
		p.attempted++
		if o.err != nil {
			p.fail("%s: %v", o.spec.key(), o.err)
			continue
		}
		class := classify(o, finished, submitted)
		byClass[class] = append(byClass[class], o.latMs)
		postMs = append(postMs, o.postMs)
		getMs = append(getMs, o.getMs...)
		if o.queuedMs >= 0 {
			queuedMs = append(queuedMs, o.queuedMs)
		}
		polls += o.polls
		k := o.spec.key()
		if want, ok := first[k]; ok {
			if o.report != want {
				p.fail("%s (%s): report differs from the spec's first report in this pass", k, class)
			}
			continue
		}
		if class == classDup || class == classRestored {
			p.fail("%s (%s): no earlier report to compare with", k, class)
			continue
		}
		first[k] = o.report
		v := checkReport(e.refs, k, o.report)
		if !v.ok {
			p.fail("%s", v.why)
		} else if v.ledgerMismatch {
			mismatches++
		}
	}
	// The end-to-end op latency is the cold request's: sub-millisecond
	// duplicate latencies moved by a fifth between runs on a 2-vCPU host.
	p.opMs = byClass[classCold]
	if !traced {
		return p
	}

	p.layers = layers{}
	l := p.layers
	if statsErr != nil {
		p.attempted++
		p.fail("GET /stats: %v", statsErr)
	}
	dupP90, err := tailPercentile(byClass[classDup], 0.9)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve.dup_p90_ms: %v\n", err)
	}
	l["serve.cold_p50_ms"] = median(byClass[classCold])
	l["serve.dup_p50_ms"] = median(byClass[classDup])
	l["serve.dup_p90_ms"] = dupP90
	if n2 != nil {
		l["serve.restart_ms"] = restartMs
	}
	l["serve.restored_p50_ms"] = median(byClass[classRestored])
	l["serve.memo_p50_ms"] = median(byClass[classMemo])
	l["serve.unclassified"] = float64(len(byClass[classOther]))
	l["http.post_ms"] = median(postMs)
	l["http.get_ms"] = median(getMs)
	l["serve.queued_ms"] = median(queuedMs)
	l["serve.polls_per_req"] = ratio(float64(polls), float64(len(outs)))
	l["store.open_ms"] = openMs
	l["serve.boot_ms"] = bootMs
	l["serve.drain_ms"] = drainMs
	l["store.bytes"] = storeBytes
	l["journal.bytes"] = journalBytes
	l["tune.ledger_mismatch"] = float64(mismatches)
	l["serve.pool_utilization"] = st1.Pool.Utilization
	l["rate.jobs"] = float64(st1.Pool.JobsDone + st2.Pool.JobsDone)
	l["sim.mcycles"] = float64(st1.Pool.Cycles+st2.Pool.Cycles) / 1e6
	if st1.Cache != nil {
		l["serve.cache_hit_ratio"] = st1.Cache.HitRate
	}
	if st2.Store != nil {
		l["store.preloaded"] = float64(st2.Store.Preloaded)
		l["store.restored_jobs"] = float64(st2.Store.RestoredJobs)
	}
	if st2.Memo != nil {
		l["memo.hits"] = float64(st2.Memo.Hits)
		l["memo.hit_ratio"] = ratio(float64(st2.Memo.Hits), float64(st2.Memo.Hits+st2.Memo.Misses))
	}
	return p
}

// dirBytes is the total size of the regular files under path (a file or
// a directory); 0 when it does not exist.
func dirBytes(path string) float64 {
	var total int64
	filepath.WalkDir(path, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// captureSubsetReferences prints a reference block for every catalogue
// spec restricted to subsetFlags, tuned by an in-process tuning service
// with no store. cmd/peak has no flag-subset option, so these reports come
// from the service path, whose reports match cmd/peak's for the specs
// both can express.
func captureSubsetReferences(w io.Writer) error {
	srv := serve.New(serve.Options{Jobs: 2, Queue: 128})
	srv.Start()
	defer srv.Drain()
	var specs []specRef
	var ids []string
	for _, b := range workloads.Names() {
		for _, m := range machineNames {
			for _, method := range []string{"auto", forcedMethod} {
				s := specRef{Bench: b, Machine: m, Method: method, Subset: true}
				res, code, err := srv.Submit(s.request())
				if err != nil || code != http.StatusAccepted {
					return fmt.Errorf("submit %s: HTTP %d: %v", s.key(), code, err)
				}
				specs = append(specs, s)
				ids = append(ids, res.ID)
			}
		}
	}
	for i, s := range specs {
		for {
			res, ok := srv.Job(ids[i])
			if !ok {
				return errors.New("job vanished: " + ids[i])
			}
			if res.State == serve.StateDone {
				fmt.Fprintf(w, "=== %s\n%s", s.key(), res.Report)
				break
			}
			if terminal(res.State) {
				return fmt.Errorf("%s ended %s: %s", s.key(), res.State, res.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}
