package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// referencePath holds the captured tune reports every tuning op is checked
// against, one block per catalogue spec ("=== BENCH/machine/method[/subset]"
// followed by the report). capture.sh regenerates it.
const referencePath = "perfbench/reference.txt"

// loadReference parses the reference file into spec key -> report text.
func loadReference(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer f.Close()
	refs := map[string]string{}
	var key string
	var sb strings.Builder
	flush := func() {
		if key != "" {
			refs[key] = sb.String()
		}
		sb.Reset()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "=== "); ok {
			flush()
			key = k
			continue
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	flush()
	if len(refs) == 0 {
		return nil, fmt.Errorf("reference: %s holds no reports", path)
	}
	return refs, nil
}

// answerPrefixes name the report lines that carry a tune's answer: the
// winning flag set and the ref-dataset cycles of -O3 and of the winner.
// Every other line (method, removal order, tuning cost, cache counters) is
// the ledger, which the known fingerprint drift may change.
var answerPrefixes = []string{"benchmark:", "best flags:", "ref performance:"}

// splitReport separates a report's answer lines from its ledger lines.
func splitReport(report string) (answer, ledger string) {
	var a, l strings.Builder
	for _, line := range strings.SplitAfter(report, "\n") {
		if line == "" {
			continue
		}
		isAnswer := false
		for _, p := range answerPrefixes {
			if strings.HasPrefix(line, p) {
				isAnswer = true
				break
			}
		}
		if isAnswer {
			a.WriteString(line)
		} else {
			l.WriteString(line)
		}
	}
	return a.String(), l.String()
}

// verdict is the outcome of checking one report against the reference.
type verdict struct {
	ok             bool // the answer matches
	ledgerMismatch bool // the answer matches but the ledger differs
	why            string
}

func checkReport(refs map[string]string, key, report string) verdict {
	want, ok := refs[key]
	if !ok {
		return verdict{why: fmt.Sprintf("%s: no reference report", key)}
	}
	wantA, wantL := splitReport(want)
	gotA, gotL := splitReport(report)
	if gotA != wantA {
		return verdict{why: fmt.Sprintf("%s: answer differs from reference:\n%s--- want\n%s", key, gotA, wantA)}
	}
	return verdict{ok: true, ledgerMismatch: gotL != wantL}
}
