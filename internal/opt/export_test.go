package opt

import "peak/internal/ir"

// FlagFamily is flagFamily for external tests.
var FlagFamily = flagFamily

// MemoLFuncs returns the memoized HIR-stage outputs, so external tests can
// check that reuse never mutates them.
func (s *Stages) MemoLFuncs() []*ir.LFunc {
	out := make([]*ir.LFunc, 0, len(s.memo))
	for _, r := range s.memo {
		if r.lf != nil {
			out = append(out, r.lf)
		}
	}
	return out
}
