package hyperblock

import "predication/internal/cfg"

// SetGraphCheck installs fn to run after every incremental graph update
// during formation and returns a function that removes it.  It exists for
// the external tests, which drive formation through the whole pipeline.
func SetGraphCheck(fn func(*cfg.Graph)) (restore func()) {
	graphCheck = fn
	return func() { graphCheck = nil }
}
