// Package cliflags holds the flag validation rules of the ipd and
// ipd-collector binaries: the Validator primitives, the rule sets of the
// flags both binaries share (internal/node's Flags.Validate composes them),
// and the rule set of the flags only the collector defines (its ingest
// pipeline).
//
// Validation rejects values that earlier versions silently "fixed" (a
// checkpoint cadence of 0 became 1): a typo like -checkpoint-every 0 fails
// loudly instead of checkpointing on every cycle. The first violated rule
// wins, mirroring the original sequential checks.
package cliflags

import (
	"fmt"

	"ipd/internal/core"
)

// Validator accumulates flag checks, keeping the first failure. The zero
// value is ready to use; methods chain.
type Validator struct {
	err error
}

// Err returns the first check failure, or nil.
func (v *Validator) Err() error { return v.err }

func (v *Validator) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf(format, args...)
	}
}

// AtLeast requires got >= min for an integer flag.
func (v *Validator) AtLeast(flag string, got, min int) *Validator {
	if got < min {
		v.fail("%s must be >= %d (got %d)", flag, min, got)
	}
	return v
}

// AtLeast64 requires got >= min for an int64 flag.
func (v *Validator) AtLeast64(flag string, got, min int64) *Validator {
	if got < min {
		v.fail("%s must be >= %d (got %d)", flag, min, got)
	}
	return v
}

// AtLeastU64 requires got >= min for a uint64 flag.
func (v *Validator) AtLeastU64(flag string, got, min uint64) *Validator {
	if got < min {
		v.fail("%s must be >= %d (got %d)", flag, min, got)
	}
	return v
}

// MaxRanges checks the shared -max-ranges contract: non-negative, and never
// 1 — the partition always holds the v4 and v6 /0 roots.
func (v *Validator) MaxRanges(got int) *Validator {
	if got < 0 {
		v.fail("-max-ranges must be >= 0 (got %d)", got)
	} else if got == 1 {
		v.fail("-max-ranges 1 cannot hold the two /0 roots (use 0 for unlimited or >= 2)")
	}
	return v
}

// Engine validates the tuning flags both binaries define with identical
// semantics: checkpoint cadence, governor budgets, timeline sizing, and
// mutex profiling.
func Engine(ckptEvery uint64, maxRanges int, memBudget int64, tlWindow, mutexProf int) error {
	var v Validator
	v.AtLeastU64("-checkpoint-every", ckptEvery, 1).
		MaxRanges(maxRanges).
		AtLeast64("-mem-budget", memBudget, 0).
		AtLeast("-timeline-window", tlWindow, 0).
		AtLeast("-mutexprofile", mutexProf, 0)
	return v.Err()
}

// Sketch validates -q against the sketch tier: with -sketch on, ranges
// within core.ExactMargin below q keep exact state, so q must exceed the
// margin. With -sketch off q is not the sketch tier's business.
func Sketch(enabled bool, q float64) error {
	if enabled && q <= core.ExactMargin {
		return fmt.Errorf("-q must exceed the sketch tier's exact margin %g with -sketch (got %g)", core.ExactMargin, q)
	}
	return nil
}

// Ingest validates the collector-only ingest pipeline flags; a zero value
// for any of them is a dead pipeline, not a degraded one.
func Ingest(queueCap, sampleN, boostN int) error {
	var v Validator
	v.AtLeast("-queue", queueCap, 1).
		AtLeast("-sample", sampleN, 1).
		AtLeast("-sample-boost", boostN, 1)
	return v.Err()
}
