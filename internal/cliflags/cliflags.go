// Package cliflags holds the flag validation rules of the ipd and
// ipd-collector binaries: the Validator primitives, the rule sets of the
// flags both binaries share (internal/node's Flags.Validate composes them),
// and the rule sets of the flags only one binary defines (the collector's
// ingest pipeline, the two ends of delta shipping).
//
// Validation rejects values that earlier versions silently "fixed" (a
// checkpoint cadence of 0 became 1, a non-positive trace sample rate traced
// nothing): a typo like -checkpoint-every 0 fails loudly instead of
// checkpointing on every cycle. The first violated rule wins, mirroring the
// original sequential checks.
package cliflags

import (
	"fmt"
	"time"
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

// InRange requires lo <= got <= hi.
func (v *Validator) InRange(flag string, got, lo, hi int) *Validator {
	if got < lo || got > hi {
		v.fail("%s must be in %d..%d (got %d)", flag, lo, hi, got)
	}
	return v
}

// Positive requires a positive duration.
func (v *Validator) Positive(flag string, got time.Duration) *Validator {
	if got <= 0 {
		v.fail("%s must be positive (got %v)", flag, got)
	}
	return v
}

// NonEmpty requires a non-empty string flag; what names the role the value
// plays in the message.
func (v *Validator) NonEmpty(flag, got, what string) *Validator {
	if got == "" {
		v.fail("%s needs %s", flag, what)
	}
	return v
}

// Fraction requires 0 <= got < 1 for a float flag.
func (v *Validator) Fraction(flag string, got float64) *Validator {
	if got < 0 || got >= 1 {
		v.fail("%s must be in [0, 1) (got %g)", flag, got)
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
// semantics: checkpoint cadence, trace sampling, governor budgets, timeline
// sizing, and mutex profiling.
func Engine(ckptEvery uint64, traceSample, maxRanges int, memBudget int64, tlWindow, tlEvery, mutexProf int) error {
	var v Validator
	v.AtLeastU64("-checkpoint-every", ckptEvery, 1).
		AtLeast("-trace-sample", traceSample, 1).
		MaxRanges(maxRanges).
		AtLeast64("-mem-budget", memBudget, 0).
		AtLeast("-timeline-window", tlWindow, 0).
		AtLeast("-timeline-every", tlEvery, 1).
		AtLeast("-mutexprofile", mutexProf, 0)
	return v.Err()
}

// ExporterHealth validates the exporter-health thresholds; a non-positive
// value would disable the staleness and skew alerts silently.
func ExporterHealth(staleAfter, skewMax time.Duration) error {
	var v Validator
	v.Positive("-exporter-stale-after", staleAfter).
		Positive("-skew-max", skewMax)
	return v.Err()
}

// Workload validates the workload-profiler heavy-hitter capacity: the
// space-saving summary needs at least two slots.
func Workload(topK int) error {
	var v Validator
	v.AtLeast("-workload-topk", topK, 2)
	return v.Err()
}

// Sketch validates the fixed-memory sketch-tier flags. With -sketch off the
// sizing flags are ignored entirely (so scripted invocations can leave them
// at anything); with it on, the width and depth must fit the count-min
// envelope internal/sketch accepts, and the exact margin must be a fraction
// below 1 (the engine additionally requires it below the prevalence
// threshold q).
func Sketch(enabled bool, width, depth int, exactMargin float64) error {
	if !enabled {
		return nil
	}
	var v Validator
	v.InRange("-sketch-width", width, 16, 1<<20).
		InRange("-sketch-depth", depth, 1, 16).
		Fraction("-sketch-exact-margin", exactMargin)
	return v.Err()
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

// DeltaShip validates the edge-side delta-shipping flags (collector). An
// empty target disables shipping; with one set, the edge needs an identity
// and sane transport parameters.
func DeltaShip(target, edgeID string, spoolCap int, heartbeat time.Duration) error {
	if target == "" {
		return nil
	}
	var v Validator
	v.NonEmpty("-ship-to", edgeID, "-edge-id (the core dedupes and resumes per edge identity)").
		AtLeast("-spool-cap", spoolCap, 1).
		Positive("-heartbeat", heartbeat)
	return v.Err()
}

// DeltaListen validates the core-side delta-receiver flags (ipd). An empty
// listen address disables the receiver; with one set, the transport
// parameters must be sane (an empty -edges list is allowed: it selects
// dynamic edge registration).
func DeltaListen(listen string, mergeStall, heartbeat time.Duration) error {
	if listen == "" {
		return nil
	}
	var v Validator
	if mergeStall < 0 {
		v.fail("-merge-stall must be >= 0 (got %v)", mergeStall)
	}
	v.Positive("-heartbeat", heartbeat)
	return v.Err()
}
