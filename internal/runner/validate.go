package runner

import (
	"errors"
	"fmt"
	"math"

	"dynamo/internal/chaos"
	"dynamo/internal/core"
	"dynamo/internal/machine"
	"dynamo/internal/workload"
)

// ErrWireSchema reports a request document written under a wire-format
// version this build does not speak (see WireSchema).
var ErrWireSchema = errors.New("runner: unsupported request schema")

// ErrBadField reports a request field whose value is out of range or
// inconsistent with the rest of the request. Typed registry misses keep
// their own sentinels (workload.ErrUnknown, core.ErrUnknownPolicy); this
// one covers everything that is not a name lookup.
var ErrBadField = errors.New("runner: invalid request field")

// FieldError is one invalid request field: which field, the offending
// value, and the cause. The cause is matchable with errors.Is — an
// unregistered workload unwraps to workload.ErrUnknown, an unregistered
// policy to core.ErrUnknownPolicy, a schema mismatch to ErrWireSchema,
// and plain range errors to ErrBadField — so the sweep service can map a
// validation failure to a structured 400 without string matching.
type FieldError struct {
	// Field is the wire (JSON) name of the invalid field.
	Field string
	// Value is the offending value, rendered.
	Value string
	// Err is the cause.
	Err error
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("field %q = %q: %v", e.Field, e.Value, e.Err)
}

// Unwrap exposes the cause for errors.Is and errors.As.
func (e *FieldError) Unwrap() error { return e.Err }

// fieldErr builds a FieldError around a sentinel with a rendered detail.
func fieldErr(field string, value any, cause error, detail string) *FieldError {
	err := cause
	if detail != "" {
		err = fmt.Errorf("%w: %s", cause, detail)
	}
	return &FieldError{Field: field, Value: fmt.Sprint(value), Err: err}
}

// Validate checks the request against this build's registries and limits
// without running anything: the wire schema version, workload, policy,
// input variant, DSE decision string, system variant, thread count,
// scale, counter spec, profiler and chaos parameters. It returns nil or
// the first *FieldError, evaluated on the normalized request — the same
// canonical form the digest is computed over — so a request that
// validates here is a request the runner will accept.
func (q Request) Validate() error {
	if q.Schema != 0 && q.Schema != WireSchema {
		return fieldErr("schema", q.Schema, ErrWireSchema,
			fmt.Sprintf("this build speaks schema %d", WireSchema))
	}
	q = q.normalize()
	cfg := machine.DefaultConfig()
	if q.Counter != nil {
		if q.Workload != "" {
			return fieldErr("workload", q.Workload, ErrBadField,
				"a counter request names no workload")
		}
		if q.Counter.Ops <= 0 {
			return fieldErr("counter.ops", q.Counter.Ops, ErrBadField, "must be positive")
		}
		if q.Counter.Cells <= 0 {
			return fieldErr("counter.cells", q.Counter.Cells, ErrBadField, "must be positive")
		}
	} else {
		spec, err := workload.Get(q.Workload)
		if err != nil {
			return &FieldError{Field: "workload", Value: q.Workload, Err: err}
		}
		if q.Input != "" && !hasInput(spec, q.Input) {
			return fieldErr("input", q.Input, ErrBadField,
				fmt.Sprintf("workload %s has inputs %v", spec.Name, spec.Inputs))
		}
	}
	if q.DSE != "" {
		if _, err := dsePolicy(q.DSE); err != nil {
			return &FieldError{Field: "dse", Value: q.DSE, Err: err}
		}
	} else if err := core.Check(q.Policy, cfg.Chi.Cores, cfg.AMT); err != nil {
		return &FieldError{Field: "policy", Value: q.Policy, Err: err}
	}
	if q.Threads < 1 || q.Threads > cfg.Chi.Cores {
		return fieldErr("threads", q.Threads, ErrBadField,
			fmt.Sprintf("must be 1..%d", cfg.Chi.Cores))
	}
	if q.Scale < 0 || math.IsNaN(q.Scale) || math.IsInf(q.Scale, 0) {
		return fieldErr("scale", q.Scale, ErrBadField, "must be a finite non-negative number")
	}
	if err := ApplyVariant(q.Variant, &cfg); err != nil {
		return &FieldError{Field: "variant", Value: q.Variant, Err: err}
	}
	if q.ProfileTopK < 0 {
		return fieldErr("profile-topk", q.ProfileTopK, ErrBadField, "must be non-negative")
	}
	if q.ChaosLevel < 0 || q.ChaosLevel > chaos.MaxLevel {
		return fieldErr("chaos-level", q.ChaosLevel, ErrBadField,
			fmt.Sprintf("must be 0..%d", chaos.MaxLevel))
	}
	return nil
}

func hasInput(spec *workload.Spec, input string) bool {
	for _, in := range spec.Inputs {
		if in == input {
			return true
		}
	}
	return false
}
