package model

import "errors"

// Sentinel errors for the model layer. Validation failures wrap one of
// these so callers can classify with errors.Is instead of string
// matching, mirroring solve.ErrNoConvergence for solver failures:
//
//	if errors.Is(err, model.ErrInvalidPlatform) { ... }
var (
	// ErrInvalidParams marks nonsensical workload parameters (Eq. 1/4
	// components out of range).
	ErrInvalidParams = errors.New("model: invalid workload parameters")
	// ErrInvalidPlatform marks a misconfigured supply side: a Platform
	// or a Topology.
	ErrInvalidPlatform = errors.New("model: invalid platform configuration")
)
