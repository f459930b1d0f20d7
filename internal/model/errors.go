package model

import "errors"

// Sentinel errors for the model layer. Failures wrap one of these so
// callers can classify with errors.Is instead of string matching:
//
//	if errors.Is(err, model.ErrInvalidPlatform) { ... }
var (
	// ErrInvalidParams marks nonsensical workload parameters (Eq. 1/4
	// components out of range).
	ErrInvalidParams = errors.New("model: invalid workload parameters")
	// ErrInvalidPlatform marks a misconfigured supply side: a Platform
	// or a Topology.
	ErrInvalidPlatform = errors.New("model: invalid platform configuration")
	// ErrNoConvergence marks a solve whose bisection exhausted its
	// budget, or whose bracket or final CPI is not finite (inputs whose
	// CPI overflows float64). For a monotone Eq. 5 on a finite bracket
	// of sane width it is unreachable: bisection halves the bracket
	// every step, so the width test fires long before the budget runs
	// out. Clients read the message in the 422 no_convergence body.
	ErrNoConvergence = errors.New("solve: fixed-point iteration did not converge")
)
