package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"repro/api"
	"repro/internal/model"
)

// classify maps evaluation errors onto (HTTP status, wire code):
// validation sentinels to 400, shed load to 429, deadlines to 504,
// disconnects to 503, non-convergence to 422, anything else to 500.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, model.ErrInvalidParams):
		return http.StatusBadRequest, api.CodeInvalidParams
	case errors.Is(err, model.ErrInvalidPlatform):
		return http.StatusBadRequest, api.CodeInvalidPlatform
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, api.CodeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, api.CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, api.CodeUnavailable
	case errors.Is(err, model.ErrNoConvergence):
		return http.StatusUnprocessableEntity, api.CodeNoConvergence
	default:
		return http.StatusInternalServerError, api.CodeInternal
	}
}

// retryAfterSeconds is the hint carried by every 429 and 503.
const retryAfterSeconds = 1

// setRetryAfter stamps the Retry-After contract: every 429 and 503
// carries the header so clients can pace their backoff.
func setRetryAfter(h http.Header, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		h.Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
}

// writeError renders the unified envelope, honoring the Retry-After
// contract for shedding statuses.
func writeError(w http.ResponseWriter, status int, code, msg string, details map[string]any) {
	setRetryAfter(w.Header(), status)
	writeJSON(w, status, api.ErrorBody{Error: api.ErrorDetail{Code: code, Message: msg, Details: details}})
}
