package api

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/queueing"
	"repro/internal/units"
)

// CurveSpec selects a queuing curve. The zero value means the analytic
// M/M/1 curve with a 6 ns service time and 95% stability limit — the
// same default cmd/memmodel uses.
type CurveSpec struct {
	// Type is "mm1", "md1", or "measured"; empty means "mm1".
	Type string `json:"type,omitempty"`
	// ServiceNS is the analytic curves' service time; 0 means 6 ns.
	ServiceNS float64 `json:"service_ns,omitempty"`
	// ULimit is the stability limit in (0,1); 0 means 0.95.
	ULimit float64 `json:"ulimit,omitempty"`
	// Points are the samples of a measured curve.
	Points []CurvePoint `json:"points,omitempty"`
}

// CurvePoint is one (utilization, queuing delay) sample of a measured
// curve.
type CurvePoint struct {
	Utilization float64 `json:"utilization"`
	DelayNS     float64 `json:"delay_ns"`
}

// Curve materializes the spec. Errors wrap model.ErrInvalidPlatform.
func (cs CurveSpec) Curve() (queueing.Curve, error) {
	service := cs.ServiceNS
	if service == 0 {
		service = 6
	}
	if service < 0 {
		return nil, fmt.Errorf("%w: curve service_ns must be non-negative", model.ErrInvalidPlatform)
	}
	if cs.ULimit < 0 || cs.ULimit >= 1 {
		return nil, fmt.Errorf("%w: curve ulimit must be in [0,1)", model.ErrInvalidPlatform)
	}
	switch strings.ToLower(cs.Type) {
	case "", "mm1":
		return queueing.MM1{Service: units.Duration(service), ULimit: cs.ULimit}, nil
	case "md1":
		return queueing.MD1{Service: units.Duration(service), ULimit: cs.ULimit}, nil
	case "measured":
		us := make([]float64, len(cs.Points))
		ds := make([]units.Duration, len(cs.Points))
		for i, pt := range cs.Points {
			if pt.DelayNS < 0 {
				return nil, fmt.Errorf("%w: measured curve delay must be non-negative", model.ErrInvalidPlatform)
			}
			us[i] = pt.Utilization
			ds[i] = units.Duration(pt.DelayNS)
		}
		m, err := queueing.NewMeasured(us, ds)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", model.ErrInvalidPlatform, err)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown curve type %q", model.ErrInvalidPlatform, cs.Type)
	}
}

// ParamsSpec selects a workload: a named class from the paper's Table 6
// means, optionally overridden component-by-component, or a fully
// custom parameter set.
type ParamsSpec struct {
	// Class is "bigdata", "enterprise", or "hpc"; empty means fully
	// custom parameters.
	Class    string  `json:"class,omitempty"`
	Name     string  `json:"name,omitempty"`
	CPICache float64 `json:"cpi_cache,omitempty"`
	BF       float64 `json:"bf,omitempty"`
	MPKI     float64 `json:"mpki,omitempty"`
	WBR      float64 `json:"wbr,omitempty"`
	IOPI     float64 `json:"iopi,omitempty"`
	IOSZ     float64 `json:"iosz,omitempty"`
}

// classTarget maps a class name onto the paper's Table 6 means.
func classTarget(class string) (params.Target, error) {
	switch strings.ToLower(class) {
	case "enterprise":
		return params.Table6[0], nil
	case "bigdata", "big data":
		return params.Table6[1], nil
	case "hpc":
		return params.Table6[2], nil
	}
	return params.Target{}, fmt.Errorf("%w: unknown class %q (want bigdata, enterprise, hpc, or custom components)",
		model.ErrInvalidParams, class)
}

// Params materializes the spec and validates it. Errors wrap
// model.ErrInvalidParams.
func (ps ParamsSpec) Params() (model.Params, error) {
	p := model.Params{
		Name:     ps.Name,
		CPICache: ps.CPICache,
		BF:       ps.BF,
		MPKI:     ps.MPKI,
		WBR:      ps.WBR,
		IOPI:     ps.IOPI,
		IOSZ:     ps.IOSZ,
	}
	if ps.Class != "" {
		t, err := classTarget(ps.Class)
		if err != nil {
			return model.Params{}, err
		}
		// Class supplies the base; explicit non-zero fields override.
		if p.Name == "" {
			p.Name = t.Workload
		}
		if p.CPICache == 0 {
			p.CPICache = t.CPICache
		}
		if p.BF == 0 {
			p.BF = t.BF
		}
		if p.MPKI == 0 {
			p.MPKI = t.MPKI
		}
		if p.WBR == 0 {
			p.WBR = t.WBR
		}
	}
	if p.Name == "" {
		p.Name = "custom"
	}
	if err := p.Validate(); err != nil {
		return model.Params{}, err
	}
	return p, nil
}

// PlatformSpec describes a single-tier platform. Zero fields default to
// the paper's §VI.C.2 baseline (8C/16T @ 2.5 GHz, 75 ns compulsory,
// 4×DDR3-1867 at 70% efficiency ≈ 42 GB/s). Bandwidth comes either
// from peak_gbps directly or from channels × grade_mts × 8 B ×
// efficiency.
type PlatformSpec struct {
	Name         string    `json:"name,omitempty"`
	Cores        int       `json:"cores,omitempty"`
	Threads      int       `json:"threads,omitempty"`
	GHz          float64   `json:"ghz,omitempty"`
	LineSize     float64   `json:"line_size,omitempty"`
	CompulsoryNS float64   `json:"compulsory_ns,omitempty"`
	PeakGBps     float64   `json:"peak_gbps,omitempty"`
	Channels     int       `json:"channels,omitempty"`
	GradeMTs     int       `json:"grade_mts,omitempty"`
	Efficiency   float64   `json:"efficiency,omitempty"`
	Queue        CurveSpec `json:"queue,omitempty"`
}

// Platform materializes the spec and validates it. Errors wrap
// model.ErrInvalidPlatform.
func (s PlatformSpec) Platform() (model.Platform, error) {
	b := params.Baseline()
	pl := model.Platform{
		Name:       s.Name,
		Cores:      s.Cores,
		Threads:    s.Threads,
		CoreSpeed:  units.GHzOf(s.GHz),
		LineSize:   units.Bytes(s.LineSize),
		Compulsory: units.Duration(s.CompulsoryNS),
	}
	if pl.Name == "" {
		pl.Name = "serve"
	}
	if pl.Cores == 0 {
		pl.Cores = b.Cores
	}
	if pl.Threads == 0 {
		pl.Threads = pl.Cores * b.ThreadsPerCore
	}
	if pl.CoreSpeed == 0 {
		pl.CoreSpeed = b.CoreSpeed
	}
	if pl.LineSize == 0 {
		pl.LineSize = b.LineSize
	}
	if pl.Compulsory == 0 {
		pl.Compulsory = b.Compulsory
	}
	switch {
	case s.PeakGBps != 0:
		pl.PeakBW = units.GBpsOf(s.PeakGBps)
	case s.Channels != 0 || s.GradeMTs != 0 || s.Efficiency != 0:
		ch, mts, eff := s.Channels, s.GradeMTs, s.Efficiency
		if ch == 0 {
			ch = b.Channels
		}
		if mts == 0 {
			mts = b.ChannelMTs
		}
		if eff == 0 {
			eff = b.Efficiency
		}
		if ch < 0 || mts < 0 || eff < 0 || eff > 1 {
			return model.Platform{}, fmt.Errorf("%w: channel description out of range", model.ErrInvalidPlatform)
		}
		pl.PeakBW = units.BytesPerSecond(float64(ch) * float64(mts) * 1e6 * 8 * eff)
	default:
		pl.PeakBW = b.EffectiveBandwidth()
	}
	var err error
	if pl.Queue, err = s.Queue.Curve(); err != nil {
		return model.Platform{}, err
	}
	if err := pl.Validate(); err != nil {
		return model.Platform{}, err
	}
	return pl, nil
}

// TopologyTierSpec is one memory tier of an N-tier topology.
type TopologyTierSpec struct {
	Name string `json:"name,omitempty"`
	// Share is the tier's traffic share: a fraction summing to 1 under
	// the "fractions" policy, a non-negative interleave weight under
	// "interleave", ignored under "local-remote".
	Share        float64 `json:"share,omitempty"`
	CompulsoryNS float64 `json:"compulsory_ns"`
	PeakGBps     float64 `json:"peak_gbps"`
	// Efficiency derates peak to sustained bandwidth, in (0,1];
	// 0 means 1.0 (no derating).
	Efficiency float64   `json:"efficiency,omitempty"`
	Queue      CurveSpec `json:"queue,omitempty"`
}

// TopologySpec describes an N-tier memory topology — the unified form
// of the flat, tiered, and NUMA platforms. The core side defaults like
// PlatformSpec; the tiers must be explicit.
type TopologySpec struct {
	Name     string  `json:"name,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	Threads  int     `json:"threads,omitempty"`
	GHz      float64 `json:"ghz,omitempty"`
	LineSize float64 `json:"line_size,omitempty"`
	// Policy is "fractions" (default), "interleave", or "local-remote".
	Policy string `json:"policy,omitempty"`
	// RemoteFraction is the interconnect-traversing share under
	// "local-remote".
	RemoteFraction float64            `json:"remote_fraction,omitempty"`
	Tiers          []TopologyTierSpec `json:"tiers"`
}

// splitPolicy parses the wire policy name.
func splitPolicy(s string) (model.SplitPolicy, error) {
	switch strings.ToLower(s) {
	case "", "fractions":
		return model.SplitFractions, nil
	case "interleave":
		return model.SplitInterleave, nil
	case "local-remote", "numa":
		return model.SplitLocalRemote, nil
	}
	return 0, fmt.Errorf("%w: unknown split policy %q (want fractions, interleave, or local-remote)",
		model.ErrInvalidPlatform, s)
}

// Topology materializes the spec and validates it. Errors wrap
// model.ErrInvalidPlatform.
func (s TopologySpec) Topology() (model.Topology, error) {
	b := params.Baseline()
	top := model.Topology{
		Name:           s.Name,
		Cores:          s.Cores,
		Threads:        s.Threads,
		CoreSpeed:      units.GHzOf(s.GHz),
		LineSize:       units.Bytes(s.LineSize),
		RemoteFraction: s.RemoteFraction,
	}
	var err error
	if top.Policy, err = splitPolicy(s.Policy); err != nil {
		return model.Topology{}, err
	}
	if top.Name == "" {
		top.Name = "serve-topology"
	}
	if top.Cores == 0 {
		top.Cores = b.Cores
	}
	if top.Threads == 0 {
		top.Threads = top.Cores * b.ThreadsPerCore
	}
	if top.CoreSpeed == 0 {
		top.CoreSpeed = b.CoreSpeed
	}
	if top.LineSize == 0 {
		top.LineSize = b.LineSize
	}
	for i, ts := range s.Tiers {
		curve, err := ts.Queue.Curve()
		if err != nil {
			return model.Topology{}, err
		}
		name := ts.Name
		if name == "" {
			name = fmt.Sprintf("tier%d", i)
		}
		top.Tiers = append(top.Tiers, model.MemTier{
			Name:       name,
			Share:      ts.Share,
			Compulsory: units.Duration(ts.CompulsoryNS),
			PeakBW:     units.GBpsOf(ts.PeakGBps),
			Efficiency: ts.Efficiency,
			Queue:      curve,
		})
	}
	if err := top.Validate(); err != nil {
		return model.Topology{}, err
	}
	return top, nil
}
